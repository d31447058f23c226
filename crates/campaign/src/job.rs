//! The campaign job model: one (design × mutation × seed) benchmark
//! instance crossed with one repair method, plus sharding.

use crate::eval::{job_id, MethodKind};
use std::sync::Arc;
use uvllm::BenchInstance;

/// One unit of campaign work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable position in the campaign's full job list (used to order
    /// in-memory results deterministically regardless of which worker
    /// finished first).
    pub index: usize,
    /// The validated benchmark instance (shared across the methods that
    /// evaluate it).
    pub instance: Arc<BenchInstance>,
    /// The method under evaluation.
    pub method: MethodKind,
}

impl Job {
    /// Stable job identifier: `<design>/<kind>#<seed>@<method>`.
    pub fn id(&self) -> String {
        job_id(&self.instance.id(), self.method)
    }
}

/// A `i/n` shard selector: this process works job hashes `≡ index (mod
/// count)`, so `n` cooperating processes partition a campaign without
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    pub index: usize,
    pub count: usize,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec { index: 0, count: 1 }
    }
}

impl ShardSpec {
    /// Parses the CLI form `i/n` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Rejects malformed text, `n == 0` and `i >= n`.
    pub fn parse(text: &str) -> Result<ShardSpec, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("shard must look like 'i/n', got '{text}'"))?;
        let index: usize = i.trim().parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let count: usize = n.trim().parse().map_err(|_| format!("bad shard count '{n}'"))?;
        let spec = ShardSpec { index, count };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the invariants `count >= 1 && index < count`.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if self.index >= self.count {
            return Err(format!("shard index {} out of range 0..{}", self.index, self.count));
        }
        Ok(())
    }

    /// Does this shard own `job`?
    pub fn owns(&self, job: &Job) -> bool {
        self.count <= 1 || fnv1a64(job.id().as_bytes()) % self.count as u64 == self.index as u64
    }
}

/// Parses a dataset or fault seed: hex digits with an optional `0x` /
/// `0X` prefix, so `42`, `0x42` and `0X42` all read as `0x42`. The one
/// seed syntax of the CLI flags and of a served run's `seed` member.
///
/// # Errors
///
/// Names the rejected text.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")).unwrap_or(text);
    // Digits only: `from_str_radix` alone also takes a leading `+`.
    Some(digits)
        .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| format!("bad hex seed '{text}'"))
}

/// FNV-1a: a stable, platform-independent hash for shard assignment
/// (std's hashers are either randomised or unspecified across
/// versions; shard membership must survive both).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Expands `instances × methods` into the campaign's full job list (in
/// deterministic order: instance-major, method-minor).
pub fn expand_jobs(instances: &[Arc<BenchInstance>], methods: &[MethodKind]) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(instances.len() * methods.len());
    for instance in instances {
        for &method in methods {
            jobs.push(Job { index: jobs.len(), instance: Arc::clone(instance), method });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm::build_instance;
    use uvllm_designs::by_name;
    use uvllm_errgen::ErrorKind;

    fn sample_jobs() -> Vec<Job> {
        let d = by_name("adder_8bit").unwrap();
        let instances: Vec<Arc<BenchInstance>> = (0..4)
            .filter_map(|s| {
                build_instance(d, ErrorKind::OperatorMisuse, s, &uvllm::StageMemo::new())
            })
            .map(Arc::new)
            .collect();
        expand_jobs(&instances, &MethodKind::ALL)
    }

    #[test]
    fn shards_partition_the_job_list() {
        let jobs = sample_jobs();
        assert!(!jobs.is_empty());
        let n = 3;
        let mut owned = vec![0usize; n];
        for job in &jobs {
            let owners: Vec<usize> =
                (0..n).filter(|&i| ShardSpec { index: i, count: n }.owns(job)).collect();
            assert_eq!(owners.len(), 1, "{} owned by {owners:?}", job.id());
            owned[owners[0]] += 1;
        }
        assert_eq!(owned.iter().sum::<usize>(), jobs.len());
    }

    #[test]
    fn shard_parsing_validates() {
        assert_eq!(ShardSpec::parse("2/4").unwrap(), ShardSpec { index: 2, count: 4 });
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn seeds_are_hex_with_an_optional_prefix() {
        for text in ["0x42", "0X42", "42"] {
            assert_eq!(parse_seed(text), Ok(0x42), "{text}");
        }
        for text in ["0x0x42", "", "0xZZ", "0x", "+42", "0x-1"] {
            let err = parse_seed(text).unwrap_err();
            assert!(err.contains(&format!("'{text}'")), "{text}: {err}");
        }
    }

    #[test]
    fn job_ids_are_unique_and_ordered() {
        let jobs = sample_jobs();
        let mut ids: Vec<String> = jobs.iter().map(Job::id).collect();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: shard membership must never change across
        // releases, or resumed campaigns would re-run completed work.
        assert_eq!(fnv1a64(b"adder_8bit/operator_misuse#3@UVLLM"), 0xC2E3_3C98_9628_88BB);
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
    }
}
