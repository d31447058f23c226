//! A tiny most-recently-used memo for values that are expensive to
//! build and keyed by a handful of distinct specs at a time: the
//! worker's built datasets, the aggregator's job-id spaces. Linear
//! scan, fixed capacity, least recently used entry evicted — a resident
//! process must not grow with the number of specs it has ever seen.

pub(crate) struct Memo<K, V> {
    /// Most recently used first.
    entries: Vec<(K, V)>,
    capacity: usize,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Memo<K, V> {
        assert!(capacity > 0, "a memo holds at least one entry");
        Memo { entries: Vec::with_capacity(capacity), capacity }
    }

    /// The value under `key`, built with `build` if it is not held.
    pub(crate) fn get_or_insert_with(&mut self, key: K, build: impl FnOnce() -> V) -> &V {
        match self.entries.iter().position(|(held, _)| *held == key) {
            Some(at) => self.entries[..=at].rotate_right(1),
            None => {
                self.entries.truncate(self.capacity - 1);
                self.entries.insert(0, (key, build()));
            }
        }
        &self.entries[0].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_per_key_and_evicts_the_least_recently_used() {
        let mut builds = Vec::new();
        let mut memo: Memo<u32, String> = Memo::new(2);
        let mut get = |memo: &mut Memo<u32, String>, key: u32| {
            memo.get_or_insert_with(key, || {
                builds.push(key);
                format!("v{key}")
            })
            .clone()
        };
        assert_eq!(get(&mut memo, 1), "v1");
        assert_eq!(get(&mut memo, 2), "v2");
        assert_eq!(get(&mut memo, 1), "v1", "held: not rebuilt");
        assert_eq!(get(&mut memo, 3), "v3", "evicts 2, the least recently used");
        assert_eq!(get(&mut memo, 1), "v1");
        assert_eq!(get(&mut memo, 2), "v2", "2 was evicted: rebuilt");
        assert_eq!(builds, vec![1, 2, 3, 2]);
    }
}
