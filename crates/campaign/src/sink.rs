//! Result sinks: where finished rows go — and the tailing reader that
//! consumes them back.
//!
//! [`JsonlSink`] streams one JSON line per completed job and flushes
//! after every row, so a killed campaign loses at most the rows in
//! flight; on reopen it reports the completed job ids and the engine
//! skips them — that is the whole resume protocol.
//!
//! [`SinkTailer`] is the read side of the same contract: an
//! incremental JSONL reader that resumes from a byte offset, consumes
//! only *complete* lines (a trailing line torn by a kill stays pending
//! until its writer — or the resume terminator — finishes it), and
//! locates every malformed line as `path:line: message`. The live
//! aggregator in `uvllm-serve` polls it as rows land; `campaign merge`
//! drives it once in strict mode; [`JsonlSink::open`] uses it to read
//! back a previous run.

use crate::eval::EvalRow;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Rows (and located parse diagnostics) produced by one
/// [`SinkTailer::poll`].
#[derive(Debug, Default)]
pub struct TailBatch {
    /// Rows parsed from complete lines appended since the last poll.
    pub rows: Vec<EvalRow>,
    /// Complete-but-unparsable lines, each located as
    /// `path:line: message` (the message names the offending member).
    /// The lines are skipped — their jobs simply have no row yet.
    pub diags: Vec<String>,
}

/// The raw complete-line discipline under [`SinkTailer`]: an
/// incremental reader that consumes only whole (newline-terminated)
/// lines from an append-only file, resuming from a byte offset.
///
/// A torn trailing line (no final newline — a writer killed mid-append)
/// is never consumed: it stays pending until a later poll sees its
/// newline. That is what makes tailing a live, crash-prone append log
/// safe, and it is shared verbatim by the `uvllm-serve` write-ahead
/// journal, whose records ride the same discipline with their own
/// length-prefix + checksum framing on top.
#[derive(Debug, Clone)]
pub struct LineTailer {
    path: PathBuf,
    /// Bytes of complete lines consumed so far.
    offset: u64,
    /// 1-based number of the next complete line (diagnostics).
    line: u64,
}

impl LineTailer {
    /// A tailer positioned at the start of `path`.
    pub fn new(path: impl AsRef<Path>) -> LineTailer {
        LineTailer { path: path.as_ref().to_path_buf(), offset: 0, line: 1 }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of complete lines consumed so far (the resume offset).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// 1-based number of the next complete line.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Reads every complete line appended since the last poll. A
    /// missing file reads as empty — the writer may not have created it
    /// yet — and a file that has not grown past the offset costs one
    /// `stat`: it is not opened. No handle is kept between polls, so a
    /// process tailing many files holds no descriptor for them.
    ///
    /// # Errors
    ///
    /// I/O failure other than the file not existing yet.
    pub fn poll_raw(&mut self) -> std::io::Result<RawLines> {
        let mut lines = RawLines { offset: self.offset, number: self.line, bytes: Vec::new() };
        let not_found = |e: &std::io::Error| e.kind() == std::io::ErrorKind::NotFound;
        let grown = match std::fs::metadata(&self.path) {
            Ok(meta) => meta.len().saturating_sub(self.offset),
            Err(e) if not_found(&e) => return Ok(lines),
            Err(e) => return Err(e),
        };
        if grown == 0 {
            return Ok(lines);
        }
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if not_found(&e) => return Ok(lines),
            Err(e) => return Err(e),
        };
        file.seek(SeekFrom::Start(self.offset))?;
        lines.bytes.reserve_exact(usize::try_from(grown).unwrap_or(0));
        file.read_to_end(&mut lines.bytes)?;
        // Only whole lines are consumed; a torn tail stays pending.
        let complete = lines.bytes.iter().rposition(|b| *b == b'\n').map_or(0, |last| last + 1);
        lines.bytes.truncate(complete);
        self.line += lines.bytes.iter().filter(|b| **b == b'\n').count() as u64;
        self.offset += complete as u64;
        Ok(lines)
    }

    /// Bytes currently past the consumed offset — a non-zero value
    /// after a final [`LineTailer::poll_raw`] is a torn trailing line.
    pub fn remainder(&self) -> u64 {
        match std::fs::metadata(&self.path) {
            Ok(meta) => meta.len().saturating_sub(self.offset),
            Err(_) => 0,
        }
    }
}

/// The complete lines one [`LineTailer::poll_raw`] consumed, in one
/// buffer.
#[derive(Debug)]
pub struct RawLines {
    /// Byte offset of the first line in the file.
    offset: u64,
    /// 1-based number of the first line.
    number: u64,
    /// Whole lines, each ending in a newline.
    bytes: Vec<u8>,
}

/// One complete line of a tailed file.
#[derive(Debug, Clone, Copy)]
pub struct TailedLine<'a> {
    /// 1-based line number (diagnostics).
    pub number: u64,
    /// Byte offset of the line's first byte in the file.
    pub offset: u64,
    /// The line, newline stripped.
    pub bytes: &'a [u8],
}

impl RawLines {
    /// The lines in file order, blank ones included (they still count
    /// as lines).
    pub fn lines(&self) -> impl Iterator<Item = TailedLine<'_>> {
        let mut offset = self.offset;
        let body = self.bytes.strip_suffix(b"\n");
        body.into_iter().flat_map(|body| body.split(|b| *b == b'\n')).zip(self.number..).map(
            move |(bytes, number)| {
                let line = TailedLine { number, offset, bytes };
                offset += bytes.len() as u64 + 1;
                line
            },
        )
    }
}

/// An incremental reader over a [`JsonlSink`] file.
///
/// A [`LineTailer`] that parses each complete line as an [`EvalRow`],
/// turning unparsable lines into located diagnostics. A missing file
/// reads as empty (the shard's worker may not have opened its sink
/// yet).
#[derive(Debug, Clone)]
pub struct SinkTailer {
    lines: LineTailer,
}

impl SinkTailer {
    /// A tailer positioned at the start of `path`.
    pub fn new(path: impl AsRef<Path>) -> SinkTailer {
        SinkTailer { lines: LineTailer::new(path) }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        self.lines.path()
    }

    /// Bytes of complete lines consumed so far (the resume offset).
    pub fn offset(&self) -> u64 {
        self.lines.offset()
    }

    /// Reads every complete line appended since the last poll.
    ///
    /// # Errors
    ///
    /// I/O failure other than the file not existing yet.
    pub fn poll(&mut self) -> std::io::Result<TailBatch> {
        let mut rows = Vec::new();
        let diags = self.poll_rows(|row, _| rows.push(row))?;
        Ok(TailBatch { rows, diags })
    }

    /// [`SinkTailer::poll`], handing each row to `each` with the line it
    /// was parsed from instead of collecting the rows. Returns the
    /// located diagnostics of unparsable lines.
    ///
    /// # Errors
    ///
    /// I/O failure other than the file not existing yet.
    pub fn poll_rows(
        &mut self,
        mut each: impl FnMut(EvalRow, TailedLine<'_>),
    ) -> std::io::Result<Vec<String>> {
        let mut diags = Vec::new();
        let raw = self.lines.poll_raw()?;
        for line in raw.lines() {
            let text = String::from_utf8_lossy(line.bytes);
            if text.trim().is_empty() {
                continue;
            }
            match EvalRow::from_json_line(&text) {
                Ok(row) => each(row, line),
                Err(message) => {
                    diags.push(format!("{}:{}: {message}", self.path().display(), line.number))
                }
            }
        }
        Ok(diags)
    }

    /// Strict end-of-file check: fails when bytes remain past the last
    /// consumed line — a trailing line torn by a killed writer. The
    /// merge path uses this (an incomplete shard must fail loudly); the
    /// live aggregator never calls it (the tail may still be written).
    ///
    /// # Errors
    ///
    /// Names the file, byte offset and line number of the torn tail.
    pub fn finish(self) -> Result<(), String> {
        let remainder = self.lines.remainder();
        if remainder > 0 {
            return Err(format!(
                "{}:{}: torn trailing line ({} bytes past offset {} lack a newline)",
                self.path().display(),
                self.lines.line(),
                remainder,
                self.offset(),
            ));
        }
        Ok(())
    }
}

/// A destination for finished rows. Implementations are driven from
/// worker threads through a mutex, one call per job.
pub trait ResultSink: Send {
    /// Job ids already present (consulted once at campaign start; those
    /// jobs are skipped).
    fn completed_ids(&self) -> HashSet<String>;

    /// Rows already present (folded into the final report on resume).
    fn existing_rows(&self) -> Vec<EvalRow>;

    /// Appends one finished row durably.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying store.
    fn append(&mut self, row: &EvalRow) -> std::io::Result<()>;
}

/// An append-only JSONL file sink with resume.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: BufWriter<File>,
    existing: Vec<EvalRow>,
}

impl JsonlSink {
    /// Opens (or creates) `path`, reading any rows a previous run left
    /// behind. Malformed lines — e.g. a row torn by a kill ——
    /// are dropped, so the jobs they came from simply run again. A job
    /// id written more than once (a stolen shard's overlap, two writers
    /// on one file) keeps its first row, as the live aggregator does,
    /// so a resumed report counts each job once.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        // Read back through the tailing reader: complete rows resume,
        // malformed complete lines are dropped (their jobs re-run), and
        // anything past the tailer's offset is a torn tail to repair.
        let mut tailer = SinkTailer::new(&path);
        let mut ids = HashSet::new();
        let existing: Vec<EvalRow> =
            tailer.poll()?.rows.into_iter().filter(|row| ids.insert(row.id.clone())).collect();
        let torn_tail =
            std::fs::metadata(&path).map(|meta| meta.len() > tailer.offset()).unwrap_or(false);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if torn_tail {
            // Terminate a line torn by a kill so new rows start clean.
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(JsonlSink { path, writer, existing })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows recovered from a previous run.
    pub fn resumed(&self) -> usize {
        self.existing.len()
    }
}

impl ResultSink for JsonlSink {
    fn completed_ids(&self) -> HashSet<String> {
        self.existing.iter().map(|r| r.id.clone()).collect()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.existing.clone()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.writer.write_all(row.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        // Flush per row: crash-resume must never replay flushed work.
        self.writer.flush()
    }
}

/// An in-memory sink (tests, and `evaluate()`-style callers that only
/// want the records back).
#[derive(Debug, Default)]
pub struct MemorySink {
    rows: Vec<EvalRow>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Everything appended so far.
    pub fn rows(&self) -> &[EvalRow] {
        &self.rows
    }
}

impl ResultSink for MemorySink {
    fn completed_ids(&self) -> HashSet<String> {
        self.rows.iter().map(|r| r.id.clone()).collect()
    }

    fn existing_rows(&self) -> Vec<EvalRow> {
        self.rows.clone()
    }

    fn append(&mut self, row: &EvalRow) -> std::io::Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str) -> EvalRow {
        EvalRow {
            id: id.to_string(),
            instance: id.trim_end_matches("@M").to_string(),
            design: "adder_8bit".into(),
            group: "Arithmetic".into(),
            kind: "operator_misuse".into(),
            syntax: false,
            category: "Flawed conditions".into(),
            method: "M".into(),
            backend: "event".into(),
            hit: true,
            fixed: false,
            outcome: "mismatch".into(),
            claimed: true,
            llm_calls: 3,
            prompt_tokens: 100,
            completion_tokens: 50,
            sim_latency_ms: 1234,
            fixed_by: None,
            degraded: None,
        }
    }

    #[test]
    fn jsonl_sink_resumes_and_skips_torn_lines() {
        let dir = std::env::temp_dir().join(format!("uvllm-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let _ = std::fs::remove_file(&path);

        {
            let mut sink = JsonlSink::open(&path).unwrap();
            assert_eq!(sink.resumed(), 0);
            sink.append(&row("a@M")).unwrap();
            sink.append(&row("b@M")).unwrap();
        }
        // Simulate a kill mid-write: a torn, unparseable trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"id\": \"c@M\", \"instance").unwrap();
        }
        let mut sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.resumed(), 2);
        let ids = sink.completed_ids();
        assert!(ids.contains("a@M") && ids.contains("b@M"));
        assert!(!ids.contains("c@M"), "torn row must not count as completed");

        // Appending after resume keeps earlier rows intact.
        sink.append(&row("c@M")).unwrap();
        let reopened = JsonlSink::open(&path).unwrap();
        assert_eq!(reopened.resumed(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn jsonl_sink_keeps_the_first_copy_of_a_repeated_job() {
        let dir = std::env::temp_dir().join(format!("uvllm-sink-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let first = row("a@M");
        let second = EvalRow { llm_calls: 9, ..row("a@M") };
        let lines = [&first, &row("b@M"), &second].map(|r| format!("{}\n", r.to_json_line()));
        std::fs::write(&path, lines.concat()).unwrap();
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.resumed(), 2);
        let rows = sink.existing_rows();
        assert_eq!(rows.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(), ["a@M", "b@M"]);
        assert_eq!(rows[0].llm_calls, first.llm_calls, "the first copy wins");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A row an older build wrote with the since-removed wall-clock
    /// members (`llm_wait_ms`, `llm_batch_max`) resumes as completed.
    #[test]
    fn jsonl_sink_resumes_a_row_with_the_old_wait_members() {
        let dir = std::env::temp_dir().join(format!("uvllm-sink-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let line = row("a@M").to_json_line();
        let old = format!("{},\"llm_wait_ms\":3,\"llm_batch_max\":2}}\n", &line[..line.len() - 1]);
        std::fs::write(&path, &old).unwrap();
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.resumed(), 1);
        assert!(sink.completed_ids().contains("a@M"));
        assert_eq!(sink.existing_rows(), [row("a@M")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tailer_resumes_from_offset_and_holds_torn_tails() {
        let dir = std::env::temp_dir().join(format!("uvllm-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut tailer = SinkTailer::new(&path);
        // Missing file: empty batch, not an error (the worker may not
        // have opened its sink yet).
        assert!(tailer.poll().unwrap().rows.is_empty());

        let mut sink = JsonlSink::open(&path).unwrap();
        sink.append(&row("a@M")).unwrap();
        sink.append(&row("b@M")).unwrap();
        let batch = tailer.poll().unwrap();
        assert_eq!(batch.rows.len(), 2);
        assert!(batch.diags.is_empty());

        // A torn trailing line stays pending across polls…
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"id\": \"c@M\", \"inst").unwrap();
        }
        let offset_before = tailer.offset();
        assert!(tailer.poll().unwrap().rows.is_empty());
        assert_eq!(tailer.offset(), offset_before, "torn bytes must not be consumed");
        // …and is consumed once its writer finishes the line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(format!("ance\": \"c\"}}\n{}\n", row("d@M").to_json_line()).as_bytes())
                .unwrap();
        }
        let batch = tailer.poll().unwrap();
        // Line 3 completed into a parseable-JSON-but-invalid row
        // (missing members): a located diagnostic, not a silent skip.
        assert_eq!(batch.rows.len(), 1);
        assert_eq!(batch.rows[0].id, "d@M");
        assert_eq!(batch.diags.len(), 1);
        assert!(
            batch.diags[0].contains("tail.jsonl:3:"),
            "diag must be located: {}",
            batch.diags[0]
        );
        assert!(
            batch.diags[0].contains("design"),
            "diag names the missing member: {}",
            batch.diags[0]
        );
        tailer.clone().finish().unwrap();

        // finish() on a torn tail names the file and line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"torn").unwrap();
        }
        let err = tailer.finish().unwrap_err();
        assert!(err.contains("tail.jsonl:5:"), "{err}");
        assert!(err.contains("torn trailing line"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tailed_lines_carry_their_numbers_and_offsets() {
        let dir = std::env::temp_dir().join(format!("uvllm-lines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.txt");
        std::fs::write(&path, "a\n\nbc\nd").unwrap();
        let mut tailer = LineTailer::new(&path);
        let raw = tailer.poll_raw().unwrap();
        let seen: Vec<_> = raw.lines().map(|l| (l.number, l.offset, l.bytes.to_vec())).collect();
        assert_eq!(seen, [(1, 0, b"a".to_vec()), (2, 2, Vec::new()), (3, 3, b"bc".to_vec())]);
        assert_eq!(tailer.offset(), 6, "the torn 'd' stays pending");

        OpenOptions::new().append(true).open(&path).unwrap().write_all(b"e\nf\n").unwrap();
        let raw = tailer.poll_raw().unwrap();
        let seen: Vec<_> = raw.lines().map(|l| (l.number, l.offset, l.bytes.to_vec())).collect();
        assert_eq!(seen, [(4, 6, b"de".to_vec()), (5, 9, b"f".to_vec())]);
        assert_eq!(tailer.poll_raw().unwrap().lines().count(), 0, "nothing new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_sink_accumulates() {
        let mut sink = MemorySink::new();
        sink.append(&row("x@M")).unwrap();
        assert_eq!(sink.rows().len(), 1);
        assert!(sink.completed_ids().contains("x@M"));
    }
}
