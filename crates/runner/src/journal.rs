//! JSON-lines run journal with integrity checking.
//!
//! The first line of a journal is a **header** identifying the grid
//! that wrote it; every completed cell is then appended as a single
//! JSON object, flushed immediately:
//!
//! ```json
//! {"journal":"rfd-runs/v2","grid":"fig8-9","series":3,"pulses":5,"seeds":3,"cells":45,"param_hash":"00c5a1e0213fbb1e"}
//! {"key":"mesh|n=4|seed=2","convergence_secs":171.5,"messages":5240.0,"suppressed":12.0}
//! {"key":"mesh|n=4|seed=3","failed":"panic","error":"index out of bounds"}
//! ```
//!
//! A sweep killed mid-run leaves a journal with whatever cells finished
//! (at worst one truncated final line, which the loader skips);
//! re-invoking with `--resume` loads the journal, skips those cells and
//! recomputes only the remainder. Floats are written in Rust's
//! shortest-round-trip form, so a resumed sweep reproduces *bit-exact*
//! aggregates — the journal never changes the numbers, only the work.
//!
//! Integrity rules enforced by [`Journal::resume`]:
//!
//! - a non-empty journal must open with an intact header whose
//!   [`GridFingerprint`] matches the grid being resumed (name, axis
//!   shapes, cell count, parameter hash); a damaged or missing header
//!   and a mismatch are both refused, since nothing else says which
//!   grid wrote the cells.
//! - after the header, arbitrary byte corruption is tolerated: lines
//!   are decoded individually and lossily (invalid UTF-8 included),
//!   damaged lines are skipped and *counted*, intact lines before and
//!   after them still load.
//! - **failure records** mark a cell as attempted-and-failed, not
//!   completed — resume re-runs exactly those cells, whatever failure
//!   kind the line names (journals may carry kinds this version no
//!   longer writes). When a key appears more than once, the last record
//!   wins.
//!
//! Non-finite floats (JSON has no literal for them) are encoded as the
//! strings `"NaN"`, `"inf"` and `"-inf"`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rfd_obs::json::{self, quote, Value};

use crate::grid::GridFingerprint;
use crate::supervisor::FailKind;
use crate::RunnerError;

/// Journal format tag carried in the header line.
pub const JOURNAL_FORMAT: &str = "rfd-runs/v2";

/// The metrics the runner records per run: the paper's two headline
/// measurements (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Time from first flap to network-wide convergence, in seconds.
    pub convergence_secs: f64,
    /// Total update messages exchanged.
    pub messages: f64,
    /// Routing-table entries ever suppressed during the run.
    pub suppressed: f64,
}

impl RunMetrics {
    /// The all-NaN sentinel standing in for a failed cell's metrics.
    /// Aggregation skips NaN, so failed cells leave holes in the stats
    /// instead of poisoning them.
    pub const FAILED: RunMetrics = RunMetrics {
        convergence_secs: f64::NAN,
        messages: f64::NAN,
        suppressed: f64::NAN,
    };
}

/// Execution metadata journaled alongside a cell's metrics: how long the
/// cell took and which pool worker ran it. Purely diagnostic — resume
/// and aggregation ignore it, and journals written before these fields
/// existed load unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeta {
    /// Wall-clock execution time of the cell, in seconds.
    pub duration_secs: f64,
    /// Pool worker index that executed the cell.
    pub thread: u64,
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The header line identifying the writing grid.
    Header(GridFingerprint),
    /// A completed cell.
    Run {
        /// Journal key of the cell.
        key: String,
        /// The cell's metrics.
        metrics: RunMetrics,
        /// Optional execution metadata.
        meta: Option<RunMeta>,
    },
    /// A cell that failed. Not a completion: resume re-runs it.
    Failure {
        /// Journal key of the cell.
        key: String,
        /// The failure kind as journaled (a [`FailKind`] rendering, or
        /// a kind an older version wrote).
        kind: String,
        /// Human-readable detail.
        error: String,
    },
}

/// What [`Journal::resume`] recovered from disk.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Intact completed cells, by journal key (last record wins).
    pub completed: HashMap<String, RunMetrics>,
    /// Cells whose final record is a failure, with the journaled kind
    /// (resume re-runs these).
    pub failed: HashMap<String, String>,
    /// Damaged lines that were skipped during the scan.
    pub skipped_lines: usize,
}

/// Journal file path for a grid name.
pub fn journal_path(dir: &Path, grid_name: &str) -> PathBuf {
    dir.join(format!("{grid_name}.runs.jsonl"))
}

/// An append-only journal of completed runs.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

fn encode_header(fingerprint: &GridFingerprint) -> String {
    format!(
        "{{\"journal\":{},\"grid\":{},\"series\":{},\"pulses\":{},\"seeds\":{},\"cells\":{},\"param_hash\":\"{:016x}\"}}\n",
        quote(JOURNAL_FORMAT),
        quote(&fingerprint.grid),
        fingerprint.series,
        fingerprint.pulses,
        fingerprint.seeds,
        fingerprint.cells,
        fingerprint.param_hash,
    )
}

impl Journal {
    /// Starts a fresh journal, truncating any previous one, and writes
    /// the header line identifying `fingerprint`.
    pub fn create(dir: &Path, fingerprint: &GridFingerprint) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, &fingerprint.grid);
        let mut file = File::create(&path)?;
        file.write_all(encode_header(fingerprint).as_bytes())?;
        file.flush()?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Opens a journal for resumption: returns the journal (in append
    /// mode) plus every intact record already on disk (see
    /// [`ResumeState`]). A missing or empty file behaves like a fresh
    /// [`Journal::create`]. Damaged lines after the header — truncated
    /// tails, corrupted bytes, invalid UTF-8 — are skipped and counted,
    /// never fatal.
    ///
    /// # Errors
    ///
    /// [`RunnerError::JournalMismatch`] when the on-disk header
    /// identifies a different grid than `fingerprint`;
    /// [`RunnerError::JournalHeader`] when a non-empty journal does not
    /// open with an intact header; [`RunnerError::Io`] on filesystem
    /// errors.
    pub fn resume(
        dir: &Path,
        fingerprint: &GridFingerprint,
    ) -> Result<(Journal, ResumeState), RunnerError> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, &fingerprint.grid);
        let mut state = ResumeState::default();
        let mut bytes = Vec::new();
        if path.exists() {
            File::open(&path)?.read_to_end(&mut bytes)?;
        }
        let mut lines = bytes
            .split(|&b| b == b'\n')
            .filter(|chunk| !chunk.is_empty())
            .map(|chunk| parse_record(&String::from_utf8_lossy(chunk)));
        let fresh = match lines.next() {
            None => true,
            Some(Some(Record::Header(found))) if found == *fingerprint => false,
            Some(Some(Record::Header(found))) => {
                return Err(RunnerError::JournalMismatch(Box::new(
                    crate::JournalMismatch {
                        path,
                        expected: fingerprint.clone(),
                        found,
                    },
                )))
            }
            Some(_) => return Err(RunnerError::JournalHeader(path)),
        };
        for record in lines {
            match record {
                Some(Record::Header(_)) => {}
                Some(Record::Run { key, metrics, .. }) => {
                    state.failed.remove(&key);
                    state.completed.insert(key, metrics);
                }
                Some(Record::Failure { key, kind, .. }) => {
                    state.completed.remove(&key);
                    state.failed.insert(key, kind);
                }
                None => state.skipped_lines += 1,
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if fresh {
            // Fresh file: stamp it with the header like `create` would.
            file.write_all(encode_header(fingerprint).as_bytes())?;
            file.flush()?;
        }
        Ok((
            Journal {
                path,
                file: Mutex::new(file),
            },
            state,
        ))
    }

    /// Appends one completed run and flushes so a kill loses at most the
    /// line being written.
    pub fn record(&self, key: &str, metrics: &RunMetrics) -> io::Result<()> {
        self.record_with(key, metrics, None)
    }

    /// Like [`Journal::record`], optionally appending execution metadata
    /// ([`RunMeta`]) to the line.
    pub fn record_with(
        &self,
        key: &str,
        metrics: &RunMetrics,
        meta: Option<&RunMeta>,
    ) -> io::Result<()> {
        let line = encode_run(key, metrics, meta);
        self.append(line.as_bytes())
    }

    /// Appends a failure record for a failed cell. Failure records do
    /// **not** mark the cell completed — resume re-runs it.
    pub fn record_failure(&self, key: &str, kind: FailKind, error: &str) -> io::Result<()> {
        self.append(encode_failure(key, &kind.to_string(), error).as_bytes())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(bytes)?;
        file.flush()
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn encode_run(key: &str, metrics: &RunMetrics, meta: Option<&RunMeta>) -> String {
    let mut line = format!(
        "{{\"key\":{},\"convergence_secs\":{},\"messages\":{},\"suppressed\":{}",
        quote(key),
        encode_f64(metrics.convergence_secs),
        encode_f64(metrics.messages),
        encode_f64(metrics.suppressed),
    );
    if let Some(meta) = meta {
        line.push_str(&format!(
            ",\"duration_secs\":{},\"thread\":{}",
            encode_f64(meta.duration_secs),
            meta.thread
        ));
    }
    line.push_str("}\n");
    line
}

fn encode_failure(key: &str, kind: &str, error: &str) -> String {
    format!(
        "{{\"key\":{},\"failed\":{},\"error\":{}}}\n",
        quote(key),
        quote(kind),
        quote(error),
    )
}

/// Shortest-round-trip float; non-finite values as quoted strings.
fn encode_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

/// Parses any journal line — header, run, or failure. `None` for
/// malformed input. Unknown extra fields are tolerated, which is what
/// makes the journal format forward- and backward-compatible across
/// versions.
pub fn parse_record(line: &str) -> Option<Record> {
    let Ok(Value::Object(fields)) = json::parse(line) else {
        return None;
    };
    let num = |name: &str| fields.get(name).and_then(number);
    let text = |name: &str| fields.get(name).and_then(Value::as_str);

    if let Some(format) = fields.get("journal") {
        if format.as_str() != Some(JOURNAL_FORMAT) {
            return None;
        }
        let dim = |name| {
            num(name)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|n| n as usize)
        };
        return Some(Record::Header(GridFingerprint {
            grid: text("grid")?.to_owned(),
            series: dim("series")?,
            pulses: dim("pulses")?,
            seeds: dim("seeds")?,
            cells: dim("cells")?,
            param_hash: u64::from_str_radix(text("param_hash")?, 16).ok()?,
        }));
    }

    let key = text("key")?.to_owned();
    if let Some(failed) = fields.get("failed") {
        return Some(Record::Failure {
            key,
            kind: failed.as_str()?.to_owned(),
            error: text("error").unwrap_or_default().to_owned(),
        });
    }

    let metrics = RunMetrics {
        convergence_secs: num("convergence_secs")?,
        messages: num("messages")?,
        suppressed: num("suppressed")?,
    };
    let meta = match (fields.get("duration_secs"), fields.get("thread")) {
        (Some(duration), Some(thread)) => Some(RunMeta {
            duration_secs: number(duration)?,
            thread: number(thread)? as u64,
        }),
        _ => None,
    };
    Some(Record::Run { key, metrics, meta })
}

/// A journaled float: a JSON number, or one of the strings the writer
/// uses for non-finite values.
fn number(value: &Value) -> Option<f64> {
    match value.as_str() {
        Some("NaN") => Some(f64::NAN),
        Some("inf") => Some(f64::INFINITY),
        Some("-inf") => Some(f64::NEG_INFINITY),
        _ => value.as_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rfd-runner-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The fields of a completed-run line.
    fn run_record(line: &str) -> (String, RunMetrics, Option<RunMeta>) {
        match parse_record(line) {
            Some(Record::Run { key, metrics, meta }) => (key, metrics, meta),
            other => panic!("not a run record: {line:?} -> {other:?}"),
        }
    }

    fn fp(name: &str) -> GridFingerprint {
        GridFingerprint {
            grid: name.to_owned(),
            series: 1,
            pulses: 2,
            seeds: 3,
            cells: 6,
            param_hash: 0xabcd_0123_4567_89ef,
        }
    }

    #[test]
    fn round_trips_exact_floats() {
        for v in [0.0, -1.5, 171.48300048213, 1e300, 3.0_f64.sqrt()] {
            let line = format!(
                "{{\"key\":\"k\",\"convergence_secs\":{},\"messages\":{},\"suppressed\":{}}}",
                encode_f64(v),
                encode_f64(-v),
                encode_f64(v * 0.5),
            );
            let (key, m, _) = run_record(&line);
            assert_eq!(key, "k");
            assert_eq!(m.convergence_secs.to_bits(), v.to_bits());
            assert_eq!(m.messages.to_bits(), (-v).to_bits());
            assert_eq!(m.suppressed.to_bits(), (v * 0.5).to_bits());
        }
    }

    #[test]
    fn round_trips_non_finite() {
        let line =
            "{\"key\":\"k\",\"convergence_secs\":\"NaN\",\"messages\":\"-inf\",\"suppressed\":0.0}";
        let (_, m, _) = run_record(line);
        assert!(m.convergence_secs.is_nan());
        assert_eq!(m.messages, f64::NEG_INFINITY);
    }

    #[test]
    fn escaped_keys_round_trip() {
        let key = "odd \"label\" with \\ backslash";
        let line = format!(
            "{{\"key\":{},\"convergence_secs\":1.0,\"messages\":2.0,\"suppressed\":0.0}}",
            quote(key)
        );
        assert_eq!(run_record(&line).0, key);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        for bad in [
            "",
            "{",
            "{\"key\":\"a\",\"convergence_secs\":1.0,\"mess", // truncated
            "{\"key\":\"a\"}",
            "{\"key\":\"a\",\"convergence_secs\":1.0,\"messages\":2.0}", // missing field
            "not json at all",
            "{\"key\":7,\"convergence_secs\":1.0,\"messages\":2.0,\"suppressed\":0.0}",
            "{\"key\":\"a\",\"failed\":7,\"error\":\"x\"}", // kind is not text
            "{\"journal\":\"rfd-runs/v1\",\"grid\":\"g\"}", // unknown format
        ] {
            assert!(parse_record(bad).is_none(), "accepted: {bad}");
        }
    }

    /// Panic text is arbitrary: control characters in a failure
    /// message are escaped on the way out and restored on the way in.
    #[test]
    fn control_characters_in_failure_messages_round_trip() {
        let dir = tmp_dir("control");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let message = "boom\tat\r\u{1}";
        journal
            .record_failure("k", FailKind::Panic, message)
            .unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().nth(1).unwrap();
        assert!(line.chars().all(|c| c >= ' '), "{line:?}");
        let Some(Record::Failure { error, .. }) = parse_record(line) else {
            panic!("not a failure record: {line:?}");
        };
        assert_eq!(error, message);
        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.skipped_lines, 0);
        assert_eq!(state.failed["k"], "panic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_round_trips() {
        let fingerprint = fp("grid-x");
        let line = encode_header(&fingerprint);
        assert_eq!(parse_record(line.trim()), Some(Record::Header(fingerprint)));
    }

    #[test]
    fn failure_records_round_trip() {
        let dir = tmp_dir("failrec");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        journal
            .record_failure("a|n=1|seed=1", FailKind::Panic, "boom \"quoted\"")
            .unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let record = parse_record(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            record,
            Record::Failure {
                key: "a|n=1|seed=1".into(),
                kind: "panic".into(),
                error: "boom \"quoted\"".into(),
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips_and_is_optional() {
        let dir = tmp_dir("meta");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let m = RunMetrics {
            convergence_secs: 4.5,
            messages: 100.0,
            suppressed: 2.0,
        };
        let meta = RunMeta {
            duration_secs: 0.125,
            thread: 3,
        };
        journal.record_with("with-meta", &m, Some(&meta)).unwrap();
        journal.record("without-meta", &m).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines().skip(1); // header
        let (k1, m1, meta1) = run_record(lines.next().unwrap());
        assert_eq!((k1.as_str(), m1), ("with-meta", m));
        assert_eq!(meta1, Some(meta));
        let (k2, m2, meta2) = run_record(lines.next().unwrap());
        assert_eq!((k2.as_str(), m2), ("without-meta", m));
        assert_eq!(meta2, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal whose first line is not an intact header cannot be
    /// matched to any grid: resume refuses it and leaves it as it was,
    /// whether the header is missing (an old headerless journal) or
    /// torn.
    #[test]
    fn resume_refuses_a_journal_without_an_intact_header() {
        let dir = tmp_dir("headerless");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        journal
            .record(
                "k",
                &RunMetrics {
                    convergence_secs: 7.5,
                    messages: 12.0,
                    suppressed: 1.0,
                },
            )
            .unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, runs) = text.split_once('\n').unwrap();
        let torn = format!("{}#\n{runs}", &header[..header.len() / 2]);
        for damaged in [runs.to_owned(), torn] {
            std::fs::write(&path, &damaged).unwrap();
            let err = Journal::resume(&dir, &fp("grid")).unwrap_err();
            assert!(matches!(err, RunnerError::JournalHeader(_)), "{err:?}");
            assert!(err.to_string().contains("re-run without --resume"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), damaged);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_record_resume_cycle() {
        let dir = tmp_dir("cycle");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let m1 = RunMetrics {
            convergence_secs: 10.25,
            messages: 42.0,
            suppressed: 3.0,
        };
        let m2 = RunMetrics {
            convergence_secs: 99.0,
            messages: f64::NAN,
            suppressed: 0.0,
        };
        journal.record("a|n=1|seed=1", &m1).unwrap();
        journal.record("a|n=1|seed=2", &m2).unwrap();
        drop(journal);

        let (journal, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.completed["a|n=1|seed=1"], m1);
        assert!(state.completed["a|n=1|seed=2"].messages.is_nan());

        // Appending after resume keeps earlier records.
        journal.record("a|n=1|seed=3", &m1).unwrap();
        drop(journal);
        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_mismatched_grid() {
        let dir = tmp_dir("mismatch");
        drop(Journal::create(&dir, &fp("grid")).unwrap());

        let mut other = fp("grid");
        other.param_hash ^= 1;
        let err = Journal::resume(&dir, &other).unwrap_err();
        match err {
            RunnerError::JournalMismatch(m) => {
                assert_eq!(m.expected, other);
                assert_eq!(m.found, fp("grid"));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }

        // Shape mismatches are refused too.
        let mut reshaped = fp("grid");
        reshaped.seeds += 1;
        reshaped.cells += 2;
        assert!(Journal::resume(&dir, &reshaped).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_tolerates_truncated_tail() {
        let dir = tmp_dir("trunc");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        journal
            .record(
                "k1",
                &RunMetrics {
                    convergence_secs: 1.0,
                    messages: 2.0,
                    suppressed: 0.0,
                },
            )
            .unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        // Simulate a kill mid-write: append half a record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":\"k2\",\"converg").unwrap();
        drop(f);

        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains_key("k1"));
        assert_eq!(state.skipped_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_corrupt_and_non_utf8_lines() {
        let dir = tmp_dir("corrupt");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let m = RunMetrics {
            convergence_secs: 1.0,
            messages: 2.0,
            suppressed: 0.0,
        };
        journal.record("before", &m).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Corrupt the middle of the file with raw bytes (invalid UTF-8
        // included), then append another valid record after them.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xff\xfe garbage \x80\x81\n").unwrap();
        f.write_all(b"{\"key\":\"zapped\",\"converg\xffence\n")
            .unwrap();
        f.write_all(
            b"{\"key\":\"after\",\"convergence_secs\":3.0,\"messages\":4.0,\"suppressed\":0.0}\n",
        )
        .unwrap();
        drop(f);

        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed.len(), 2);
        assert!(state.completed.contains_key("before"));
        assert!(state.completed.contains_key("after"));
        assert_eq!(state.skipped_lines, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_record() {
        let dir = tmp_dir("dups");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let m1 = RunMetrics {
            convergence_secs: 1.0,
            messages: 10.0,
            suppressed: 0.0,
        };
        let m2 = RunMetrics {
            convergence_secs: 2.0,
            messages: 20.0,
            suppressed: 1.0,
        };
        // Run then newer run: last record wins.
        journal.record("twice", &m1).unwrap();
        journal.record("twice", &m2).unwrap();
        // Run then failure: the cell is *not* completed.
        journal.record("regressed", &m1).unwrap();
        journal
            .record_failure("regressed", FailKind::JournalIo, "disk full")
            .unwrap();
        // Failure then run: a successful re-run supersedes the failure.
        journal
            .record_failure("recovered", FailKind::Panic, "boom")
            .unwrap();
        journal.record("recovered", &m1).unwrap();
        drop(journal);

        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed["twice"], m2);
        assert!(!state.completed.contains_key("regressed"));
        assert_eq!(state.failed["regressed"], "journal-io");
        assert_eq!(state.completed["recovered"], m1);
        assert!(!state.failed.contains_key("recovered"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn write — the first half of a record, then the newline the
    /// next append starts after — damages exactly its own line.
    #[test]
    fn torn_write_damages_exactly_one_line() {
        let dir = tmp_dir("torn");
        let journal = Journal::create(&dir, &fp("grid")).unwrap();
        let m = RunMetrics {
            convergence_secs: 5.0,
            messages: 6.0,
            suppressed: 0.0,
        };
        journal.record("ok-1", &m).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let line = encode_run("torn", &m, None);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let (journal, _) = Journal::resume(&dir, &fp("grid")).unwrap();
        journal.record("ok-2", &m).unwrap();
        drop(journal);

        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.completed.len(), 2);
        assert!(!state.completed.contains_key("torn"));
        assert_eq!(state.skipped_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lines in the format of the version that still retried cells and
    /// timed them out: a `timeout` failure still re-runs its cell and
    /// is not damage, and the `attempts` and `retries` fields are
    /// ignored.
    #[test]
    fn resume_reads_lines_from_the_retrying_format() {
        let dir = tmp_dir("retry-era");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "grid");
        let header = encode_header(&fp("grid"));
        std::fs::write(
            &path,
            format!(
                "{header}\
                 {{\"key\":\"slow\",\"failed\":\"timeout\",\"error\":\"took 2.000s, over its 1.000s budget\",\"attempts\":3}}\n\
                 {{\"key\":\"healed\",\"convergence_secs\":7.5,\"messages\":12.0,\"suppressed\":1.0,\"duration_secs\":0.25,\"thread\":1,\"retries\":2}}\n"
            ),
        )
        .unwrap();
        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert_eq!(state.skipped_lines, 0);
        assert_eq!(state.failed["slow"], "timeout");
        assert!(!state.completed.contains_key("slow"));
        assert_eq!(state.completed["healed"].convergence_secs, 7.5);
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, _, meta) = run_record(text.lines().nth(2).unwrap());
        let expected = RunMeta {
            duration_secs: 0.25,
            thread: 1,
        };
        assert_eq!(meta, Some(expected));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_truncates_previous_journal() {
        let dir = tmp_dir("truncate");
        let j = Journal::create(&dir, &fp("grid")).unwrap();
        j.record(
            "old",
            &RunMetrics {
                convergence_secs: 1.0,
                messages: 1.0,
                suppressed: 0.0,
            },
        )
        .unwrap();
        drop(j);
        let _ = Journal::create(&dir, &fp("grid")).unwrap();
        let (_, state) = Journal::resume(&dir, &fp("grid")).unwrap();
        assert!(state.completed.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Hostile input for the line parser: whatever bytes a damaged journal
/// holds, [`parse_record`] returns, and every line the writer emits
/// reads back to a record that re-encodes to the same bytes.
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Text that leans on what the writer must escape.
    fn text() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            Just('"'),
            Just('\\'),
            Just('é'),
            Just('\u{1f600}'),
        ];
        collection::vec(ch, 0..24).prop_map(|chars| chars.into_iter().collect())
    }

    /// Any `f64`, NaN and infinities included.
    fn float() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    /// One line of each kind the writer emits, newline included.
    fn written() -> impl Strategy<Value = String> {
        let header =
            (text(), 0usize..1 << 20, any::<u64>()).prop_map(|(grid, cells, param_hash)| {
                let (series, pulses, seeds) = (cells % 5, cells % 11, cells % 7);
                encode_header(&GridFingerprint {
                    grid,
                    series,
                    pulses,
                    seeds,
                    cells,
                    param_hash,
                })
            });
        let metrics =
            (float(), float(), float()).prop_map(|(convergence_secs, messages, suppressed)| {
                RunMetrics {
                    convergence_secs,
                    messages,
                    suppressed,
                }
            });
        let meta =
            (any::<bool>(), float(), 0u64..1024).prop_map(|(some, duration_secs, thread)| {
                some.then_some(RunMeta {
                    duration_secs,
                    thread,
                })
            });
        let run = (text(), metrics, meta)
            .prop_map(|(key, metrics, meta)| encode_run(&key, &metrics, meta.as_ref()));
        let failure = (text(), text(), text())
            .prop_map(|(key, kind, error)| encode_failure(&key, &kind, &error));
        prop_oneof![header, run, failure]
    }

    /// The line `record` was read from, as the writer spells it.
    fn encode(record: &Record) -> String {
        match record {
            Record::Header(fingerprint) => encode_header(fingerprint),
            Record::Run { key, metrics, meta } => encode_run(key, metrics, meta.as_ref()),
            Record::Failure { key, kind, error } => encode_failure(key, kind, error),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn written_lines_round_trip(line in written()) {
            let record = parse_record(line.trim_end_matches('\n'));
            prop_assert_eq!(record.as_ref().map(encode), Some(line));
        }

        #[test]
        fn truncated_lines_are_refused(line in written(), cut in any::<usize>()) {
            let line = line.trim_end_matches('\n');
            let mut cut = cut % line.len();
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            prop_assert_eq!(parse_record(&line[..cut]), None);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_record(&String::from_utf8_lossy(&bytes));
        }

        /// A run record carrying one extra field nested `openers.len()`
        /// containers deep inside the record's own object.
        #[test]
        fn nesting_parses_up_to_the_limit_and_no_further(
            openers in collection::vec(any::<bool>(), 0..300),
        ) {
            let mut line = String::from(
                "{\"key\":\"k\",\"convergence_secs\":1.0,\"messages\":2.0,\"suppressed\":0.0,\"x\":",
            );
            for &object in &openers {
                line.push_str(if object { "{\"a\":" } else { "[" });
            }
            line.push('0');
            for &object in openers.iter().rev() {
                line.push(if object { '}' } else { ']' });
            }
            line.push('}');
            let depth = openers.len() + 1;
            prop_assert_eq!(parse_record(&line).is_some(), depth <= json::MAX_DEPTH, "depth {}", depth);
        }
    }
}
