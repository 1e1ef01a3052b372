//! The flight recorder: dumping the per-thread rings of recent events.
//!
//! Every span/mark a thread records also lands in its bounded ring
//! buffer (newest [`crate::registry::RING_CAP`] records). When a run
//! panics or trips an anomaly hook (e.g. a sweep cell failing),
//! [`dump_flight`] snapshots every ring to the path
//! configured via [`set_flight_path`] — a black-box readout of what the
//! process was doing just before things went wrong.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Once;

use crate::json::quote;
use crate::registry::{self, lock_unpoisoned};

/// Configures where [`dump_flight`] (and the panic hook) writes.
pub fn set_flight_path(path: impl Into<PathBuf>) {
    *lock_unpoisoned(&registry::global().flight_path) = Some(path.into());
}

fn render_flight() -> String {
    let mut out = String::from("{\"flightEvents\":[\n");
    let mut first = true;
    for buf in registry::global().thread_bufs() {
        let events = lock_unpoisoned(&buf.events);
        for r in events.ring_in_order() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"tid\":{},\"name\":{},\"at_us\":{}",
                buf.tid,
                quote(r.name),
                r.start_us
            );
            if let Some(dur) = r.dur_us {
                let _ = write!(out, ",\"dur_us\":{dur}");
            }
            if let Some(sim) = r.sim_us {
                let _ = write!(out, ",\"sim_us\":{sim}");
            }
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    out
}

fn write_flight(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_flight())
}

/// Dumps every thread's flight-recorder ring to the configured path.
///
/// Returns the path written, or `None` when no path was configured (set
/// one with [`set_flight_path`]).
///
/// # Errors
///
/// Any I/O error from creating directories or writing the file.
pub fn dump_flight() -> io::Result<Option<PathBuf>> {
    // Hold the path lock across the write: concurrent dumps (two cells
    // failing at once) must serialize, or their
    // truncate-and-write sequences interleave into invalid JSON. The
    // lock is poison-tolerant because this also runs in the panic hook.
    let guard = lock_unpoisoned(&registry::global().flight_path);
    match guard.as_deref() {
        Some(path) => {
            write_flight(path)?;
            Ok(Some(path.to_owned()))
        }
        None => Ok(None),
    }
}

/// Installs a panic hook (once per process) that dumps the flight
/// recorder before delegating to the previous hook. A no-op unless a
/// path has been configured by panic time.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match dump_flight() {
                Ok(Some(path)) => {
                    eprintln!("rfd-obs: flight recorder dumped to {}", path.display());
                }
                Ok(None) => {}
                Err(err) => eprintln!("rfd-obs: flight recorder dump failed: {err}"),
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn dump_writes_ring_to_configured_path() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        crate::mark("flight.alpha");
        {
            let mut s = crate::span("flight.beta");
            s.sim_time_us(123);
        }
        let dir = std::env::temp_dir().join("rfd-obs-flight-test");
        let path = dir.join("ring.flightrec.json");
        set_flight_path(&path);
        let written = dump_flight().expect("dump ok").expect("path configured");
        crate::disable();
        crate::reset();
        *registry::global().flight_path.lock().unwrap() = None;
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse(&text).expect("valid JSON");
        let Some(Value::Array(events)) = parsed.get("flightEvents").cloned() else {
            panic!("flightEvents array expected")
        };
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"flight.alpha"), "{names:?}");
        assert!(names.contains(&"flight.beta"), "{names:?}");
        let beta = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("flight.beta"))
            .unwrap();
        assert_eq!(beta.get("sim_us").and_then(Value::as_u64), Some(123));
        assert!(beta.get("dur_us").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_after_ring_wraparound_keeps_newest_in_insertion_order() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        const EXTRA: usize = 10;
        // Overfill the ring: RING_CAP "old" marks, then EXTRA "new" ones.
        // The dump must hold exactly RING_CAP records — the newest ones,
        // still in insertion order — with exactly the EXTRA oldest gone.
        for _ in 0..crate::registry::RING_CAP {
            crate::mark("flight.wrap.old");
        }
        for _ in 0..EXTRA {
            crate::mark("flight.wrap.new");
        }
        let dir = std::env::temp_dir().join(format!("rfd-obs-wrap-test-{}", std::process::id()));
        let path = dir.join("wrap.flightrec.json");
        set_flight_path(&path);
        dump_flight().expect("dump ok").expect("path configured");
        crate::disable();
        crate::reset();
        *lock_unpoisoned(&registry::global().flight_path) = None;
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse(&text).expect("valid JSON");
        let Some(Value::Array(events)) = parsed.get("flightEvents").cloned() else {
            panic!("flightEvents array expected")
        };
        assert_eq!(events.len(), crate::registry::RING_CAP, "ring is bounded");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        let old = names.iter().filter(|n| **n == "flight.wrap.old").count();
        let new = names.iter().filter(|n| **n == "flight.wrap.new").count();
        assert_eq!(new, EXTRA, "every new record survives");
        assert_eq!(
            old,
            crate::registry::RING_CAP - EXTRA,
            "exactly the oldest records are dropped"
        );
        // Insertion order is preserved: all surviving old records come
        // before the new ones, and timestamps never go backwards.
        let first_new = names
            .iter()
            .position(|n| *n == "flight.wrap.new")
            .expect("new records present");
        assert_eq!(first_new, old, "old block precedes new block");
        let stamps: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("at_us").and_then(Value::as_u64))
            .collect();
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "dump must preserve insertion order"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_survives_a_poisoned_thread_buffer() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        crate::mark("flight.poison.before");
        // Panic while holding the thread buffer's lock — the exact state
        // a crashing instrumented thread leaves behind. The dump (which
        // runs from the panic hook in production) must still render.
        let bufs = registry::global().thread_bufs();
        assert!(!bufs.is_empty());
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = bufs[0].events.lock().unwrap();
            panic!("poison the buffer");
        }));
        assert!(poisoned.is_err());
        assert!(bufs[0].events.is_poisoned(), "setup failed to poison");
        let dir = std::env::temp_dir().join(format!("rfd-obs-poison-test-{}", std::process::id()));
        let path = dir.join("poison.flightrec.json");
        set_flight_path(&path);
        let written = dump_flight().expect("dump ok despite poison");
        crate::disable();
        crate::reset();
        *lock_unpoisoned(&registry::global().flight_path) = None;
        assert_eq!(written.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse(&text).expect("valid JSON");
        let names: Vec<&str> = parsed
            .get("flightEvents")
            .and_then(Value::as_array)
            .expect("flightEvents array")
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"flight.poison.before"), "{names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_without_path_is_none() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        *registry::global().flight_path.lock().unwrap() = None;
        assert!(dump_flight().unwrap().is_none());
    }
}
