//! End-to-end contract of fault-tolerant sweep execution: a sweep hit
//! by a deterministic injected panic finishes the healthy cells, marks
//! the damage explicitly, and —
//! after a `--resume` pass over the same journal — produces CSV output
//! **byte-identical** to a clean run, at one worker thread and at two.

use std::path::PathBuf;

use rfd_experiments::figures::fig8_9::figure8_9_on;
use rfd_experiments::sweep::{PulseSweep, SweepOptions};
use rfd_experiments::TopologyKind;
use rfd_runner::ChaosPlan;

/// The cell the chaos plan targets (n = 2 of the mesh damping series).
const VICTIM: &str = "Full Damping (simulation, mesh)|n=2|seed=1";

fn mesh() -> TopologyKind {
    TopologyKind::Mesh {
        width: 4,
        height: 4,
    }
}

fn internet() -> TopologyKind {
    TopologyKind::Internet { nodes: 20, m: 2 }
}

fn opts(threads: usize, journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        threads,
        max_pulses: 3,
        seeds: vec![1],
        journal_dir: journal,
        ..SweepOptions::quick()
    }
}

fn sweep(o: &SweepOptions) -> PulseSweep {
    figure8_9_on(o, mesh(), internet())
}

fn csv_pair(s: &PulseSweep) -> (String, String) {
    (s.convergence_table().to_csv(), s.message_table().to_csv())
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfd-chaos-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Injected panic → quarantined cell, marked CSV, then a resume run
/// that re-executes exactly the damaged cell and restores the clean
/// bytes.
fn chaos_then_resume_round_trip(threads: usize) {
    let clean = csv_pair(&sweep(&opts(threads, None)));

    let dir = temp_journal(&format!("panic-t{threads}"));
    let chaotic = sweep(&SweepOptions {
        chaos: ChaosPlan::parse(&format!("panic@{VICTIM}")).unwrap(),
        ..opts(threads, Some(dir.clone()))
    });
    assert_eq!(chaotic.failures.len(), 1, "exactly the victim cell fails");
    assert_eq!(chaotic.failures[0].key, VICTIM);
    let (chaotic_convergence, _) = csv_pair(&chaotic);
    assert!(
        chaotic_convergence.contains("FAILED:1"),
        "failed cells must be marked, never silently absent:\n{chaotic_convergence}"
    );

    let resumed = sweep(&SweepOptions {
        resume: true,
        ..opts(threads, Some(dir.clone()))
    });
    assert!(resumed.failures.is_empty(), "resume heals the sweep");
    assert_eq!(
        csv_pair(&resumed),
        clean,
        "chaos + resume must be byte-identical to a clean run ({threads} thread(s))"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn panic_chaos_then_resume_is_byte_identical_single_thread() {
    chaos_then_resume_round_trip(1);
}

#[test]
fn panic_chaos_then_resume_is_byte_identical_two_threads() {
    chaos_then_resume_round_trip(2);
}
