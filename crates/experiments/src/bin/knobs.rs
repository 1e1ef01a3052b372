//! Protocol-knob ablation: WRATE, sender-side loop avoidance, and
//! reuse-timer quantisation versus the paper defaults.

use rfd_experiments::figures::knobs::{knob_comparison, knob_table};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag};
use rfd_experiments::TopologyKind;
use rfd_sim::SimDuration;

fn main() {
    banner("Knobs", "protocol-option ablations under full damping");
    let _obs = obs_init("knobs");
    let kind = TopologyKind::experiment_mesh(quick_flag());
    for (pulses, interval) in [(1usize, 60u64), (4, 10)] {
        eprintln!("-- {pulses} pulse(s), {interval} s interval --");
        let points = knob_comparison(kind, pulses, SimDuration::from_secs(interval), 1);
        let table = knob_table(&points);
        publish_csv(&format!("knobs_p{pulses}_i{interval}"), &table);
        eprintln!();
    }
}
