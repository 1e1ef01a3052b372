//! Regenerates Figure 14: message count versus number of pulses, with
//! RCN-enhanced damping (slightly more messages than plain damping —
//! no premature false suppression).

use rfd_experiments::figures::fig13_14::figure13_14;
use std::process::ExitCode;

use rfd_experiments::output::{banner, obs_init, publish_csv, sweep_exit_code, sweep_options};

fn main() -> ExitCode {
    banner("Figure 14", "message count vs pulses, with RCN");
    let _obs = obs_init("fig14");
    let sweep = figure13_14(&sweep_options());
    let table = sweep.message_table();
    publish_csv("fig14", &table);
    sweep_exit_code(&sweep)
}
