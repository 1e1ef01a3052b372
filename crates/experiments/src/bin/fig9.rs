//! Regenerates Figure 9: message count versus number of pulses.

use rfd_experiments::figures::fig8_9::figure8_9;
use std::process::ExitCode;

use rfd_experiments::output::{banner, obs_init, publish_csv, sweep_exit_code, sweep_options};

fn main() -> ExitCode {
    banner("Figure 9", "message count vs number of pulses");
    let _obs = obs_init("fig9");
    let sweep = figure8_9(&sweep_options());
    let table = sweep.message_table();
    publish_csv("fig9", &table);
    sweep_exit_code(&sweep)
}
