//! Regenerates Table 1: default damping parameters (Cisco / Juniper).

use rfd_experiments::figures::table1::table1;
use rfd_experiments::output::{banner, obs_init, publish_csv};

fn main() {
    banner("Table 1", "default damping parameters");
    let _obs = obs_init("table1");
    let table = table1().render();
    publish_csv("table1", &table);
}
