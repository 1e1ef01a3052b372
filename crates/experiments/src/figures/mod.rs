//! Per-figure and per-table reproductions.
//!
//! One module per evaluation artefact of the paper; every module
//! exposes a `figure*()` / `table*()` entry point returning a
//! structured result with `render()` (plain text) and CSV accessors,
//! which `rfd figure` and `rfd sweep` print and save.

pub mod extensions;
pub mod fig10;
pub mod fig13_14;
pub mod fig15;
pub mod fig3;
pub mod fig7;
pub mod fig8_9;
pub mod knobs;
pub mod report15;
pub mod table1;
