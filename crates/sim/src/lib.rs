//! # rfd-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate the route-flap-damping reproduction runs
//! on: a small, deterministic discrete-event simulation (DES) kernel in
//! the spirit of SSFNet's core, which the original paper used.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time;
//! * [`TimerWheel`] — the event agenda: a hierarchical timer wheel
//!   popping in `(time, key)` order with O(1) cancellation;
//! * [`ShardEngine`] — one wheel plus a clock; the model pops events up
//!   to a window end, handles them and schedules more;
//! * [`EpochBarrier`] — plans the lock-step windows (lookahead, horizon,
//!   event budget) that keep any number of shard engines conservative;
//! * [`DetRng`] — seeded, splittable random streams so every run is
//!   reproducible and structurally independent.
//!
//! # Examples
//!
//! A two-node "ping-pong" model on one shard:
//!
//! ```
//! use rfd_sim::{
//!     event_key, EpochBarrier, RunOutcome, ShardEngine, SimDuration, SimTime, WindowPlan,
//! };
//!
//! #[derive(Debug)]
//! enum Ball { AtA, AtB }
//!
//! let mut shard = ShardEngine::new();
//! shard.schedule(SimTime::ZERO, event_key(0, 0), Ball::AtA);
//! let (lookahead, horizon) = (SimDuration::from_millis(1), SimTime::from_secs(60));
//! let mut barrier = EpochBarrier::new(lookahead, horizon, EpochBarrier::DEFAULT_EVENT_BUDGET);
//! let mut volleys = 0;
//! let outcome = loop {
//!     match barrier.plan(shard.next_time(), shard.processed()) {
//!         WindowPlan::Run { end } => {
//!             while let Some((at, _, ball)) = shard.pop_before(end) {
//!                 volleys += 1;
//!                 if volleys < 10 {
//!                     let next = match ball { Ball::AtA => Ball::AtB, Ball::AtB => Ball::AtA };
//!                     let back = at + SimDuration::from_millis(5);
//!                     shard.schedule(back, event_key(0, volleys), next);
//!                 }
//!             }
//!         }
//!         WindowPlan::Done(outcome) => break outcome,
//!     }
//! };
//! assert_eq!(outcome, RunOutcome::Quiescent);
//! assert_eq!(volleys, 10);
//! assert_eq!(shard.now(), SimTime::from_micros(45_000));
//! ```
//!
//! (See each module for focused examples.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod rng;
mod shard;
mod time;
mod wheel;

pub use rng::DetRng;
pub use shard::{event_key, EpochBarrier, RunOutcome, ShardEngine, WindowPlan, INJECTOR_SRC};
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};
pub use wheel::TimerWheel;
