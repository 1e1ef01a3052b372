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
//! * [`EventQueue`] — one wheel plus a clock; the model pops events up
//!   to an instant of its choosing, handles them and schedules more;
//! * [`DetRng`] — seeded, splittable random streams so every run is
//!   reproducible and structurally independent.
//!
//! # Examples
//!
//! A two-node "ping-pong" model:
//!
//! ```
//! use rfd_sim::{event_key, EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ball { AtA, AtB }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, event_key(0, 0), Ball::AtA);
//! let mut volleys = 0;
//! while let Some((at, _, ball)) = queue.pop_before(SimTime::from_secs(60)) {
//!     volleys += 1;
//!     if volleys < 10 {
//!         let next = match ball { Ball::AtA => Ball::AtB, Ball::AtB => Ball::AtA };
//!         let back = at + SimDuration::from_millis(5);
//!         queue.schedule(back, event_key(0, volleys), next);
//!     }
//! }
//! assert!(queue.is_empty());
//! assert_eq!(volleys, 10);
//! assert_eq!(queue.now(), SimTime::from_micros(45_000));
//! ```
//!
//! (See each module for focused examples.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
mod rng;
mod time;
mod wheel;

pub use queue::{event_key, EventQueue, RunOutcome, INJECTOR_SRC};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};
pub use wheel::TimerWheel;
