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

/// Implements `Clone` from one list of all of a struct's fields, as in
/// `clone_fields!(impl<T: Clone> Clone for Queue<T> { items, now })`:
/// `clone_from` refills each field with the field's own `clone_from`,
/// keeping the old value's buffers. Both methods destructure without
/// `..`, so a field missing from the list does not compile.
#[macro_export]
macro_rules! clone_fields {
    (impl $(<$($param:ident: $first:ident $(+ $bound:ident)*),+>)? Clone for $ty:ty {
        $($field:ident),* $(,)?
    }) => {
        impl $(<$($param: $first $(+ $bound)*),+>)? Clone for $ty {
            fn clone(&self) -> Self {
                let Self { $($field),* } = self;
                Self { $($field: Clone::clone($field)),* }
            }
            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),* } = source;
                $(self.$field.clone_from($field);)*
            }
        }
    };
}
