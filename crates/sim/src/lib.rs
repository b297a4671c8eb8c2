//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluates POLCA with "a discrete event simulator ... built for
//! a high-traffic scenario" (§6.4). This crate provides the engine that the
//! cluster model in `polca-cluster` and the experiment driver in `polca`
//! are built on:
//!
//! * [`SimTime`] — a total-ordered simulation timestamp in seconds,
//! * [`EventQueue`] — a monotonic priority queue of timed events with
//!   FIFO tie-breaking at equal timestamps (the row engine in
//!   `polca-cluster` keeps this order in per-source lanes, tested
//!   against this queue),
//! * [`rng`] — seedable, stream-split random number generation plus the
//!   distribution samplers used by the workload generators (exponential
//!   inter-arrivals, Box-Muller normals, log-normal bursts).
//!
//! Everything is deterministic: the same seed reproduces the same run
//! bit-for-bit, which the experiment harness relies on when comparing
//! policies on identical request streams.
//!
//! # Examples
//!
//! ```
//! use polca_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2.0), "second");
//! q.schedule(SimTime::from_secs(1.0), "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_secs(), e), (1.0, "first"));
//! ```

#![deny(missing_docs)]

mod chacha;
pub mod queue;
pub mod rng;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::SimTime;
