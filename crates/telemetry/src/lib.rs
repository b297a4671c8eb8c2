//! Cloud GPU telemetry and control planes.
//!
//! §3 of the paper catalogs the monitoring and control interfaces
//! available in an LLM cluster (Tables 1 and 2) and the challenges they
//! create for power management: in-band (IB) tools are fast but
//! unavailable to the provider under passthrough virtualization, while
//! out-of-band (OOB) interfaces are slow — "up to 40 s to implement on a
//! single server" — and "may sometimes fail without signaling completion
//! or errors". POLCA's whole design flows from those constraints.
//!
//! * [`interfaces`] — the static interface catalog of Table 1 and the
//!   row-level parameters of Table 2,
//! * [`delay`] — [`delay::DelayedSignal`]: telemetry with a
//!   configurable propagation delay (the 2 s row-power delay),
//! * [`control`] — [`control::OobControlPlane`]: command
//!   dispatch with actuation latency ranges and silent-failure injection,
//! * [`fanout`] — [`fanout::RowPowerTaps`]: publish/subscribe fan-out of
//!   the delayed row-power stream to passive observers (the online watch
//!   plane), with a ground-truth reference feed for annotation only.
//!
//! # Examples
//!
//! ```
//! use polca_sim::SimTime;
//! use polca_telemetry::delay::DelayedSignal;
//!
//! let mut sig = DelayedSignal::new(SimTime::from_secs(2.0));
//! sig.record(SimTime::from_secs(0.0), 100.0);
//! sig.record(SimTime::from_secs(2.0), 200.0);
//! // At t = 2 s the manager still sees the reading from t = 0.
//! assert_eq!(sig.read(SimTime::from_secs(2.0)), Some(100.0));
//! ```

pub mod buffer;
pub mod control;
pub mod delay;
pub mod fanout;
pub mod interfaces;

pub use buffer::{merge_tick_columns, BufferedTick, RowTickBuffer};
pub use control::{ControlAction, ControlCommand, OobControlPlane};
pub use delay::DelayedSignal;
pub use fanout::{RowPowerSubscriber, RowPowerTaps};
pub use interfaces::{Granularity, MonitorInterface, Path, RowParameters};
