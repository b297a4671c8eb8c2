//! POLCA: power oversubscription for LLM inference clusters.
//!
//! This crate implements the paper's primary contribution (§6): a
//! "robust, reliable, and readily deployable" power-oversubscription
//! framework that exploits the statistical multiplexing headroom of LLM
//! inference clusters (Insight 9) to deploy ~30 % more servers under an
//! unchanged row power budget.
//!
//! The design follows §6.3:
//!
//! * **Dual thresholds.** A lower threshold T1 (80 % of provisioned
//!   power) frequency-caps low-priority servers to the A100 base clock
//!   (1275 MHz); an upper threshold T2 (89 %) caps them further
//!   (1110 MHz) and, if power stays high, also caps high-priority
//!   servers gently (1305 MHz). See [`policy::PolcaPolicy`] and
//!   Table 5's [`policy::PowerMode`].
//! * **Hysteresis.** Uncapping happens 5 % below each threshold so the
//!   row does not oscillate between capping and uncapping.
//! * **Power-brake safety net.** If power still reaches the provisioned
//!   limit, the fast (≤5 s) OOB power brake halts all GPUs before the
//!   10 s UPS deadline — POLCA's thresholds are chosen so this (almost)
//!   never fires. Every policy sits behind the same brake net, which
//!   engages at the limit and releases at `brake_release_frac`, and a
//!   braked server runs at its GPU's brake clock (Table 5's brake row).
//! * **Trained thresholds.** [`thresholds::ThresholdTrainer`] derives
//!   T1/T2 from a historical trace: T2 absorbs the maximum power spike
//!   within the 40 s OOB capping latency (Table 4: 11.8 %).
//!
//! Baselines from §6.6 — `1-Thresh-Low-Pri`, `1-Thresh-All`, `No-cap` —
//! are in [`controller`], beside POLCA, and share its brake net and
//! transition trace with the §6.7 [`selective`] extension; each clock
//! any of them locks is read from Table 5's [`policy::PowerMode`].
//! [`experiment`] drives the full evaluation (Figures 13–18, Table 6).
//!
//! # Examples
//!
//! ```
//! use polca::{OversubscriptionStudy, PolicyKind};
//!
//! let mut study = OversubscriptionStudy::quick_demo(42);
//! let outcome = study.run(PolicyKind::Polca, 0.30, 1.0);
//! assert_eq!(outcome.brake_engagements, 0);
//! ```

pub mod controller;
pub mod cost;
pub mod disaggregation;
pub mod experiment;
pub mod policy;
pub mod selective;
pub mod slo;
pub mod sweep;
pub mod thresholds;

pub use controller::{NoCapController, PolcaController, SingleThresholdController};
pub use cost::{CostModel, OversubscriptionValue};
pub use disaggregation::{Disaggregation, DisaggregationConfig};
pub use experiment::{OversubscriptionStudy, PolicyKind, PolicyOutcome};
pub use policy::{PolcaPolicy, PowerMode};
pub use selective::SelectiveController;
pub use slo::{SloQuantile, SloReport, SloTargets, SloViolation};
pub use thresholds::ThresholdTrainer;
