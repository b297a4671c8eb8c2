//! Datacenter power hierarchy and discrete-event LLM cluster simulation.
//!
//! The paper's POLCA evaluation runs on "a discrete event simulator ...
//! built for a high-traffic scenario \[that\] assumes that all the servers
//! are serving inference with models loaded" (§6.4), over the power
//! hierarchy of Figure 2 (servers in PDU-fed rows, rows in
//! datacenters). This crate implements that substrate:
//!
//! * [`ServerSpec`] and [`HOT_IDLE_INTENSITY`] — re-exported from
//!   `polca-gpu`, which holds the one server power model (Figure 3's
//!   provisioning breakdown, Figure 11's GPU share) that the legacy
//!   server, the `polca-serve` engine and the training row all call,
//! * [`request`] — inference requests with the two priority classes of
//!   Table 5/6,
//! * [`server`] — the *legacy* per-server state machine used by the
//!   paper's §6.6 evaluation: one request in service plus a small
//!   buffer, prompt → token phase progression, frequency lock / power
//!   brake effects on in-flight work — and the row of such servers,
//!   which answers the simulator as the `polca-serve` crate's
//!   continuous-batching row does (iteration-level scheduling, paged
//!   KV-cache, prefill/decode pools); [`sim::EngineKind`] selects one
//!   per run,
//! * [`row`] — the row of Table 2: 40 DGX-A100 servers behind one PDU,
//!   and the priority layout both engines share,
//! * [`sim`] — the event-driven simulator: arrivals, dispatch, server
//!   wakes, 2 s row telemetry with propagation delay, OOB command
//!   delivery, and a pluggable [`sim::PowerController`]
//!   (POLCA and its baselines live in the `polca` crate), with one path
//!   per event for either serving engine. The run loop is factored into
//!   the resumable [`sim::RowSim`] engine, which supports
//!   `step_until`-style incremental execution,
//! * [`site`] — [`site::SiteSim`]: N datacenters of M rows each under a
//!   [`hierarchy::SiteHierarchy`] (per-PDU, datacenter, and site
//!   budgets), stepped by an optional scoped thread pool in epochs of
//!   telemetry windows that a power ceiling proves brake-free, with a
//!   deterministic canonical-order replay of every boundary; its
//!   default shape, one datacenter of one row, reproduces the
//!   single-row path bit for bit,
//! * [`training`] — the synchronized training-cluster power model behind
//!   Table 4's training column.
//!
//! # Examples
//!
//! ```
//! use polca_cluster::{ClusterSim, NoopController, RowConfig, SimConfig};
//!
//! let row = RowConfig::paper_inference_row();
//! let mut sim = ClusterSim::new(row, SimConfig::default(), NoopController);
//! let report = sim.run(std::iter::empty(), polca_sim::SimTime::from_secs(10.0));
//! assert_eq!(report.completed, 0);
//! ```

#![deny(missing_docs)]

pub mod hierarchy;
pub mod request;
pub mod row;
pub mod server;
pub mod sim;
pub mod site;
pub mod training;

pub use hierarchy::SiteHierarchy;
pub use polca_gpu::{ServerSpec, HOT_IDLE_INTENSITY};
pub use request::{Priority, Request};
pub use row::RowConfig;
pub use server::{InferenceServer, ServerState};
pub use sim::{
    ClusterSim, ControlRequest, ControlTarget, EngineKind, NoopController, PowerController,
    RequestSource, RowContext, RowSim, SimConfig, SimReport,
};
pub use site::{row_seed, PendingArrivals, PowerCeiling, SiteConfig, SiteReport, SiteSim};
pub use training::TrainingCluster;
