//! Analytical datacenter GPU model.
//!
//! The paper characterizes LLM power behaviour on NVIDIA A100 GPUs using
//! the in-band knobs `nvidia-smi` exposes (frequency locking, power
//! capping) and the out-of-band SMBPBI knobs (frequency/power capping and
//! the power brake). This crate substitutes the physical GPU with an
//! analytical model that reproduces the *relationships* those experiments
//! measure:
//!
//! * [`GpuSpec`] — device constants (TDP, clock range, memory bandwidth,
//!   peak tensor throughput) for A100-40GB, A100-80GB and H100, the
//!   per-GPU power law ([`GpuSpec::power_watts`]) and the brake > lock >
//!   ceiling > max clock rule ([`GpuSpec::clock_mhz`]),
//! * [`ServerSpec`] — the GPU server around them (DGX-A100, DGX-H100):
//!   the Figure 3 provisioning breakdown and the one server power model
//!   both serving engines and every analytical figure use
//!   ([`ServerSpec::power_watts`]: the deployment's GPUs at an
//!   intensity, spare GPUs idle, the chassis on top), with
//!   [`HOT_IDLE_INTENSITY`] for a server with its model loaded and no
//!   request,
//! * [`DvfsModel`] — power ∝ `clock_ratio^α` scaling and roofline-style
//!   performance slowdown `c/r + (1 − c)` for a phase with compute
//!   fraction `c` (this produces the paper's superlinear
//!   power-vs-performance trade-off, Insight 7),
//! * [`Gpu`] — a stateful device with frequency locking, a *reactive*
//!   power-cap controller (spikes escape it; Figure 9b), and the power
//!   brake (288 MHz, Table 5),
//! * [`counters`] — DCGM-style performance counter samples whose phase
//!   correlations regenerate Figure 7.
//!
//! # Examples
//!
//! ```
//! use polca_gpu::{Gpu, GpuSpec};
//!
//! let mut gpu = Gpu::new(GpuSpec::a100_80gb());
//! // An uncontrolled prompt phase spikes above TDP:
//! let p = gpu.advance(0.1, 1.0);
//! assert!(p > gpu.spec().tdp_watts);
//! // Locking the clock to 1.1 GHz reclaims ~20 % of peak power:
//! gpu.lock_clock(1110.0).unwrap();
//! let p = gpu.advance(0.1, 1.0);
//! assert!(p < 0.87 * gpu.spec().tdp_watts);
//! ```

pub mod capping;
pub mod counters;
pub mod device;
pub mod dvfs;
pub mod server_spec;
pub mod spec;

pub use capping::CapController;
pub use counters::{CounterSample, PhaseKind};
pub use device::{ClockError, Gpu, PowerCapError};
pub use dvfs::DvfsModel;
pub use server_spec::{ServerSpec, HOT_IDLE_INTENSITY};
pub use spec::GpuSpec;
