//! The interface catalog of Table 1 and row parameters of Table 2.

/// What a monitoring interface measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// CPU package and DRAM (RAPL).
    CpuDram,
    /// A single GPU.
    Gpu,
    /// A whole server (BMC/IPMI).
    Server,
    /// A row of racks behind one PDU.
    RowOfRacks,
}

/// Whether an interface is reachable from inside the VM (in-band) or only
/// from the management plane (out-of-band).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// In-band: requires GPU driver / guest access; fast.
    InBand,
    /// Out-of-band: management controller path; slow but always available
    /// to the provider.
    OutOfBand,
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorInterface {
    /// Interface name.
    pub name: &'static str,
    /// What it measures.
    pub granularity: Granularity,
    /// In-band or out-of-band.
    pub path: Path,
    /// Fastest supported sampling interval in seconds.
    pub min_interval_s: f64,
    /// Slowest typical sampling interval in seconds.
    pub max_interval_s: f64,
}

impl MonitorInterface {
    /// Intel RAPL: CPU and DRAM power, in-band, 1–10 ms.
    pub const fn rapl() -> Self {
        MonitorInterface {
            name: "RAPL",
            granularity: Granularity::CpuDram,
            path: Path::InBand,
            min_interval_s: 0.001,
            max_interval_s: 0.010,
        }
    }

    /// NVIDIA DCGM: per-GPU counters, in-band, 100 ms+.
    pub const fn dcgm() -> Self {
        MonitorInterface {
            name: "DCGM",
            granularity: Granularity::Gpu,
            path: Path::InBand,
            min_interval_s: 0.1,
            max_interval_s: 1.0,
        }
    }

    /// NVIDIA SMBPBI: per-GPU power OOB, 5 s+ ("quite slow in practice").
    pub const fn smbpbi() -> Self {
        MonitorInterface {
            name: "SMBPBI",
            granularity: Granularity::Gpu,
            path: Path::OutOfBand,
            min_interval_s: 5.0,
            max_interval_s: 10.0,
        }
    }

    /// IPMI: server power via the BMC, OOB, 1–5 s.
    pub const fn ipmi() -> Self {
        MonitorInterface {
            name: "IPMI",
            granularity: Granularity::Server,
            path: Path::OutOfBand,
            min_interval_s: 1.0,
            max_interval_s: 5.0,
        }
    }

    /// Row manager: aggregate row power, OOB, every 2 s.
    pub const fn row_manager() -> Self {
        MonitorInterface {
            name: "Row manager",
            granularity: Granularity::RowOfRacks,
            path: Path::OutOfBand,
            min_interval_s: 2.0,
            max_interval_s: 2.0,
        }
    }

    /// All interfaces of Table 1, in table order.
    pub fn table1() -> Vec<MonitorInterface> {
        vec![
            Self::rapl(),
            Self::dcgm(),
            Self::smbpbi(),
            Self::ipmi(),
            Self::row_manager(),
        ]
    }
}

/// The row-level parameters of Table 2, which also parameterize the
/// POLCA evaluation cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct RowParameters {
    /// Servers behind the row PDU.
    pub servers: usize,
    /// Server model name.
    pub server_type: &'static str,
    /// Row power telemetry propagation delay in seconds.
    pub power_telemetry_delay_s: f64,
    /// Power brake actuation latency in seconds.
    pub power_brake_latency_s: f64,
    /// OOB frequency/power capping latency in seconds (worst case).
    pub oob_control_latency_s: f64,
}

impl Default for RowParameters {
    /// The production row of Table 2: 40 DGX-A100 servers, 2 s telemetry,
    /// 5 s brake, 40 s OOB control.
    fn default() -> Self {
        RowParameters {
            servers: 40,
            server_type: "DGX-A100",
            power_telemetry_delay_s: 2.0,
            power_brake_latency_s: 5.0,
            oob_control_latency_s: 40.0,
        }
    }
}

impl RowParameters {
    /// The UPS-imposed deadline on a power-capping response, in seconds
    /// (§3.3: "the power capping deadline required by the UPS is within
    /// 10 s").
    pub const UPS_CAPPING_DEADLINE_S: f64 = 10.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_interfaces() {
        let t = MonitorInterface::table1();
        assert_eq!(t.len(), 5);
        let names: Vec<&str> = t.iter().map(|i| i.name).collect();
        assert_eq!(names, ["RAPL", "DCGM", "SMBPBI", "IPMI", "Row manager"]);
    }

    #[test]
    fn in_band_is_faster_than_out_of_band() {
        // The paper's core telemetry constraint.
        let ib_max = MonitorInterface::table1()
            .into_iter()
            .filter(|i| i.path == Path::InBand)
            .map(|i| i.min_interval_s)
            .fold(0.0, f64::max);
        let oob_min = MonitorInterface::table1()
            .into_iter()
            .filter(|i| i.path == Path::OutOfBand)
            .map(|i| i.min_interval_s)
            .fold(f64::INFINITY, f64::min);
        assert!(ib_max < oob_min);
    }

    #[test]
    fn intervals_are_well_formed() {
        for i in MonitorInterface::table1() {
            assert!(i.min_interval_s > 0.0, "{}", i.name);
            assert!(i.min_interval_s <= i.max_interval_s, "{}", i.name);
        }
    }

    #[test]
    fn row_parameters_match_table2() {
        let p = RowParameters::default();
        assert_eq!(p.servers, 40);
        assert_eq!(p.power_telemetry_delay_s, 2.0);
        assert_eq!(p.power_brake_latency_s, 5.0);
        assert_eq!(p.oob_control_latency_s, 40.0);
    }

    #[test]
    fn oob_capping_misses_the_ups_deadline_but_brake_meets_it() {
        // §3.3/§6.2: the design tension POLCA resolves.
        let p = RowParameters::default();
        assert!(p.oob_control_latency_s > RowParameters::UPS_CAPPING_DEADLINE_S);
        assert!(p.power_brake_latency_s < RowParameters::UPS_CAPPING_DEADLINE_S);
    }
}
