//! The datacenter power-distribution hierarchy of Figure 2.
//!
//! "A datacenter floor plan is generally built around the power
//! distribution hierarchy... power distribution units (PDUs) power rows
//! of racks. GPU servers are deployed within each rack, and several
//! racks make a row" (§2). POLCA aggregates at the PDU/row breaker, but
//! rack-level views matter for placement and for validating that no
//! single rack exceeds its own breaker.

use std::ops::Range;

use crate::server::InferenceServer;

/// The fleet-level power-distribution topology: rows grouped behind
/// PDUs, PDUs feeding one datacenter bus.
///
/// This is the upper half of Figure 2 — `RackLayout` covers servers →
/// racks inside one row; `PowerHierarchy` covers rows → PDUs →
/// datacenter. The fleet simulator consults it at every aggregation
/// boundary to compute per-PDU and datacenter power, check the
/// corresponding budgets, and (when enforcement is enabled) decide
/// which rows to brake.
///
/// Budgets default to the provisioned power of the members (each PDU's
/// budget is `rows-behind-it × row_provisioned_watts`, the datacenter's
/// is the sum over all rows) and can be tightened per level in two
/// ways: an absolute override in watts, or an oversubscription
/// *fraction* `f` that derives the budget as `provisioned / (1 + f)` —
/// the paper's framing, where deploying `f` more servers under the same
/// breaker is equivalent to shrinking the per-server budget headroom.
/// An absolute override wins over a fraction when both are set.
///
/// A multi-datacenter site adds one more level on top; see
/// [`SiteHierarchy`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerHierarchy {
    n_rows: usize,
    rows_per_pdu: usize,
    row_provisioned_watts: f64,
    pdu_budget_override: Option<f64>,
    datacenter_budget_override: Option<f64>,
    pdu_oversubscription: Option<f64>,
    datacenter_oversubscription: Option<f64>,
}

impl PowerHierarchy {
    /// A hierarchy of `n_rows` rows, `rows_per_pdu` behind each PDU,
    /// with budgets at every level equal to provisioned power.
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` or `rows_per_pdu` is zero.
    pub fn provisioned(n_rows: usize, rows_per_pdu: usize, row_provisioned_watts: f64) -> Self {
        assert!(n_rows > 0, "a fleet needs at least one row");
        assert!(rows_per_pdu > 0, "a PDU must feed at least one row");
        PowerHierarchy {
            n_rows,
            rows_per_pdu,
            row_provisioned_watts,
            pdu_budget_override: None,
            datacenter_budget_override: None,
            pdu_oversubscription: None,
            datacenter_oversubscription: None,
        }
    }

    /// Overrides every PDU's budget with `watts` (oversubscription at
    /// the PDU breaker).
    pub fn with_pdu_budget(mut self, watts: f64) -> Self {
        self.pdu_budget_override = Some(watts);
        self
    }

    /// Overrides the datacenter-level budget with `watts`.
    pub fn with_datacenter_budget(mut self, watts: f64) -> Self {
        self.datacenter_budget_override = Some(watts);
        self
    }

    /// Oversubscribes every PDU breaker by fraction `f`: budget becomes
    /// `provisioned / (1 + f)`. Ignored when an absolute PDU override
    /// is also set.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative.
    pub fn with_pdu_oversubscription(mut self, f: f64) -> Self {
        assert!(f >= 0.0, "oversubscription fraction must be non-negative");
        self.pdu_oversubscription = Some(f);
        self
    }

    /// Oversubscribes the datacenter bus by fraction `f`: budget
    /// becomes `provisioned / (1 + f)`. Ignored when an absolute
    /// datacenter override is also set.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative.
    pub fn with_datacenter_oversubscription(mut self, f: f64) -> Self {
        assert!(f >= 0.0, "oversubscription fraction must be non-negative");
        self.datacenter_oversubscription = Some(f);
        self
    }

    /// Number of rows in the fleet.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total provisioned power of every row, in watts.
    pub fn provisioned_watts(&self) -> f64 {
        self.n_rows as f64 * self.row_provisioned_watts
    }

    /// Number of PDUs (the last one may feed fewer rows).
    pub fn n_pdus(&self) -> usize {
        self.n_rows.div_ceil(self.rows_per_pdu)
    }

    /// The PDU feeding `row`.
    pub fn pdu_of(&self, row: usize) -> usize {
        row / self.rows_per_pdu
    }

    /// The row indices behind PDU `pdu`.
    pub fn rows_in_pdu(&self, pdu: usize) -> Range<usize> {
        let start = pdu * self.rows_per_pdu;
        start..((start + self.rows_per_pdu).min(self.n_rows))
    }

    /// Budget of PDU `pdu` in watts: the absolute override if set, else
    /// the oversubscription-derived budget, else the provisioned power
    /// of the rows it actually feeds.
    pub fn pdu_budget_watts(&self, pdu: usize) -> f64 {
        let provisioned = self.rows_in_pdu(pdu).len() as f64 * self.row_provisioned_watts;
        self.pdu_budget_override.unwrap_or_else(|| {
            self.pdu_oversubscription
                .map_or(provisioned, |f| provisioned / (1.0 + f))
        })
    }

    /// The datacenter budget in watts: the absolute override if set,
    /// else the oversubscription-derived budget, else the provisioned
    /// power of every row.
    pub fn datacenter_budget_watts(&self) -> f64 {
        let provisioned = self.provisioned_watts();
        self.datacenter_budget_override.unwrap_or_else(|| {
            self.datacenter_oversubscription
                .map_or(provisioned, |f| provisioned / (1.0 + f))
        })
    }

    /// Per-PDU aggregate power for the given per-row powers.
    ///
    /// # Panics
    ///
    /// Panics if `row_watts` does not hold exactly one entry per row.
    pub fn pdu_powers(&self, row_watts: &[f64]) -> Vec<f64> {
        assert_eq!(row_watts.len(), self.n_rows, "one power entry per row");
        let mut powers = vec![0.0; self.n_pdus()];
        for (row, &w) in row_watts.iter().enumerate() {
            powers[self.pdu_of(row)] += w;
        }
        powers
    }

    /// Total datacenter power for the given per-row powers.
    pub fn datacenter_power(&self, row_watts: &[f64]) -> f64 {
        row_watts.iter().sum()
    }

    /// Indices of PDUs whose aggregate power exceeds their budget.
    pub fn overloaded_pdus(&self, row_watts: &[f64]) -> Vec<usize> {
        self.pdu_powers(row_watts)
            .into_iter()
            .enumerate()
            .filter(|&(pdu, p)| p > self.pdu_budget_watts(pdu))
            .map(|(pdu, _)| pdu)
            .collect()
    }
}

/// Sums `watts` in order from zero, exactly as accumulating each entry
/// into a zeroed total would.
fn sum_in_order(watts: &[f64]) -> f64 {
    watts.iter().fold(0.0, |total, &w| total + w)
}

/// A multi-datacenter site: `datacenters` identical copies of one
/// [`PowerHierarchy`] fed by a single site bus (a utility substation in
/// the 100 MW-scale deployments of the related provisioning work).
///
/// Rows and PDUs carry *global* indices — datacenter `d` owns rows
/// `d * rows_per_datacenter ..` and PDUs `d * pdus_per_datacenter ..` —
/// so per-row power vectors, event labels, and artifact directories
/// stay flat and a 1-datacenter site degenerates exactly to the
/// underlying hierarchy.
///
/// The site budget follows the same precedence as the lower levels:
/// absolute override, else `provisioned / (1 + oversubscription)`,
/// else provisioned.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteHierarchy {
    datacenters: usize,
    per_dc: PowerHierarchy,
    site_budget_override: Option<f64>,
    site_oversubscription: Option<f64>,
}

impl SiteHierarchy {
    /// A site of `datacenters` identical datacenters, each holding
    /// `rows_per_datacenter` rows grouped `rows_per_pdu` behind each
    /// PDU, with every budget equal to provisioned power.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn uniform(
        datacenters: usize,
        rows_per_datacenter: usize,
        rows_per_pdu: usize,
        row_provisioned_watts: f64,
    ) -> Self {
        assert!(datacenters > 0, "a site needs at least one datacenter");
        SiteHierarchy {
            datacenters,
            per_dc: PowerHierarchy::provisioned(
                rows_per_datacenter,
                rows_per_pdu,
                row_provisioned_watts,
            ),
            site_budget_override: None,
            site_oversubscription: None,
        }
    }

    /// Overrides every PDU's budget (see
    /// [`PowerHierarchy::with_pdu_budget`]).
    pub fn with_pdu_budget(mut self, watts: f64) -> Self {
        self.per_dc = self.per_dc.with_pdu_budget(watts);
        self
    }

    /// Overrides every datacenter's budget (see
    /// [`PowerHierarchy::with_datacenter_budget`]).
    pub fn with_datacenter_budget(mut self, watts: f64) -> Self {
        self.per_dc = self.per_dc.with_datacenter_budget(watts);
        self
    }

    /// Oversubscribes every PDU breaker by fraction `f` (see
    /// [`PowerHierarchy::with_pdu_oversubscription`]).
    pub fn with_pdu_oversubscription(mut self, f: f64) -> Self {
        self.per_dc = self.per_dc.with_pdu_oversubscription(f);
        self
    }

    /// Oversubscribes every datacenter bus by fraction `f` (see
    /// [`PowerHierarchy::with_datacenter_oversubscription`]).
    pub fn with_datacenter_oversubscription(mut self, f: f64) -> Self {
        self.per_dc = self.per_dc.with_datacenter_oversubscription(f);
        self
    }

    /// Overrides the site-level budget with `watts`.
    pub fn with_site_budget(mut self, watts: f64) -> Self {
        self.site_budget_override = Some(watts);
        self
    }

    /// Oversubscribes the site bus by fraction `f`: the site budget
    /// becomes `provisioned / (1 + f)`. Ignored when an absolute site
    /// override is also set.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative.
    pub fn with_site_oversubscription(mut self, f: f64) -> Self {
        assert!(f >= 0.0, "oversubscription fraction must be non-negative");
        self.site_oversubscription = Some(f);
        self
    }

    /// Number of datacenters on the site bus.
    pub fn n_datacenters(&self) -> usize {
        self.datacenters
    }

    /// Rows per datacenter.
    pub fn rows_per_datacenter(&self) -> usize {
        self.per_dc.n_rows()
    }

    /// Total rows across the site.
    pub fn n_rows(&self) -> usize {
        self.datacenters * self.per_dc.n_rows()
    }

    /// PDUs per datacenter.
    pub fn pdus_per_datacenter(&self) -> usize {
        self.per_dc.n_pdus()
    }

    /// Total PDUs across the site.
    pub fn n_pdus(&self) -> usize {
        self.datacenters * self.per_dc.n_pdus()
    }

    /// The single-datacenter hierarchy template every datacenter uses.
    pub fn datacenter(&self) -> &PowerHierarchy {
        &self.per_dc
    }

    /// The datacenter owning global row index `row`.
    pub fn datacenter_of(&self, row: usize) -> usize {
        row / self.per_dc.n_rows()
    }

    /// Global row indices inside datacenter `d`.
    pub fn rows_in_datacenter(&self, d: usize) -> Range<usize> {
        let start = d * self.per_dc.n_rows();
        start..start + self.per_dc.n_rows()
    }

    /// The global PDU index feeding global row `row`.
    pub fn pdu_of(&self, row: usize) -> usize {
        let d = self.datacenter_of(row);
        d * self.per_dc.n_pdus() + self.per_dc.pdu_of(row - d * self.per_dc.n_rows())
    }

    /// Global row indices behind global PDU `pdu`.
    pub fn rows_in_pdu(&self, pdu: usize) -> Range<usize> {
        let d = pdu / self.per_dc.n_pdus();
        let local = self.per_dc.rows_in_pdu(pdu % self.per_dc.n_pdus());
        let base = d * self.per_dc.n_rows();
        base + local.start..base + local.end
    }

    /// Budget of global PDU `pdu` in watts.
    pub fn pdu_budget_watts(&self, pdu: usize) -> f64 {
        self.per_dc.pdu_budget_watts(pdu % self.per_dc.n_pdus())
    }

    /// Budget of each datacenter in watts (identical across the site).
    pub fn datacenter_budget_watts(&self) -> f64 {
        self.per_dc.datacenter_budget_watts()
    }

    /// Provisioned power of one datacenter, in watts.
    pub fn datacenter_provisioned_watts(&self) -> f64 {
        self.per_dc.provisioned_watts()
    }

    /// Total provisioned power of the site, in watts.
    pub fn site_provisioned_watts(&self) -> f64 {
        self.datacenters as f64 * self.per_dc.provisioned_watts()
    }

    /// The site budget in watts: the absolute override if set, else the
    /// oversubscription-derived budget, else provisioned power.
    pub fn site_budget_watts(&self) -> f64 {
        let provisioned = self.site_provisioned_watts();
        self.site_budget_override.unwrap_or_else(|| {
            self.site_oversubscription
                .map_or(provisioned, |f| provisioned / (1.0 + f))
        })
    }

    /// Per-PDU aggregate power (global PDU order) for the given per-row
    /// powers.
    ///
    /// # Panics
    ///
    /// Panics if `row_watts` does not hold exactly one entry per row.
    pub fn pdu_powers(&self, row_watts: &[f64]) -> Vec<f64> {
        let mut powers = Vec::new();
        self.write_pdu_powers(row_watts, &mut powers);
        powers
    }

    /// [`pdu_powers`](Self::pdu_powers) into a caller-owned buffer,
    /// which it overwrites (no allocation once `out` has capacity).
    ///
    /// # Panics
    ///
    /// Panics if `row_watts` does not hold exactly one entry per row.
    pub(crate) fn write_pdu_powers(&self, row_watts: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row_watts.len(), self.n_rows(), "one power entry per row");
        out.clear();
        // Rows run contiguously within PDUs and PDUs within
        // datacenters, so each PDU sums a run of rows in row order.
        for dc_rows in row_watts.chunks(self.per_dc.n_rows) {
            out.extend(dc_rows.chunks(self.per_dc.rows_per_pdu).map(sum_in_order));
        }
    }

    /// Per-datacenter aggregate power for the given per-row powers.
    ///
    /// # Panics
    ///
    /// Panics if `row_watts` does not hold exactly one entry per row.
    pub fn datacenter_powers(&self, row_watts: &[f64]) -> Vec<f64> {
        let mut powers = Vec::new();
        self.write_datacenter_powers(row_watts, &mut powers);
        powers
    }

    /// [`datacenter_powers`](Self::datacenter_powers) into a
    /// caller-owned buffer, which it overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `row_watts` does not hold exactly one entry per row.
    pub(crate) fn write_datacenter_powers(&self, row_watts: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row_watts.len(), self.n_rows(), "one power entry per row");
        out.clear();
        out.extend(row_watts.chunks(self.per_dc.n_rows).map(sum_in_order));
    }

    /// Total site power for the given per-row powers.
    pub fn site_power(&self, row_watts: &[f64]) -> f64 {
        row_watts.iter().sum()
    }

    /// Indices of datacenters whose aggregate power exceeds the
    /// datacenter budget.
    pub fn overloaded_datacenters(&self, row_watts: &[f64]) -> Vec<usize> {
        let budget = self.datacenter_budget_watts();
        self.datacenter_powers(row_watts)
            .into_iter()
            .enumerate()
            .filter(|&(_, p)| p > budget)
            .map(|(d, _)| d)
            .collect()
    }
}

/// Physical layout of a row: servers grouped into racks behind one PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackLayout {
    servers_per_rack: usize,
}

impl RackLayout {
    /// Creates a layout with the given rack capacity.
    ///
    /// # Panics
    ///
    /// Panics if `servers_per_rack` is zero.
    pub fn new(servers_per_rack: usize) -> Self {
        assert!(servers_per_rack > 0, "racks must hold at least one server");
        RackLayout { servers_per_rack }
    }

    /// A typical GPU row: 4 DGX-A100 (6U each) per 48U rack, leaving
    /// space for switches (§6.7: "both GPU servers and racks are power
    /// dense").
    pub fn dgx_row() -> Self {
        Self::new(4)
    }

    /// Servers per rack.
    pub fn servers_per_rack(&self) -> usize {
        self.servers_per_rack
    }

    /// The rack index hosting `server_id`.
    pub fn rack_of(&self, server_id: usize) -> usize {
        server_id / self.servers_per_rack
    }

    /// Number of racks needed for `n_servers`.
    pub fn racks_for(&self, n_servers: usize) -> usize {
        n_servers.div_ceil(self.servers_per_rack)
    }

    /// Instantaneous power per rack, in watts, for the given servers
    /// (indexed by id).
    pub fn rack_powers(&self, servers: &[InferenceServer]) -> Vec<f64> {
        let mut powers = vec![0.0; self.racks_for(servers.len())];
        for server in servers {
            powers[self.rack_of(server.id())] += server.power_watts();
        }
        powers
    }

    /// The rack-level power budget implied by a row budget spread evenly
    /// over the racks serving `n_servers`.
    pub fn rack_budget_watts(&self, row_budget_watts: f64, n_servers: usize) -> f64 {
        row_budget_watts / self.racks_for(n_servers) as f64
    }

    /// Whether any rack exceeds its budget for the given servers.
    pub fn overloaded_racks(
        &self,
        servers: &[InferenceServer],
        row_budget_watts: f64,
    ) -> Vec<usize> {
        let budget = self.rack_budget_watts(row_budget_watts, servers.len());
        self.rack_powers(servers)
            .into_iter()
            .enumerate()
            .filter(|(_, p)| *p > budget)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Default for RackLayout {
    fn default() -> Self {
        Self::dgx_row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::RowConfig;

    fn servers(n: usize) -> Vec<InferenceServer> {
        let mut row = RowConfig::paper_inference_row();
        row.base_servers = n;
        row.build_servers()
    }

    #[test]
    fn hierarchy_groups_rows_behind_pdus() {
        let h = PowerHierarchy::provisioned(5, 2, 1000.0);
        assert_eq!(h.n_rows(), 5);
        assert_eq!(h.n_pdus(), 3);
        assert_eq!(h.pdu_of(0), 0);
        assert_eq!(h.pdu_of(3), 1);
        assert_eq!(h.pdu_of(4), 2);
        assert_eq!(h.rows_in_pdu(0), 0..2);
        assert_eq!(h.rows_in_pdu(2), 4..5); // partial PDU
        assert_eq!(h.pdu_budget_watts(0), 2000.0);
        assert_eq!(h.pdu_budget_watts(2), 1000.0);
        assert_eq!(h.datacenter_budget_watts(), 5000.0);
    }

    #[test]
    fn hierarchy_aggregates_and_flags_overloads() {
        let h = PowerHierarchy::provisioned(4, 2, 1000.0).with_pdu_budget(1500.0);
        let watts = [900.0, 700.0, 400.0, 300.0];
        assert_eq!(h.pdu_powers(&watts), vec![1600.0, 700.0]);
        assert_eq!(h.datacenter_power(&watts), 2300.0);
        assert_eq!(h.overloaded_pdus(&watts), vec![0]);
        let capped = h.with_datacenter_budget(2000.0);
        assert!(capped.datacenter_power(&watts) > capped.datacenter_budget_watts());
    }

    #[test]
    #[should_panic(expected = "one power entry per row")]
    fn hierarchy_rejects_mismatched_row_powers() {
        PowerHierarchy::provisioned(3, 1, 1000.0).pdu_powers(&[1.0, 2.0]);
    }

    #[test]
    fn dgx_row_packs_four_per_rack() {
        let layout = RackLayout::dgx_row();
        assert_eq!(layout.servers_per_rack(), 4);
        assert_eq!(layout.rack_of(0), 0);
        assert_eq!(layout.rack_of(3), 0);
        assert_eq!(layout.rack_of(4), 1);
        assert_eq!(layout.racks_for(40), 10);
        assert_eq!(layout.racks_for(41), 11);
    }

    #[test]
    fn rack_powers_sum_to_row_power() {
        let servers = servers(10);
        let layout = RackLayout::dgx_row();
        let total: f64 = layout.rack_powers(&servers).iter().sum();
        let direct: f64 = servers.iter().map(InferenceServer::power_watts).sum();
        assert!((total - direct).abs() < 1e-6);
        assert_eq!(layout.rack_powers(&servers).len(), 3);
    }

    #[test]
    fn idle_row_has_no_overloaded_racks() {
        let servers = servers(8);
        let layout = RackLayout::dgx_row();
        let row_budget = 8.0 * 5450.0 * 1.05;
        assert!(layout.overloaded_racks(&servers, row_budget).is_empty());
    }

    #[test]
    fn tiny_budget_flags_every_rack() {
        let servers = servers(8);
        let layout = RackLayout::dgx_row();
        let overloaded = layout.overloaded_racks(&servers, 1000.0);
        assert_eq!(overloaded, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_rejected() {
        let _ = RackLayout::new(0);
    }

    #[test]
    fn oversubscription_fraction_derives_budgets() {
        let h = PowerHierarchy::provisioned(4, 2, 1000.0)
            .with_pdu_oversubscription(0.30)
            .with_datacenter_oversubscription(0.25);
        assert!((h.pdu_budget_watts(0) - 2000.0 / 1.30).abs() < 1e-9);
        assert!((h.datacenter_budget_watts() - 4000.0 / 1.25).abs() < 1e-9);
        // An absolute override beats the fraction.
        let h = h.with_pdu_budget(1234.0);
        assert_eq!(h.pdu_budget_watts(1), 1234.0);
    }

    #[test]
    fn site_hierarchy_uses_global_indices() {
        // 3 datacenters × 5 rows (2 per PDU → 3 PDUs each, last partial).
        let s = SiteHierarchy::uniform(3, 5, 2, 1000.0);
        assert_eq!(s.n_rows(), 15);
        assert_eq!(s.n_pdus(), 9);
        assert_eq!(s.datacenter_of(4), 0);
        assert_eq!(s.datacenter_of(5), 1);
        assert_eq!(s.rows_in_datacenter(1), 5..10);
        // Row 7 is local row 2 of datacenter 1 → local PDU 1 → global 4.
        assert_eq!(s.pdu_of(7), 4);
        assert_eq!(s.rows_in_pdu(4), 7..9);
        // Partial PDU of datacenter 2: local PDU 2 → global 8, one row.
        assert_eq!(s.rows_in_pdu(8), 14..15);
        assert_eq!(s.pdu_budget_watts(8), 1000.0);
        assert_eq!(s.datacenter_budget_watts(), 5000.0);
        assert_eq!(s.site_budget_watts(), 15_000.0);
    }

    #[test]
    fn site_levels_aggregate_consistently() {
        // Child sums must equal the parent reading at every level: the
        // invariant the budget-violation proptest leans on.
        let s = SiteHierarchy::uniform(2, 3, 2, 1000.0);
        let watts: Vec<f64> = (0..6).map(|i| 100.0 * (i + 1) as f64).collect();
        let pdus = s.pdu_powers(&watts);
        let dcs = s.datacenter_powers(&watts);
        assert_eq!(pdus, vec![300.0, 300.0, 900.0, 600.0]);
        assert_eq!(dcs, vec![600.0, 1500.0]);
        for (d, dc_watts) in dcs.iter().enumerate() {
            let from_pdus: f64 = (0..s.n_pdus())
                .filter(|&p| p / s.pdus_per_datacenter() == d)
                .map(|p| pdus[p])
                .sum();
            assert!((from_pdus - dc_watts).abs() < 1e-9);
        }
        assert!((s.site_power(&watts) - dcs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn site_budget_precedence_matches_lower_levels() {
        let s = SiteHierarchy::uniform(4, 2, 2, 1000.0).with_site_oversubscription(0.60);
        assert!((s.site_budget_watts() - 8000.0 / 1.60).abs() < 1e-9);
        let s = s.with_site_budget(6500.0);
        assert_eq!(s.site_budget_watts(), 6500.0);
        let s2 = SiteHierarchy::uniform(2, 2, 2, 1000.0).with_datacenter_oversubscription(1.0);
        assert_eq!(s2.datacenter_budget_watts(), 1000.0);
        assert_eq!(
            s2.overloaded_datacenters(&[600.0, 600.0, 100.0, 100.0]),
            [0]
        );
    }
}
