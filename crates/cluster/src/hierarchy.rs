//! The datacenter power-distribution hierarchy of Figure 2.
//!
//! "A datacenter floor plan is generally built around the power
//! distribution hierarchy... power distribution units (PDUs) power rows
//! of racks. GPU servers are deployed within each rack, and several
//! racks make a row" (§2). POLCA aggregates at the PDU/row breaker; the
//! site simulator carries the same hierarchy up to datacenters and a
//! site bus.

use std::ops::Range;

/// One level's budget knobs: an absolute override in watts, and an
/// oversubscription fraction `f` (the paper's framing: `f` more servers
/// deployed under the same breaker).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Budget {
    watts: Option<f64>,
    oversubscription: Option<f64>,
}

impl Budget {
    /// The budget of a level provisioned at `provisioned` watts: the
    /// override if set, else `provisioned / (1 + f)`, else provisioned.
    fn of(&self, provisioned: f64) -> f64 {
        self.watts.unwrap_or_else(|| {
            self.oversubscription
                .map_or(provisioned, |f| provisioned / (1.0 + f))
        })
    }
}

/// Sums `watts` in order from zero, exactly as accumulating each entry
/// into a zeroed total would.
fn sum_in_order(watts: &[f64]) -> f64 {
    watts.iter().fold(0.0, |total, &w| total + w)
}

/// A site's power-distribution topology: `datacenters` identical
/// datacenters of rows grouped behind PDUs, fed by one site bus (a
/// utility substation in the 100 MW-scale deployments of the related
/// provisioning work). A single datacenter is
/// `SiteHierarchy::uniform(1, rows, rows_per_pdu, watts)`. The site
/// simulator consults it at every aggregation boundary.
///
/// Rows and PDUs carry *global* indices — datacenter `d` owns rows
/// `d * rows_per_datacenter ..` and PDUs `d * pdus_per_datacenter ..` —
/// so per-row power vectors, event labels, and artifact directories
/// stay flat.
///
/// Every level's budget follows one rule: an absolute override wins,
/// else a datacenter or site oversubscription fraction `f` gives
/// `provisioned / (1 + f)`, else the budget is the provisioned power of
/// the rows beneath it.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteHierarchy {
    datacenters: usize,
    rows_per_datacenter: usize,
    rows_per_pdu: usize,
    row_provisioned_watts: f64,
    pdu: Budget,
    datacenter: Budget,
    site: Budget,
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
        assert!(rows_per_datacenter > 0, "a datacenter needs a row");
        assert!(rows_per_pdu > 0, "a PDU must feed at least one row");
        SiteHierarchy {
            datacenters,
            rows_per_datacenter,
            rows_per_pdu,
            row_provisioned_watts,
            pdu: Budget::default(),
            datacenter: Budget::default(),
            site: Budget::default(),
        }
    }

    /// Overrides every PDU's budget with `watts`.
    pub fn with_pdu_budget(mut self, watts: f64) -> Self {
        self.pdu.watts = Some(watts);
        self
    }

    /// Overrides every datacenter's budget with `watts`.
    pub fn with_datacenter_budget(mut self, watts: f64) -> Self {
        self.datacenter.watts = Some(watts);
        self
    }

    /// Oversubscribes every datacenter bus by fraction `f`: its budget
    /// becomes `provisioned / (1 + f)`. Ignored when an absolute
    /// datacenter override is also set.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative.
    pub fn with_datacenter_oversubscription(mut self, f: f64) -> Self {
        assert!(f >= 0.0, "oversubscription fraction must be non-negative");
        self.datacenter.oversubscription = Some(f);
        self
    }

    /// Overrides the site-level budget with `watts`.
    pub fn with_site_budget(mut self, watts: f64) -> Self {
        self.site.watts = Some(watts);
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
        self.site.oversubscription = Some(f);
        self
    }

    /// Number of datacenters on the site bus.
    pub fn n_datacenters(&self) -> usize {
        self.datacenters
    }

    /// Rows per datacenter.
    pub fn rows_per_datacenter(&self) -> usize {
        self.rows_per_datacenter
    }

    /// Total rows across the site.
    pub fn n_rows(&self) -> usize {
        self.datacenters * self.rows_per_datacenter
    }

    /// PDUs per datacenter (the last one may feed fewer rows).
    pub fn pdus_per_datacenter(&self) -> usize {
        self.rows_per_datacenter.div_ceil(self.rows_per_pdu)
    }

    /// Total PDUs across the site.
    pub fn n_pdus(&self) -> usize {
        self.datacenters * self.pdus_per_datacenter()
    }

    /// The datacenter owning global row index `row`.
    pub fn datacenter_of(&self, row: usize) -> usize {
        row / self.rows_per_datacenter
    }

    /// Global row indices inside datacenter `d`.
    pub fn rows_in_datacenter(&self, d: usize) -> Range<usize> {
        let start = d * self.rows_per_datacenter;
        start..start + self.rows_per_datacenter
    }

    /// The global PDU index feeding global row `row`.
    pub fn pdu_of(&self, row: usize) -> usize {
        let d = self.datacenter_of(row);
        d * self.pdus_per_datacenter() + (row - d * self.rows_per_datacenter) / self.rows_per_pdu
    }

    /// Global row indices behind global PDU `pdu`; the last PDU of a
    /// datacenter stops at the datacenter's last row.
    pub fn rows_in_pdu(&self, pdu: usize) -> Range<usize> {
        let d = pdu / self.pdus_per_datacenter();
        let start = (pdu % self.pdus_per_datacenter()) * self.rows_per_pdu;
        let end = (start + self.rows_per_pdu).min(self.rows_per_datacenter);
        let base = d * self.rows_per_datacenter;
        base + start..base + end
    }

    /// Budget of global PDU `pdu` in watts, provisioned from the rows
    /// it actually feeds.
    pub fn pdu_budget_watts(&self, pdu: usize) -> f64 {
        self.pdu
            .of(self.rows_in_pdu(pdu).len() as f64 * self.row_provisioned_watts)
    }

    /// Budget of each datacenter in watts (identical across the site).
    pub fn datacenter_budget_watts(&self) -> f64 {
        self.datacenter.of(self.datacenter_provisioned_watts())
    }

    /// Provisioned power of one datacenter, in watts.
    pub fn datacenter_provisioned_watts(&self) -> f64 {
        self.rows_per_datacenter as f64 * self.row_provisioned_watts
    }

    /// Total provisioned power of the site, in watts.
    pub fn site_provisioned_watts(&self) -> f64 {
        self.datacenters as f64 * self.datacenter_provisioned_watts()
    }

    /// The site budget in watts.
    pub fn site_budget_watts(&self) -> f64 {
        self.site.of(self.site_provisioned_watts())
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
        for dc_rows in row_watts.chunks(self.rows_per_datacenter) {
            out.extend(dc_rows.chunks(self.rows_per_pdu).map(sum_in_order));
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
        out.extend(row_watts.chunks(self.rows_per_datacenter).map(sum_in_order));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hierarchy_groups_rows_behind_pdus() {
        let h = SiteHierarchy::uniform(1, 5, 2, 1000.0);
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
        let h = SiteHierarchy::uniform(1, 4, 2, 1000.0).with_pdu_budget(1500.0);
        let watts = [900.0, 700.0, 400.0, 300.0];
        let pdus = h.pdu_powers(&watts);
        assert_eq!(pdus, vec![1600.0, 700.0]);
        assert_eq!(h.datacenter_powers(&watts), vec![2300.0]);
        assert!(pdus[0] > h.pdu_budget_watts(0) && pdus[1] <= h.pdu_budget_watts(1));
        let capped = h.with_datacenter_budget(2000.0);
        assert!(capped.datacenter_powers(&watts)[0] > capped.datacenter_budget_watts());
    }

    #[test]
    #[should_panic(expected = "one power entry per row")]
    fn hierarchy_rejects_mismatched_row_powers() {
        SiteHierarchy::uniform(1, 3, 1, 1000.0).pdu_powers(&[1.0, 2.0]);
    }

    #[test]
    fn oversubscription_fraction_derives_budgets() {
        let h = SiteHierarchy::uniform(1, 4, 2, 1000.0).with_datacenter_oversubscription(0.25);
        assert!((h.datacenter_budget_watts() - 4000.0 / 1.25).abs() < 1e-9);
        // An absolute override beats the fraction.
        let h = h.with_datacenter_budget(1234.0);
        assert_eq!(h.datacenter_budget_watts(), 1234.0);
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
    }

    #[test]
    fn site_budget_precedence_matches_lower_levels() {
        let s = SiteHierarchy::uniform(4, 2, 2, 1000.0).with_site_oversubscription(0.60);
        assert!((s.site_budget_watts() - 8000.0 / 1.60).abs() < 1e-9);
        let s = s.with_site_budget(6500.0);
        assert_eq!(s.site_budget_watts(), 6500.0);
        let s2 = SiteHierarchy::uniform(2, 2, 2, 1000.0).with_datacenter_oversubscription(1.0);
        assert_eq!(s2.datacenter_budget_watts(), 1000.0);
        let dcs = s2.datacenter_powers(&[600.0, 600.0, 100.0, 100.0]);
        assert!(dcs[0] > s2.datacenter_budget_watts() && dcs[1] <= s2.datacenter_budget_watts());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// PDU ranges tile each datacenter's rows in order, `pdu_of`
        /// inverts them, an unset PDU budget is provisioned from the
        /// rows the PDU feeds, and both roll-ups are in-order folds.
        #[test]
        fn index_maps_tile_rows_and_roll_up_in_order(
            datacenters in 1usize..5,
            rows_per_dc in 1usize..9,
            rows_per_pdu in 1usize..5,
            pool in prop::collection::vec(0.0f64..10_000.0, 32..33),
        ) {
            let s = SiteHierarchy::uniform(datacenters, rows_per_dc, rows_per_pdu, 1000.0);
            let watts = &pool[..s.n_rows()];
            let fold = |rows: Range<usize>| watts[rows].iter().fold(0.0, |t, &w| t + w).to_bits();
            let pdus = s.pdu_powers(watts);
            prop_assert_eq!(pdus.len(), s.n_pdus());
            let mut next_row = 0;
            for (pdu, pdu_watts) in pdus.iter().enumerate() {
                let rows = s.rows_in_pdu(pdu);
                prop_assert_eq!(rows.start, next_row);
                prop_assert!(rows.end > rows.start);
                prop_assert!(rows.end <= s.rows_in_datacenter(s.datacenter_of(rows.start)).end);
                prop_assert!(rows.clone().all(|row| s.pdu_of(row) == pdu));
                prop_assert_eq!(s.pdu_budget_watts(pdu), rows.len() as f64 * 1000.0);
                prop_assert_eq!(pdu_watts.to_bits(), fold(rows.clone()));
                next_row = rows.end;
            }
            prop_assert_eq!(next_row, s.n_rows());
            for (d, dc_watts) in s.datacenter_powers(watts).iter().enumerate() {
                prop_assert_eq!(dc_watts.to_bits(), fold(s.rows_in_datacenter(d)));
            }
        }
    }
}
