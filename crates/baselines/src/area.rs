//! Array-overhead comparison (§5.2, Fig. 9).
//!
//! The costs are expressed in *row-equivalents per open-bitline subarray
//! pair* (two facing 512-row subarrays sharing sense amplifiers):
//!
//! * **Ambit** — the B-group's 6 logical rows occupy 8 physical rows
//!   (two dual-contact pairs) and halve the cell density of their region
//!   (Fig. 9(b): "half of the allocated region will be empty"), costing
//!   16 row-equivalents, plus the 2-row C-group: 18 total.
//! * **ELP2IM** — one dual-contact row (2 physical rows) on each side of
//!   the open-bitline pair, the per-bitline isolation transistor
//!   (~0.8 % of the array, \[31\]), and the split-EQ metal rework: ~14
//!   row-equivalents, i.e. **22 % less than Ambit** (§5.2).
//! * **DRISA-NOR** — no reserved rows, but +24 % die area for gates and
//!   latches (≈123 row-equivalents per 512-row pair).

use crate::drisa::DRISA_AREA_OVERHEAD;

/// Rows per subarray used for the normalization.
pub const ROWS_PER_SUBARRAY: usize = 512;

/// Designs compared by the overhead analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Unmodified commodity DRAM.
    RegularDram,
    /// Ambit with the full B-group + C-group.
    Ambit,
    /// ELP2IM with one reserved dual-contact row.
    Elp2im,
    /// DRISA 1T1C-NOR.
    DrisaNor,
}

impl Design {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Design::RegularDram => "DRAM",
            Design::Ambit => "Ambit",
            Design::Elp2im => "ELP2IM",
            Design::DrisaNor => "Drisa_nor",
        }
    }
}

/// Reserved rows visible to software (Fig. 13(c)/14(c)).
pub fn reserved_rows(design: Design) -> usize {
    match design {
        Design::RegularDram => 0,
        Design::Ambit => 8,
        Design::Elp2im => 1,
        Design::DrisaNor => 0,
    }
}

/// Array overhead in row-equivalents per open-bitline subarray pair.
pub fn array_overhead_rows(design: Design) -> f64 {
    match design {
        Design::RegularDram => 0.0,
        // 8 physical B-group rows at half density (16) + 2 C-group rows.
        Design::Ambit => 16.0 + 2.0,
        // One DCC row (2 physical) per side (4) + isolation transistors
        // (0.8 % of 2 × 512 rows ≈ 8.2) + split-EQ rework (~1.8).
        Design::Elp2im => 4.0 + 0.008 * (2.0 * ROWS_PER_SUBARRAY as f64) + 1.8,
        // +24 % of the 2 × 512-row pair.
        Design::DrisaNor => DRISA_AREA_OVERHEAD * 2.0 * ROWS_PER_SUBARRAY as f64,
    }
}

/// Fractional overhead relative to the subarray pair's cell area.
pub fn relative_overhead(design: Design) -> f64 {
    array_overhead_rows(design) / (2.0 * ROWS_PER_SUBARRAY as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §5.2: "the total array overhead of ELP2IM is still 22 % less than
    /// Ambit under open-bitline architecture."
    #[test]
    fn elp2im_is_about_22_percent_below_ambit() {
        let ratio = array_overhead_rows(Design::Elp2im) / array_overhead_rows(Design::Ambit);
        assert!(
            (0.74..=0.82).contains(&ratio),
            "ELP2IM/Ambit overhead ratio = {ratio:.3} (expect ~0.78)"
        );
    }

    #[test]
    fn drisa_has_the_largest_area_overhead() {
        assert!(array_overhead_rows(Design::DrisaNor) > array_overhead_rows(Design::Ambit));
        assert!((relative_overhead(Design::DrisaNor) - 0.24).abs() < 1e-9);
    }

    #[test]
    fn reserved_row_counts_match_fig13_and_fig14() {
        assert_eq!(reserved_rows(Design::Ambit), 8);
        assert_eq!(reserved_rows(Design::Elp2im), 1);
        assert_eq!(reserved_rows(Design::DrisaNor), 0);
        assert_eq!(reserved_rows(Design::RegularDram), 0);
    }

    #[test]
    fn regular_dram_has_zero_overhead() {
        assert_eq!(array_overhead_rows(Design::RegularDram), 0.0);
        assert_eq!(relative_overhead(Design::RegularDram), 0.0);
    }
}
