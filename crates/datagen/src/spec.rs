//! Dataset parameterisation.

use ghostdb_token::TokenConfig;

/// Parameters of the synthetic dataset (§6.2).
///
/// Paper scale is `rows_t0 = 10_000_000`; the default here is one tenth of
/// that so the full evaluation suite runs in minutes. All derived
/// cardinalities keep the paper's ratios: `|T1| = |T2| = |T0|/10`,
/// `|T11| = |T12| = |T1|/10`.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Root-table cardinality.
    pub rows_t0: u64,
    /// Visible attributes generated per table (paper stores 5; the runtime
    /// figures touch at most 2, and columnar storage makes unused columns
    /// free, so the default generates 2 — Figure 7 uses the exact size
    /// model at the full 5+5 shape).
    pub visible_attrs: usize,
    /// Hidden attributes generated per table.
    pub hidden_attrs: usize,
    /// Hidden attributes to index, as (table, column) names.
    pub indexed: Vec<(String, String)>,
    /// RNG seed (datasets are fully deterministic given the spec).
    pub seed: u64,
    /// Channel throughput (bytes/s).
    pub channel_bytes_per_sec: u64,
    /// Zipf exponent for attribute values. `None` (the paper's setting)
    /// draws each column as a uniform permutation of `0..rows`, so a
    /// predicate threshold maps to an exact selectivity. `Some(s)` draws
    /// values Zipf(s)-skewed over the same ordinal domain instead —
    /// duplicates concentrate on the small ordinals, so index sublists and
    /// Bloom inputs become heavy-headed (the workload shape uniform data
    /// never exercises).
    pub value_skew: Option<f64>,
}

impl SyntheticSpec {
    /// The evaluation configuration at a fraction of paper scale
    /// (`scale = 1.0` → T0 = 10 M tuples).
    pub fn paper(scale: f64) -> Self {
        SyntheticSpec {
            rows_t0: ((10_000_000.0 * scale) as u64).max(100),
            visible_attrs: 2,
            hidden_attrs: 2,
            indexed: vec![
                ("T12".into(), "h2".into()),
                ("T0".into(), "h1".into()),
                ("T1".into(), "h1".into()),
                ("T2".into(), "h1".into()),
            ],
            seed: 0x9e37_79b9,
            channel_bytes_per_sec: 1_500_000,
            value_skew: None,
        }
    }

    /// The evaluation configuration with Zipf(`s`)-skewed attribute values
    /// (`s` ≈ 1.2 is the classic web/reference skew).
    pub fn paper_zipf(scale: f64, s: f64) -> Self {
        let mut spec = SyntheticSpec::paper(scale);
        spec.value_skew = Some(s);
        spec.seed = 0x51ab_0f5e; // distinct stream from the uniform variant
        spec
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        let mut s = SyntheticSpec::paper(0.0002); // T0 = 2000
        s.seed = 42;
        s
    }

    /// Cardinalities in schema order (T0, T1, T2, T11, T12).
    pub fn cardinalities(&self) -> [u64; 5] {
        let t0 = self.rows_t0;
        let t1 = (t0 / 10).max(10);
        let t11 = (t1 / 10).max(4);
        [t0, t1, t1, t11, t11]
    }

    /// Token configuration sized for this dataset (§6.1 platform with
    /// enough flash for data + indexes + query temporaries).
    pub fn token_config(&self) -> TokenConfig {
        let [t0, t1, t2, t11, t12] = self.cardinalities();
        let rows_total = t0 + t1 + t2 + t11 + t12;
        // Hidden image + SKTs + climbing indexes + temp headroom, ~64 bytes
        // per tuple of conservative margin.
        let bytes = rows_total * 64 + t0 * 96 + 64 * 1024 * 1024;
        let mut config = TokenConfig::paper_platform(bytes);
        config.channel_bytes_per_sec = self.channel_bytes_per_sec;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratios() {
        let s = SyntheticSpec::paper(1.0);
        let [t0, t1, t2, t11, t12] = s.cardinalities();
        assert_eq!(t0, 10_000_000);
        assert_eq!(t1, 1_000_000);
        assert_eq!(t2, 1_000_000);
        assert_eq!(t11, 100_000);
        assert_eq!(t12, 100_000);
    }

    #[test]
    fn token_config_has_paper_ram() {
        let s = SyntheticSpec::small();
        let c = s.token_config();
        assert_eq!(c.ram_bytes, 65_536);
        assert_eq!(c.buf_size, 2_048);
    }
}
