//! Wall-clock measurement primitives for `perfbench`: warmup + median-of-N
//! with `std::time::Instant`, no external dependencies. Simulated times stay
//! deterministic; wall time is what these helpers pin down.

use crate::json::Json;
use std::time::Instant;

/// One BENCH.json entry.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Unique scenario name (`micro/…` for operator microbenches).
    pub scenario: String,
    /// Median wall-clock nanoseconds per run.
    pub wall_ns: u128,
    /// Simulated seconds of the run (Table 1 cost model); 0 when the
    /// scenario has no simulated-time meaning (pure host microbenches).
    pub simulated_s: f64,
    /// Logical operations performed (result rows, ids processed…).
    pub ops: u64,
    /// Flash bytes moved through the data register (read + write side).
    pub bytes_io: u64,
    /// Closed-loop per-query latency percentiles in nanoseconds, as
    /// `(p50, p95, p99)` — present on `serve/…` scenarios (where the unit
    /// of interest is one query's submit→outcome latency under load, not
    /// the whole run), absent everywhere else.
    pub percentiles: Option<(u128, u128, u128)>,
}

impl BenchEntry {
    /// The JSON object for this entry.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("wall_ns".into(), Json::Num(self.wall_ns as f64)),
            ("simulated_s".into(), Json::Num(self.simulated_s)),
            ("ops".into(), Json::Num(self.ops as f64)),
            ("bytes_io".into(), Json::Num(self.bytes_io as f64)),
        ];
        if let Some((p50, p95, p99)) = self.percentiles {
            fields.push(("p50_ns".into(), Json::Num(p50 as f64)));
            fields.push(("p95_ns".into(), Json::Num(p95 as f64)));
            fields.push(("p99_ns".into(), Json::Num(p99 as f64)));
        }
        Json::Obj(fields)
    }
}

/// Percentile over raw latency samples by the nearest-rank method (the
/// sample at ceil(q·n), 1-indexed). Sorts a copy; panics on empty input.
pub fn percentile(samples: &[u128], q: f64) -> u128 {
    assert!(!samples.is_empty(), "no latency samples");
    assert!((0.0..=1.0).contains(&q));
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Non-timing observations one run reports back.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Simulated seconds.
    pub simulated_s: f64,
    /// Logical operations.
    pub ops: u64,
    /// Flash bytes moved.
    pub bytes_io: u64,
}

/// Run `f` `warmup` times untimed, then `iters` timed times, and build the
/// entry from the **median** wall time (robust to scheduler noise) and the
/// last run's stats (runs are deterministic, so any run's stats serve).
pub fn measure(
    scenario: impl Into<String>,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut() -> RunStats,
) -> BenchEntry {
    assert!(iters >= 1, "need at least one timed iteration");
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    let mut stats = RunStats::default();
    for _ in 0..iters {
        let t0 = Instant::now();
        stats = f();
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    BenchEntry {
        scenario: scenario.into(),
        wall_ns: times[times.len() / 2],
        simulated_s: stats.simulated_s,
        ops: stats.ops,
        bytes_io: stats.bytes_io,
        percentiles: None,
    }
}

/// Assemble the BENCH.json document.
pub fn bench_doc(mode: &str, entries: &[BenchEntry]) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(1.0)),
        ("generator".into(), Json::Str("perfbench".into())),
        ("mode".into(), Json::Str(mode.into())),
        (
            "entries".into(),
            Json::Arr(entries.iter().map(BenchEntry::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_median_and_stats() {
        let mut calls = 0u64;
        let e = measure("x", 2, 5, || {
            calls += 1;
            RunStats {
                simulated_s: 1.5,
                ops: calls,
                bytes_io: 7,
            }
        });
        assert_eq!(calls, 7, "2 warmup + 5 timed");
        assert_eq!(e.ops, 7, "stats come from the last timed run");
        assert_eq!(e.simulated_s, 1.5);
        assert_eq!(e.bytes_io, 7);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<u128> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.95), 95);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[42], 0.5), 42);
        assert_eq!(percentile(&[7, 3], 0.99), 7);
    }

    #[test]
    fn doc_validates_against_the_checker() {
        let entries: Vec<BenchEntry> = (0..12)
            .map(|i| BenchEntry {
                scenario: format!("q{i}"),
                wall_ns: 10,
                simulated_s: 0.0,
                ops: 1,
                bytes_io: 0,
                percentiles: None,
            })
            .chain([
                BenchEntry {
                    scenario: "micro/m".into(),
                    wall_ns: 10,
                    simulated_s: 0.0,
                    ops: 1,
                    bytes_io: 0,
                    percentiles: None,
                },
                BenchEntry {
                    scenario: "serve/s1".into(),
                    wall_ns: 10,
                    simulated_s: 0.0,
                    ops: 1,
                    bytes_io: 0,
                    percentiles: Some((5, 8, 9)),
                },
            ])
            .collect();
        let doc = bench_doc("smoke", &entries);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        crate::json::check_bench(&parsed).unwrap();
    }
}
