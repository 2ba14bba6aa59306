//! ghostbench — the end-to-end benchmark of the GhostDB reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/ghostbench/Cargo.toml -- \
//!     --workload <sql-mix|sql-hidden|serve-burst|ingest> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Every run uses library defaults — optimizer-chosen plans, one
//! intra-query lane, no read-ahead, unpadded shipments — so it measures
//! the shipped configuration. The last line of stdout is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). Any wrong result or failed
//! operation makes the exit code non-zero. See `README.md`.

mod ingest;
mod oracle;
mod serve;
mod sql;
mod stats;
mod trace;

use ghostdb_exec::Database;
use oracle::Prepared;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Layers, Tracer};

const USAGE: &str = "usage: ghostbench --workload <sql-mix|sql-hidden|serve-burst|ingest> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";

/// Set-up runs at least this many times per process, and until it has
/// taken [`SETUP_MIN`] in all; `setup_s` is the median. A set-up of a few
/// milliseconds (`ingest`) so runs a hundred times, which keeps its median
/// steady on a noisy host.
const SETUPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run `setup` as [`SETUPS`] and [`SETUP_MIN`] ask, keep the last result,
/// and return the median duration in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUPS || start.elapsed() < SETUP_MIN {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times);
    eprintln!(
        "ghostbench: set-up {setup_s:.4} s (median of {})",
        times.len()
    );
    Ok((last.expect("SETUPS > 0"), setup_s))
}

/// What one workload run produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced pass's spans, written out by `--out`.
    pub spans: Option<Tracer>,
}

/// The samples of one measured pass, which repeats a fixed pool of
/// operations in rounds. A failed or refused operation is a `+∞` wall
/// latency sample and counts in `failed`.
pub struct Pass {
    pub lat_ms: Vec<f64>,
    /// Simulated time of the first round only: later executions of the
    /// same queries can bill flash garbage collection left by earlier ones,
    /// and how many rounds run depends on how fast the host is.
    sim_ms: Vec<f64>,
    /// Operations (queries or loads) in one round.
    per_round: usize,
    pub failed: u64,
    chosen_ns: u128,
    best_ns: u128,
}

impl Pass {
    pub fn new(per_round: usize) -> Self {
        Pass {
            lat_ms: Vec::new(),
            sim_ms: Vec::new(),
            per_round,
            failed: 0,
            chosen_ns: 0,
            best_ns: 0,
        }
    }

    /// Correct operation number `op`, whose own plan is the one the
    /// regret measures.
    pub fn ok(&mut self, op: u64, lat_ms: f64, sim_ns: u128, best_ns: u128) {
        self.ok_with(op, lat_ms, sim_ns, sim_ns, best_ns);
    }

    /// Correct operation number `op`; `chosen_ns`/`best_ns` are its share
    /// of the plan-regret sums.
    pub fn ok_with(&mut self, op: u64, lat_ms: f64, sim_ns: u128, chosen_ns: u128, best_ns: u128) {
        self.lat_ms.push(lat_ms);
        if op < self.per_round as u64 {
            self.sim_ms.push(sim_ns as f64 / 1e6);
        }
        self.chosen_ns += chosen_ns;
        self.best_ns += best_ns;
    }

    pub fn fail(&mut self, why: &str) {
        eprintln!("ghostbench: FAILED {why}");
        self.failed += 1;
        self.lat_ms.push(f64::INFINITY);
    }

    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    /// The end-to-end metrics of an untraced pass. Wall latency is not
    /// among them (it goes to stderr): on a shared host its runs spread by
    /// more than any bound a regression check could use. See `README.md`.
    pub fn end_to_end(&self, setup_s: f64, flash_per_user_byte: f64) -> RunResult {
        eprintln!(
            "ghostbench: wall latency p50 {:.3} ms, p95 {:.3} ms over {} operations",
            median(&self.lat_ms),
            quantile(&self.lat_ms, 0.95),
            self.attempted()
        );
        let round_s = self.sim_ms.iter().sum::<f64>() / 1e3;
        RunResult {
            attempted: self.attempted(),
            failed: self.failed,
            metrics: vec![
                ("setup_s", setup_s, "s"),
                ("sim_p50_ms", median(&self.sim_ms), "ms"),
                ("sim_p99_ms", quantile(&self.sim_ms, 0.99), "ms"),
                ("sim_ops_per_s", self.sim_ms.len() as f64 / round_s, "1/s"),
                (
                    "plan_regret",
                    self.chosen_ns as f64 / self.best_ns.max(1) as f64,
                    "ratio",
                ),
                ("flash_bytes_per_user_byte", flash_per_user_byte, "ratio"),
                ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ],
            spans: None,
        }
    }
}

/// A `--trace 1` result: the layers the workload filled in, plus what every
/// workload reports the same way — the worst per-query regret of its pool,
/// the flash footprint split, the untraced half's wall latency, and the
/// traced-vs-untraced p50 difference.
pub fn traced_result(
    base: &Pass,
    traced: &Pass,
    pool: &[Prepared],
    footprint: &Footprint,
    mut layers: Layers,
    tracer: Tracer,
) -> RunResult {
    let regret_max = pool
        .iter()
        .map(|p| p.chosen_ns as f64 / p.best_ns.max(1) as f64)
        .fold(0.0, f64::max);
    layers.set("exec.optimizer.regret_max", regret_max);
    footprint.emit(&mut layers);
    let (traced_p50, base_p50) = (median(&traced.lat_ms), median(&base.lat_ms));
    layers.set("wall.lat_p50_ms", base_p50);
    layers.set("wall.lat_p95_ms", quantile(&base.lat_ms, 0.95));
    layers.set(
        "trace.overhead_pct",
        100.0 * (traced_p50 - base_p50) / base_p50,
    );
    RunResult {
        attempted: base.attempted() + traced.attempted(),
        failed: base.failed + traced.failed,
        metrics: layers.into_metrics(),
        spans: Some(tracer),
    }
}

/// Flash space of a loaded database per byte of hidden user data (the
/// hidden columns and foreign keys as staged). The index part (climbing
/// indexes and SKTs) and the storage part (everything else allocated: the
/// hidden columns) add up to the whole.
pub struct Footprint {
    pub flash_per_user_byte: f64,
    index_per_user_byte: f64,
    storage_per_user_byte: f64,
}

impl Footprint {
    pub fn of(db: &Database) -> Self {
        let page = db.token.flash.page_size();
        let user: u64 = db.hidden.iter().map(|h| h.bytes()).sum();
        let allocated = (db.alloc.total_pages() - db.alloc.free_pages()) * page as u64;
        let index: u64 = db.cis.values().map(|ci| ci.bytes(page)).sum::<u64>()
            + db.skts.iter().flatten().map(|s| s.bytes(page)).sum::<u64>();
        let per_user = |b: u64| b as f64 / user.max(1) as f64;
        Footprint {
            flash_per_user_byte: per_user(allocated),
            index_per_user_byte: per_user(index),
            storage_per_user_byte: per_user(allocated.saturating_sub(index)),
        }
    }

    pub fn emit(&self, layers: &mut Layers) {
        layers.set("index.bytes_per_user_byte", self.index_per_user_byte);
        layers.set(
            "storage.table_bytes_per_user_byte",
            self.storage_per_user_byte,
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &RunResult) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("ghostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "sql-mix" => sql::run(sql::Kind::Mix, &args),
        "sql-hidden" => sql::run(sql::Kind::Hidden, &args),
        "serve-burst" => serve::run(&args),
        "ingest" => ingest::run(&args),
        other => {
            eprintln!("ghostbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ghostbench: {e}");
            std::process::exit(1);
        }
    };
    let line = result_line(&result);
    if let Some(path) = &args.out {
        let spans = result.spans.as_ref().map_or("[]".into(), Tracer::to_json);
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}, \"spans\": {spans}}}\n",
            args.workload, args.seed, args.trace
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("ghostbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{line}");
    if result.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "ingest",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "ingest");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn result_line_is_json_with_null_for_non_finite() {
        let r = RunResult {
            attempted: 3,
            failed: 1,
            metrics: vec![
                ("lat_p50_ms", 1.5, "ms"),
                ("lat_p99_ms", f64::INFINITY, "ms"),
            ],
            spans: None,
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"lat_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"lat_p99_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
