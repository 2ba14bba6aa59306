//! Wall-clock performance baseline for the repo: times every entry of the
//! scenario matrix (`ghostdb_bench::matrix`: synthetic scales × filtering
//! strategies × projection algorithms, the medical workload, the write
//! path, serve mode and per-operator microbenches) and writes a
//! machine-readable `BENCH.json` — the number every future perf PR is
//! judged against.
//!
//! ```text
//! perfbench [--smoke] [--out BENCH.json]
//! perfbench --check BENCH.json
//! perfbench --compare A.json B.json [--tolerance PCT]
//! ```
//!
//! Each mode runs one fixed matrix, full with 5 timed iterations per entry
//! and smoke with 3. Timing is `std::time::Instant` with warmup +
//! median-of-N; simulated times ride along from the Table 1 cost model
//! (deterministic). Every scenario runs on the calling thread, one after
//! another.

use ghostdb_bench::json::{check_bench, compare_exact, compare_micro_wall, Json};
use ghostdb_bench::matrix::{self, Mode};
use ghostdb_bench::perf::{bench_doc, measure};

const USAGE: &str = "\
perfbench — wall-clock performance baseline emitting BENCH.json

USAGE:
    perfbench [--smoke] [--out PATH]
    perfbench --check PATH
    perfbench --compare PATH PATH [--tolerance PCT]

OPTIONS:
    --smoke            reduced matrix (synthetic x0.002, medical x0.01,
                       3 timed iterations) targeting < 60 s — the CI
                       configuration. The full matrix runs synthetic x0.01
                       and x0.05, medical x0.2, 5 timed iterations
    --out PATH         where to write BENCH.json (default BENCH.json)
    --check PATH       validate an existing BENCH.json and exit
    --compare A B      validate two BENCH.json files and fail unless they
                       carry the same scenario names in the same order with
                       bit-identical simulated_s/ops/bytes_io (the exact
                       gate, e.g. before vs after a change; wall times stay
                       free); every diverging entry is reported
    --tolerance PCT    with --compare: judge the common micro/* wall times
                       instead, failing on regressions beyond PCT percent
                       (the CI perf gate; query names may differ, e.g.
                       committed full baseline vs smoke; 0 demands
                       exactly-equal wall times)
    -h, --help         print this help and exit

The scenario set is a pure function of the mode: two runs of one mode emit
the same scenarios in the same order (fixed dataset seeds, fixed matrix).
Wall times are medians over the timed iterations; simulated times come
from the Table 1 cost model and are bit-identical across runs.";

struct Opts {
    smoke: bool,
    out: String,
    check: Option<String>,
    compare: Option<(String, String)>,
    tolerance: Option<f64>,
}

fn usage_error(msg: &str) -> ! {
    ghostdb_bench::cli::usage_error(msg, USAGE)
}

fn parse_nonnegative(flag: &str, raw: &str) -> f64 {
    ghostdb_bench::cli::parse_nonnegative(flag, raw, USAGE)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: "BENCH.json".into(),
        check: None,
        compare: None,
        tolerance: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let value_of = |args: &[String], i: usize| -> String {
        match args.get(i + 1) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{} requires a value", args[i])),
        }
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            "--out" => {
                opts.out = value_of(&args, i);
                i += 2;
            }
            "--tolerance" => {
                opts.tolerance = Some(parse_nonnegative("--tolerance", &value_of(&args, i)));
                i += 2;
            }
            "--check" => {
                opts.check = Some(value_of(&args, i));
                i += 2;
            }
            "--compare" => {
                let a = value_of(&args, i);
                let b = match args.get(i + 2) {
                    Some(v) => v.clone(),
                    None => usage_error("--compare requires two paths"),
                };
                opts.compare = Some((a, b));
                i += 3;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if opts.tolerance.is_some() && opts.compare.is_none() {
        usage_error("--tolerance only applies to --compare");
    }
    opts
}

fn load_doc(verb: &str, path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfbench {verb}: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfbench {verb}: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn run_compare(a: &str, b: &str, tolerance: Option<f64>) -> ! {
    let da = load_doc("--compare", a);
    let db = load_doc("--compare", b);
    let verdict = match tolerance {
        // The perf regression gate: micro wall times within tolerance.
        Some(pct) => {
            compare_micro_wall(&da, &db, pct).map(|n| format!("{n} micro scenarios within +{pct}%"))
        }
        // The exact gate: names, order and simulated observations.
        None => compare_exact(&da, &db).map(|n| {
            format!("{n} scenarios, identical names and bit-identical simulated observations")
        }),
    };
    match verdict {
        Ok(msg) => {
            println!("{a} vs {b}: OK — {msg}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench --compare: {a} vs {b}: {e}");
            std::process::exit(1);
        }
    }
}

fn run_check(path: &str) -> ! {
    let doc = load_doc("--check", path);
    match check_bench(&doc) {
        Ok(s) => {
            println!(
                "{path}: OK — {} entries ({} query scenarios, {} microbenches)",
                s.entries, s.scenarios, s.micro
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench --check: {path} violates the BENCH schema: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = parse_args();
    if let Some((a, b)) = &opts.compare {
        run_compare(a, b, opts.tolerance);
    }
    if let Some(path) = &opts.check {
        run_check(path);
    }
    let (mode, iters) = if opts.smoke {
        (Mode::Smoke, 3)
    } else {
        (Mode::Full, 5)
    };
    let warmup = 1usize;
    eprintln!(
        "perfbench: mode {}, {iters} timed iterations per scenario (+{warmup} warmup)",
        mode.name()
    );
    let mut entries = Vec::new();
    matrix::run(mode, |name, run| {
        eprintln!("perfbench: {name}");
        entries.push(measure(name, warmup, iters, run));
    });

    let doc = bench_doc(mode.name(), &entries);
    let summary = check_bench(&doc).unwrap_or_else(|e| {
        eprintln!("perfbench: generated document violates its own schema: {e}");
        std::process::exit(1);
    });
    std::fs::write(&opts.out, doc.render()).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!(
        "wrote {} — {} entries ({} query scenarios, {} microbenches)",
        opts.out, summary.entries, summary.scenarios, summary.micro
    );
}
