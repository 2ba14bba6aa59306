//! Regenerate every table and figure of the GhostDB paper evaluation (§6).
//!
//! ```text
//! repro [--scale 0.1] [--medical-scale 1.0] [--figure all|7|8|9|10|11|12|13|14|15|16|table1]
//! ```
//!
//! `--scale 1.0` is paper scale (T0 = 10 M tuples); the default 0.1 keeps
//! the whole suite in laptop territory while preserving every shape (all
//! costs are linear in I/O volume). Reported times are simulated times from
//! the Table 1 cost model — deterministic across runs.

use ghostdb_bench::*;

const USAGE: &str = "\
repro — regenerate the GhostDB paper evaluation (§6)

USAGE:
    repro [--scale F] [--medical-scale F] [--figure WHICH]

OPTIONS:
    --scale F          synthetic dataset scale, 1.0 = paper scale, T0 = 10M
                       tuples (default 0.1)
    --medical-scale F  medical dataset scale (default 1.0)
    --figure WHICH     all|7|8|9|10|11|12|13|14|15|16|table1 (default all)
    -h, --help         print this help and exit

Reported times are simulated times from the Table 1 cost model and are
deterministic across runs. A query that fails prints `failed` in its cell
and its error under the table; the other points still run, and repro then
exits with status 1.";

const FIGURES: [&str; 12] = [
    "all", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "table1",
];

fn usage_error(msg: &str) -> ! {
    ghostdb_bench::cli::usage_error(msg, USAGE)
}

/// Parse a scale flag: must be a finite, strictly positive number. Zero or
/// negative scales used to slip through and silently produce degenerate
/// datasets (every table clamped to its floor cardinality) — reject them
/// loudly instead.
fn parse_scale(flag: &str, raw: &str) -> f64 {
    ghostdb_bench::cli::parse_positive(flag, raw, USAGE)
}

fn parse_args() -> (f64, f64, String) {
    let mut scale = 0.1f64;
    let mut med_scale = 1.0f64;
    let mut figure = "all".to_string();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value_of = |args: &[String], i: usize| -> String {
        match args.get(i + 1) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{} requires a value", args[i])),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--scale" => {
                scale = parse_scale("--scale", &value_of(&args, i));
                i += 2;
            }
            "--medical-scale" => {
                med_scale = parse_scale("--medical-scale", &value_of(&args, i));
                i += 2;
            }
            "--figure" => {
                figure = value_of(&args, i);
                if !FIGURES.contains(&figure.as_str()) {
                    usage_error(&format!("unknown figure {figure:?}"));
                }
                i += 2;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    (scale, med_scale, figure)
}

/// Print one sweep; returns how many of its queries failed.
fn print_sweep(title: &str, xlabel: &str, points: &[SweepPoint]) -> usize {
    println!("\n== {title} ==");
    let names: Vec<&str> = points[0].series.iter().map(|(n, _)| n.as_str()).collect();
    print!("{xlabel:>10}");
    for n in &names {
        print!(" {n:>20}");
    }
    println!();
    let mut failures = Vec::new();
    for p in points {
        print!("{:>10.3}", p.x);
        for (name, v) in &p.series {
            match v {
                Ok(secs) => print!(" {:>19.3}s", secs),
                Err(e) => {
                    print!(" {:>20}", "failed");
                    failures.push(format!("{xlabel} = {}, {name}: {e}", p.x));
                }
            }
        }
        println!();
    }
    print_failures(&failures)
}

/// Print one decomposition; returns how many of its queries failed.
fn print_decomposition(title: &str, rows: &[(String, Measured<Buckets>)]) -> usize {
    println!("\n== {title} ==");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "config", "Merge", "Sjoin", "Store", "Project", "total"
    );
    let mut failures = Vec::new();
    for (label, buckets) in rows {
        match buckets {
            Ok(b) => {
                let total: f64 = b.iter().map(|(_, v)| v).sum();
                println!(
                    "{label:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {total:>10.3}",
                    b[0].1, b[1].1, b[2].1, b[3].1
                );
            }
            Err(e) => {
                println!("{label:>8} {:>10}", "failed");
                failures.push(format!("{label}: {e}"));
            }
        }
    }
    print_failures(&failures)
}

/// A failed query prints as its point and error under the table; the
/// figure's other points still run, and `repro` exits non-zero at the end.
fn print_failures(failures: &[String]) -> usize {
    for f in failures {
        println!("  failed: {f}");
    }
    failures.len()
}

fn want(figure: &str, name: &str) -> bool {
    figure == "all" || figure == name
}

fn main() {
    let (scale, med_scale, figure) = parse_args();
    println!("GhostDB evaluation reproduction — synthetic scale {scale} (1.0 = T0 10M), medical scale {med_scale}");

    if want(&figure, "7") {
        let (sweep, dbsize) = figure7();
        println!("\n== Figure 7: storage cost of the indexing schemes (MB, paper-scale model) ==");
        println!(
            "{:>22} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "x (hidden attrs/table)", "FullIndex", "BasicIndex", "StarIndex", "JoinIndex", "DBSize"
        );
        for (x, schemes) in &sweep {
            print!("{x:>22}");
            for (_, mb) in schemes {
                print!(" {mb:>12.1}");
            }
            println!(" {dbsize:>12.1}");
        }
        println!("\n-- Figure 7 (real/medical dataset sizes, MB) --");
        let med = figure7_medical();
        let labels = [
            "FullIndex",
            "BasicIndex",
            "StarIndex",
            "JoinIndex",
            "DBSize",
        ];
        for (label, (_, mb)) in labels.iter().zip(&med) {
            println!("{label:>12}: {mb:>10.1} MB");
        }
    }

    // Each figure runs on a database of its own (see `run_figure`).
    let mut failed = 0;
    for name in QUERY_FIGURES.iter().filter(|f| want(&figure, f)) {
        if *name == "16" {
            eprintln!("building medical dataset (scale {med_scale}) for figure 16...");
        } else {
            eprintln!("building synthetic dataset (scale {scale}) for figure {name}...");
        }
        failed += match run_figure(name, scale, med_scale) {
            Figure::Sweep {
                title,
                xlabel,
                points,
            } => print_sweep(&title, xlabel, &points),
            Figure::Decomposition { title, rows } => print_decomposition(&title, &rows),
            Figure::Table { title, rows } => {
                println!("\n== {title} ==");
                for (k, v) in rows {
                    println!("  {k:<58} {v}");
                }
                0
            }
        };
    }
    if failed > 0 {
        eprintln!("repro: {failed} queries failed");
        std::process::exit(1);
    }
}
