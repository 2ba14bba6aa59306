//! # ghostdb-bench
//!
//! The harness regenerating every table and figure of the paper's
//! evaluation (§6). Each `figure*` function returns printable series; the
//! `repro` binary drives them. Execution times are **simulated times** from
//! the I/O-accurate cost model (exactly how the paper measured), so results
//! are deterministic; the `perfbench` binary records host-side wall time
//! of the queries and operators in `BENCH.json`.

pub mod cli;
pub mod json;
pub mod matrix;
pub mod perf;

use ghostdb_datagen::{MedicalDataset, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{Database, ExecError, ExecOptions, ExecReport, Executor, SpjQuery};
use ghostdb_index::size_model::{db_raw_bytes, scheme_index_bytes, SizeModelInput};
use ghostdb_index::IndexScheme;
use ghostdb_storage::schema::paper_synthetic_schema;

/// Selectivities swept on the x-axis of Figures 8–13 (log scale, §6.4).
pub const SV_SWEEP: [f64; 8] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

/// The paper's fixed hidden selectivity (§6.4).
pub const SH: f64 = 0.1;

/// One query's outcome in a figure: its value, or the error the query
/// failed with, so one failed point does not stop the figure.
pub type Measured<T> = std::result::Result<T, String>;

/// One measured point: per-series simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// x value (selectivity or throughput).
    pub x: f64,
    /// (series name, simulated seconds or the query's error).
    pub series: Vec<(String, Measured<f64>)>,
}

/// Per-operator simulated seconds of one Figure 15/16 configuration:
/// (bucket name, seconds) for Merge, SJoin, Store and Project.
pub type Buckets = [(String, f64); 4];

/// One table or figure of the evaluation, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub enum Figure {
    /// Simulated seconds per series along an x axis (Figures 8–14).
    Sweep {
        /// Heading.
        title: String,
        /// x-axis label.
        xlabel: &'static str,
        /// The measured points.
        points: Vec<SweepPoint>,
    },
    /// Per-operator buckets per configuration (Figures 15–16).
    Decomposition {
        /// Heading.
        title: String,
        /// (configuration label, its buckets or the query's error).
        rows: Vec<(String, Measured<Buckets>)>,
    },
    /// Parameter list (Table 1).
    Table {
        /// Heading.
        title: String,
        /// (parameter, value).
        rows: Vec<(String, String)>,
    },
}

/// The figures [`run_figure`] produces, in `repro`'s order.
pub const QUERY_FIGURES: [&str; 10] =
    ["table1", "8", "9", "10", "11", "12", "13", "14", "15", "16"];

/// Run one figure of [`QUERY_FIGURES`] on a freshly built database, the
/// synthetic one at `scale` or, for Figure 16, the medical one at
/// `medical_scale`. Queries write temps and move the flash device's
/// garbage-collection state, so a database shared across figures would
/// make each figure's numbers depend on the figures run before it.
///
/// # Panics
///
/// On a name outside [`QUERY_FIGURES`].
pub fn run_figure(name: &str, scale: f64, medical_scale: f64) -> Figure {
    assert!(QUERY_FIGURES.contains(&name), "no figure named {name}");
    if name == "16" {
        let (mds, mut mdb) = build_medical(medical_scale);
        return Figure::Decomposition {
            title: "Figure 16: cost decomposition, medical dataset (seconds, comm. excluded)"
                .into(),
            rows: figure_decomposition(&mut |db, sv| medical_q(&mds, db, sv), &mut mdb),
        };
    }
    let (ds, mut db) = build_synthetic(scale);
    let db = &mut db;
    let sweep = |title: &str, xlabel, points| Figure::Sweep {
        title: title.into(),
        xlabel,
        points,
    };
    match name {
        "table1" => Figure::Table {
            title: "Table 1: performance parameters of the simulated USB key".into(),
            rows: table1(db),
        },
        "8" => sweep(
            "Figure 8: Filtering vs Cross-Filtering",
            "sV",
            figure_filtering(
                &ds,
                db,
                &[
                    VisStrategy::Pre,
                    VisStrategy::CrossPre,
                    VisStrategy::Post,
                    VisStrategy::CrossPost,
                ],
            ),
        ),
        "9" => sweep(
            "Figure 9: Cross-Pre vs Cross-Post",
            "sV",
            figure_filtering(&ds, db, &[VisStrategy::CrossPre, VisStrategy::CrossPost]),
        ),
        "10" => sweep(
            "Figure 10: Pre vs Post-Filtering (no Cross)",
            "sV",
            figure_filtering(
                &ds,
                db,
                &[VisStrategy::Pre, VisStrategy::Post, VisStrategy::NoFilter],
            ),
        ),
        "11" => sweep(
            "Figure 11: Post-Filtering alternatives",
            "sV",
            figure_filtering(
                &ds,
                db,
                &[
                    VisStrategy::Post,
                    VisStrategy::PostSelect,
                    VisStrategy::CrossPost,
                    VisStrategy::CrossPostSelect,
                ],
            ),
        ),
        "12" => sweep(
            "Figure 12: Projection under Cross-Pre-Filtering",
            "sV",
            figure_projection(&ds, db, VisStrategy::CrossPre),
        ),
        "13" => sweep(
            "Figure 13: Projection under Cross-Post-Filtering",
            "sV",
            figure_projection(&ds, db, VisStrategy::CrossPost),
        ),
        "14" => sweep(
            "Figure 14: Impact of communication throughput (Cross-Pre, sV=0.01)",
            "MB/s",
            figure_throughput(&ds, db),
        ),
        // "15", the one name left.
        _ => Figure::Decomposition {
            title: "Figure 15: cost decomposition, synthetic dataset (seconds, comm. excluded)"
                .into(),
            rows: figure_decomposition(&mut |db, sv| query_q(&ds, db, sv, false), db),
        },
    }
}

/// Build the shared synthetic evaluation database.
pub fn build_synthetic(scale: f64) -> (SyntheticDataset, Database) {
    let mut spec = SyntheticSpec::paper(scale);
    spec.visible_attrs = 3; // Figure 14 projects up to 3 visible attributes
    let ds = SyntheticDataset::generate(spec);
    let db = ds.build().expect("synthetic build");
    (ds, db)
}

/// Build the Zipf-skewed synthetic variant (values Zipf(1.2) over the
/// ordinal domain instead of uniform permutations): heavy-headed index
/// sublists and Bloom inputs, the selectivity regime the uniform matrix
/// never reaches.
pub fn build_synthetic_zipf(scale: f64) -> (SyntheticDataset, Database) {
    let mut spec = SyntheticSpec::paper_zipf(scale, 1.2);
    spec.visible_attrs = 3;
    let ds = SyntheticDataset::generate(spec);
    let db = ds.build().expect("synthetic zipf build");
    (ds, db)
}

/// The §6.4 query Q: visible selection on T1 (selectivity `sv`), hidden
/// selection on T12 (selectivity `SH`), joins to T0, projecting
/// `T0.id, T1.id, T12.id, T1.v1` (+ `T1.h1` when `with_hidden_proj`).
pub fn query_q(ds: &SyntheticDataset, db: &Database, sv: f64, with_hidden_proj: bool) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let t12 = db.schema.table_id("T12").expect("T12");
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", sv))
        .pred(t12, ds.selectivity_pred("T12", "h2", SH))
        .project(t0, "id")
        .project(t1, "id")
        .project(t12, "id")
        .project(t1, "v1");
    if with_hidden_proj {
        q = q.project(t1, "h1");
    }
    q.text = format!("Q(sv={sv}, sh={SH})");
    q
}

/// A Cross variant of Q with the hidden selection on `T1.h1` instead of
/// `T12.h2`: `h1` values are a permutation (one distinct key per row), so
/// the climbing index's B+-tree spans |T1|/63 leaves instead of fitting in
/// one — the regime where the Cross-Post "redundant lookup" is a material
/// share of the query and the single-traversal multi-level read path pays
/// off end to end (`synthetic-hicard/…` scenarios).
pub fn query_q_hicard(ds: &SyntheticDataset, db: &Database, sv: f64, sh: f64) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", sv))
        .pred(t1, ds.selectivity_pred("T1", "h1", sh))
        .project(t0, "id")
        .project(t1, "id");
    q.text = format!("Q-hicard(sv={sv}, sh={sh})");
    q
}

/// Run a query under a forced strategy and projection algorithm.
pub fn run_with(
    db: &mut Database,
    q: &SpjQuery,
    strategy: VisStrategy,
    algo: ProjectAlgo,
) -> Result<ExecReport, ExecError> {
    let opts = ExecOptions::new().strategy(strategy).project(algo);
    Executor::run(db, q, &opts).map(|(_, report)| report)
}

/// A query's simulated seconds, or its error as text.
fn seconds(report: Result<ExecReport, ExecError>) -> Measured<f64> {
    report
        .map(|r| r.total().as_secs())
        .map_err(|e| e.to_string())
}

/// Figure 8 + 9 + 10 + 11: total simulated time vs sV per strategy.
pub fn figure_filtering(
    ds: &SyntheticDataset,
    db: &mut Database,
    strategies: &[VisStrategy],
) -> Vec<SweepPoint> {
    SV_SWEEP
        .iter()
        .map(|sv| {
            let q = query_q(ds, db, *sv, false);
            let series = strategies
                .iter()
                .map(|s| {
                    let report = run_with(db, &q, *s, ProjectAlgo::Project);
                    (s.name().to_string(), seconds(report))
                })
                .collect();
            SweepPoint { x: *sv, series }
        })
        .collect()
}

/// Figures 12–13: projection algorithms under a fixed strategy.
pub fn figure_projection(
    ds: &SyntheticDataset,
    db: &mut Database,
    strategy: VisStrategy,
) -> Vec<SweepPoint> {
    let algos = [
        ProjectAlgo::Project,
        ProjectAlgo::ProjectNoBf,
        ProjectAlgo::BruteForce,
    ];
    SV_SWEEP
        .iter()
        .map(|sv| {
            let q = query_q(ds, db, *sv, true);
            let series = algos
                .iter()
                .map(|a| {
                    let report = run_with(db, &q, strategy, *a);
                    (a.name().to_string(), seconds(report))
                })
                .collect();
            SweepPoint { x: *sv, series }
        })
        .collect()
}

/// Figure 14: total time vs channel throughput, projecting 1–3 visible
/// attributes, Cross-Pre at sV = 0.01.
pub fn figure_throughput(ds: &SyntheticDataset, db: &mut Database) -> Vec<SweepPoint> {
    let throughputs_mbps = [0.3, 0.5, 0.8, 1.0, 1.3, 2.0, 3.0, 5.0, 10.0];
    let original = db.token.channel.throughput();
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").expect("T1");
    let t12 = db.schema.table_id("T12").expect("T12");
    let out = throughputs_mbps
        .iter()
        .map(|mbps| {
            db.token.channel.set_throughput((mbps * 1_000_000.0) as u64);
            let series = (1..=3usize)
                .map(|k| {
                    let mut q = SpjQuery::new()
                        .pred(t1, ds.selectivity_pred("T1", "v1", 0.01))
                        .pred(t12, ds.selectivity_pred("T12", "h2", SH))
                        .project(t0, "id");
                    for v in 1..=k {
                        q = q.project(t1, &format!("v{v}"));
                    }
                    q.text = format!("Q-project{k}");
                    let report = run_with(db, &q, VisStrategy::CrossPre, ProjectAlgo::Project);
                    (format!("Project{k}"), seconds(report))
                })
                .collect();
            SweepPoint { x: *mbps, series }
        })
        .collect();
    db.token.channel.set_throughput(original);
    out
}

/// Figures 15–16: per-operator decomposition for PRE/POST at
/// sV ∈ {0.01, 0.05, 0.2} (communication excluded, as in the paper).
pub fn figure_decomposition(
    mk_query: &mut dyn FnMut(&Database, f64) -> SpjQuery,
    db: &mut Database,
) -> Vec<(String, Measured<Buckets>)> {
    let mut out = Vec::new();
    for (label, sv) in [("1", 0.01), ("5", 0.05), ("20", 0.2)] {
        for (tag, strategy) in [
            ("PRE", VisStrategy::CrossPre),
            ("POST", VisStrategy::CrossPost),
        ] {
            let q = mk_query(db, sv);
            let buckets = run_with(db, &q, strategy, ProjectAlgo::Project)
                .map(|report| {
                    report
                        .fig15_buckets()
                        .map(|(name, t)| (name.to_string(), t.as_secs()))
                })
                .map_err(|e| e.to_string());
            out.push((format!("{tag}{label}"), buckets));
        }
    }
    out
}

/// Storage size of each indexing scheme, in MB.
pub type SchemeSizes = Vec<(IndexScheme, f64)>;

/// Figure 7: index storage cost vs indexed hidden attributes per table, at
/// the paper's full synthetic cardinalities (exact size model — nothing is
/// built, so this always runs at paper scale).
pub fn figure7() -> (Vec<(usize, SchemeSizes)>, f64) {
    let schema = paper_synthetic_schema(5, 5);
    let mut rows = vec![0u64; schema.len()];
    for (name, c) in [
        ("T0", 10_000_000u64),
        ("T1", 1_000_000),
        ("T2", 1_000_000),
        ("T11", 100_000),
        ("T12", 100_000),
    ] {
        rows[schema.table_id(name).expect("paper schema")] = c;
    }
    // Attribute domains: uniform, high-cardinality but bounded (the paper's
    // bitmap-unfriendly case); distinct ≈ rows/10 capped at 100 K.
    let distinct: Vec<u64> = rows.iter().map(|r| (r / 10).clamp(1, 100_000)).collect();
    let sweep = (0..=5usize)
        .map(|x| {
            let input = SizeModelInput {
                schema: &schema,
                rows: &rows,
                distinct: &distinct,
                attrs_per_table: x,
                page_size: 2048,
            };
            (
                x,
                IndexScheme::all()
                    .into_iter()
                    .map(|s| (s, scheme_index_bytes(s, &input) as f64 / 1e6))
                    .collect(),
            )
        })
        .collect();
    let dbsize = db_raw_bytes(&schema, &rows) as f64 / 1e6;
    (sweep, dbsize)
}

/// Figure 7's real-dataset companion: index sizes on the medical schema at
/// its §6.2 cardinalities.
pub fn figure7_medical() -> SchemeSizes {
    let ds = MedicalDataset::generate(1.0, 7);
    let schema = &ds.schema;
    let (m, p, d, dr) = ds.cardinalities();
    let mut rows = vec![0u64; schema.len()];
    rows[schema.table_id("Measurements").expect("m")] = m;
    rows[schema.table_id("Patients").expect("p")] = p;
    rows[schema.table_id("Doctors").expect("d")] = d;
    rows[schema.table_id("Drugs").expect("dr")] = dr;
    // Indexed hidden attrs per table in the real schema: P has 5, D has 2,
    // Drugs 1, M 0 → average ≈ 2; the model takes a uniform count, use 2.
    let distinct: Vec<u64> = rows.iter().map(|r| (*r).clamp(1, 100_000)).collect();
    let input = SizeModelInput {
        schema,
        rows: &rows,
        distinct: &distinct,
        attrs_per_table: 2,
        page_size: 2048,
    };
    let mut out: Vec<(IndexScheme, f64)> = IndexScheme::all()
        .into_iter()
        .map(|s| (s, scheme_index_bytes(s, &input) as f64 / 1e6))
        .collect();
    out.push((
        // DBSize marker rides along as a pseudo-scheme entry in the print.
        IndexScheme::Full,
        db_raw_bytes(schema, &rows) as f64 / 1e6,
    ));
    out
}

/// Build the medical database and its Figure 16 query factory.
pub fn build_medical(scale: f64) -> (MedicalDataset, Database) {
    let ds = MedicalDataset::generate(scale, 7);
    let db = ds.build().expect("medical build");
    (ds, db)
}

/// The Figure 16 query: same structure as Q with T0→Measurements,
/// T1→Patients, T12→Doctors.
pub fn medical_q(ds: &MedicalDataset, db: &Database, sv: f64) -> SpjQuery {
    let m = db.schema.table_id("Measurements").expect("m");
    let p = db.schema.table_id("Patients").expect("p");
    let d = db.schema.table_id("Doctors").expect("d");
    let mut q = SpjQuery::new()
        .pred(p, ds.visible_pred(sv))
        .pred(d, ds.hidden_pred(SH))
        .project(m, "id")
        .project(p, "id")
        .project(d, "id")
        .project(p, "first_name");
    q.text = format!("Q-medical(sv={sv})");
    q
}

/// Table 1: the platform parameters in force.
pub fn table1(db: &Database) -> Vec<(String, String)> {
    let timing = db.token.flash.timing();
    vec![
        (
            "Communication throughput (MB/s)".into(),
            format!(
                "{:.2} (swept in Figure 14)",
                db.token.channel.throughput() as f64 / 1e6
            ),
        ),
        ("Size of an ID (bytes)".into(), "4".into()),
        (
            "Size of a page in Flash (bytes)".into(),
            db.token.flash.page_size().to_string(),
        ),
        (
            "RAM size (bytes)".into(),
            db.token.ram.total_bytes().to_string(),
        ),
        (
            "Time to read a page in Flash (µs)".into(),
            timing.read_page_us.to_string(),
        ),
        (
            "Time to write a page in Flash (µs)".into(),
            timing.program_page_us.to_string(),
        ),
        (
            "Time to transfer a byte between Data Register and RAM (ns)".into(),
            timing.transfer_ns_per_byte.to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_runs_at_paper_scale() {
        let (sweep, dbsize) = figure7();
        assert_eq!(sweep.len(), 6);
        assert!(dbsize > 1000.0, "paper DBSize is ≈1.25 GB, got {dbsize} MB");
        // Ordering at x=5: Full ≥ Basic > Star > Join.
        let last = &sweep[5].1;
        assert!(last[0].1 >= last[1].1);
        assert!(last[1].1 > last[2].1);
        assert!(last[2].1 > last[3].1);
    }

    #[test]
    fn tiny_sweep_produces_sane_shapes() {
        let (ds, mut db) = build_synthetic(0.0005); // T0 = 5000
        let q = query_q(&ds, &db, 0.01, false);
        let pre = run_with(&mut db, &q, VisStrategy::CrossPre, ProjectAlgo::Project).unwrap();
        let post = run_with(&mut db, &q, VisStrategy::CrossPost, ProjectAlgo::Project).unwrap();
        assert!(pre.total().as_ns() > 0 && post.total().as_ns() > 0);
        // Pre and post must agree on result cardinality at any sv.
        assert_eq!(pre.result_rows, post.result_rows);
    }

    /// A figure's numbers do not depend on the figures run before it:
    /// each runs on a database of its own.
    #[test]
    fn a_figure_reads_the_same_alone_and_after_another() {
        let scale = 0.0005;
        let alone = run_figure("11", scale, 0.01);
        run_figure("10", scale, 0.01);
        assert_eq!(run_figure("11", scale, 0.01), alone);
        let Figure::Sweep { points, .. } = alone else {
            panic!("figure 11 is a sweep");
        };
        assert_eq!(points.len(), SV_SWEEP.len());
        assert!(points
            .iter()
            .all(|p| p.series.iter().all(|(_, v)| v.is_ok())));
    }

    /// Every sweep query gives back the flash pages its temps took, so a
    /// long sweep cannot run out of logical space through leaked temps.
    #[test]
    fn sweep_points_free_their_temps() {
        let (ds, mut db) = build_synthetic(0.0005);
        for sv in SV_SWEEP {
            let q = query_q(&ds, &db, sv, true);
            for strategy in [
                VisStrategy::Pre,
                VisStrategy::CrossPre,
                VisStrategy::Post,
                VisStrategy::CrossPost,
                VisStrategy::PostSelect,
                VisStrategy::CrossPostSelect,
                VisStrategy::NoFilter,
            ] {
                for algo in [ProjectAlgo::Project, ProjectAlgo::BruteForce] {
                    let free = db.alloc.free_pages();
                    run_with(&mut db, &q, strategy, algo).unwrap();
                    assert_eq!(
                        db.alloc.free_pages(),
                        free,
                        "sV {sv}, {} / {} kept temp pages",
                        strategy.name(),
                        algo.name()
                    );
                }
            }
        }
    }

    /// A query that fails becomes its point's error, and the sweep runs
    /// the rest: with 6 RAM buffers some of Figure 10's queries run out of
    /// secure RAM and the others complete.
    #[test]
    fn a_failed_point_is_reported_and_the_sweep_goes_on() {
        let (ds, mut db) = build_synthetic(0.0005);
        db.token.ram = ghostdb_token::RamArena::new(db.token.flash.page_size(), 6);
        let strategies = [VisStrategy::Pre, VisStrategy::Post, VisStrategy::NoFilter];
        let points = figure_filtering(&ds, &mut db, &strategies);
        assert_eq!(points.len(), SV_SWEEP.len());
        let cells: Vec<&Measured<f64>> = points
            .iter()
            .flat_map(|p| p.series.iter().map(|(_, v)| v))
            .collect();
        assert_eq!(cells.len(), SV_SWEEP.len() * strategies.len());
        let failed: Vec<&String> = cells.iter().filter_map(|v| v.as_ref().err()).collect();
        assert!(!failed.is_empty() && failed.len() < cells.len());
        for e in failed {
            assert!(e.contains("secure RAM exhausted"), "{e}");
        }
    }
}
