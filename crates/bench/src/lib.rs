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
pub mod perf;

use ghostdb_datagen::{MedicalDataset, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, SpjQuery};
use ghostdb_index::size_model::{db_raw_bytes, scheme_index_bytes, SizeModelInput};
use ghostdb_index::IndexScheme;
use ghostdb_storage::schema::paper_synthetic_schema;

/// Selectivities swept on the x-axis of Figures 8–13 (log scale, §6.4).
pub const SV_SWEEP: [f64; 8] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

/// The paper's fixed hidden selectivity (§6.4).
pub const SH: f64 = 0.1;

/// One measured point: per-series simulated seconds.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// x value (selectivity or throughput).
    pub x: f64,
    /// (series name, simulated seconds) — `None` when the configuration is
    /// not executed (e.g. Post-Filter past its Bloom cutoff).
    pub series: Vec<(String, Option<f64>)>,
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

/// Run a query under a forced strategy; `None` when the strategy is not
/// executable for this configuration (Figure 10's Post cutoff surfaces as
/// the executor deferring the selection — detected via the report).
pub fn run_with(
    db: &mut Database,
    q: &SpjQuery,
    strategy: VisStrategy,
    algo: ProjectAlgo,
) -> ExecReport {
    run_with_tuned(db, q, strategy, algo, false)
}

/// [`run_with`] with an explicit volume-padding mode. `padded` inflates the
/// channel cost (its overhead is exactly what perfbench's
/// `synthetic-padded/` scenarios quantify) without changing results.
pub fn run_with_tuned(
    db: &mut Database,
    q: &SpjQuery,
    strategy: VisStrategy,
    algo: ProjectAlgo,
    padded: bool,
) -> ExecReport {
    let opts = ExecOptions {
        strategies: vec![],
        forced_strategy: Some(strategy),
        project: Some(algo),
        padded,
    };
    let (_, report) = Executor::run(db, q, &opts).expect("query runs");
    report
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
                    (s.name().to_string(), Some(report.total().as_secs()))
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
                    (a.name().to_string(), Some(report.total().as_secs()))
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
                    (format!("Project{k}"), Some(report.total().as_secs()))
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
    mk_query: &mut dyn FnMut(f64) -> SpjQuery,
    db: &mut Database,
) -> Vec<(String, [(String, f64); 4])> {
    let mut out = Vec::new();
    for (label, sv) in [("1", 0.01), ("5", 0.05), ("20", 0.2)] {
        for (tag, strategy) in [
            ("PRE", VisStrategy::CrossPre),
            ("POST", VisStrategy::CrossPost),
        ] {
            let q = mk_query(sv);
            let report = run_with(db, &q, strategy, ProjectAlgo::Project);
            let buckets = report.fig15_buckets();
            out.push((
                format!("{tag}{label}"),
                [
                    (buckets[0].0.to_string(), buckets[0].1.as_secs()),
                    (buckets[1].0.to_string(), buckets[1].1.as_secs()),
                    (buckets[2].0.to_string(), buckets[2].1.as_secs()),
                    (buckets[3].0.to_string(), buckets[3].1.as_secs()),
                ],
            ));
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
        let pre = run_with(&mut db, &q, VisStrategy::CrossPre, ProjectAlgo::Project);
        let post = run_with(&mut db, &q, VisStrategy::CrossPost, ProjectAlgo::Project);
        assert!(pre.total().as_ns() > 0 && post.total().as_ns() > 0);
        // Pre and post must agree on result cardinality at any sv.
        assert_eq!(pre.result_rows, post.result_rows);
    }
}
