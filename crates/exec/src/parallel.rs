//! Parallel fan-out of independent query plans across OS threads.
//!
//! GhostDB's evaluation workloads are embarrassingly parallel at the plan
//! level: a strategy sweep runs the same query under 7 `VisStrategy`
//! variants, and every sweep point is an independent plan over its own
//! simulated token. Since the whole execution data plane is `Send + Sync`
//! (shared id/row payloads are [`SharedIds`] = `Arc<Vec<Id>>`, the RAM
//! arena accounts atomically), a [`Database`] can be built *per worker
//! thread* and driven there, with zero shared mutable state between plans.
//!
//! [`run_many`] is the high-level entry point: it fans a batch of
//! `(SpjQuery, ExecOptions)` pairs over `threads` workers, each owning a
//! private database built by `db_factory`, and returns the results **in
//! input order** regardless of scheduling — two runs with the same inputs
//! produce byte-identical `ResultSet`s (determinism is locked in by
//! `tests/parallel_equivalence.rs` and the `parallel_property` suite).
//!
//! The token itself stays single-threaded: one worker drives one token's
//! sequential executor, exactly like the paper's secure chip. Parallelism
//! lives strictly *above* the token boundary (many tokens side by side),
//! so no simulated cost or RAM accounting changes — only wall-clock does.

use crate::database::Database;
use crate::error::ExecError;
use crate::executor::{ExecOptions, Executor};
use crate::query::SpjQuery;
use crate::report::ExecReport;
use crate::result::ResultSet;
use crate::source::{IdSource, SharedIds, SourceReader};
use crate::strategy::SjOutcome;
use crate::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// A future `Rc` regression anywhere in the execution data plane fails to
// compile right here, not at the first multi-threaded call site.
const _: () = {
    const fn send<T: Send>() {}
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<IdSource>();
    send_sync::<SharedIds>();
    send_sync::<SjOutcome>();
    send_sync::<ghostdb_untrusted::VisShipment>();
    send::<SourceReader>();
    send::<Database>();
    send_sync::<SpjQuery>();
    send_sync::<ExecOptions>();
    send_sync::<ResultSet>();
    send_sync::<ExecReport>();
    send_sync::<ExecError>();
    // `GhostDbServer` owns the `Database` (and through it the flash
    // device) and is shared across client threads.
    send_sync::<ghostdb_flash::FlashDevice>();
};

/// Run `jobs` work items over `threads` scoped workers, each with private
/// per-worker state from `init`, returning results in job-index order.
///
/// Workers pull the next job index from a shared counter, so scheduling is
/// dynamic (long jobs do not starve short ones) while the output stays
/// deterministic: slot `i` always holds job `i`'s result. `threads` is
/// clamped to the job count; `threads == 1` degenerates to a plain serial
/// loop on the calling thread, no spawn at all.
///
/// Errors: the first failing job (in index order) among the executed ones
/// is returned, and a failure cancels the batch — workers finish the job
/// they hold but claim no further ones, matching the serial path's
/// short-circuit at the first error. If a worker's `init` fails, surviving
/// workers still drain the queue; only when jobs went unexecuted (every
/// worker died) does the first recorded init error surface.
pub fn fan_out<S, T: Send>(
    jobs: usize,
    threads: usize,
    init: impl Fn() -> Result<S> + Sync,
    work: impl Fn(&mut S, usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    if threads == 0 {
        return Err(ExecError::Query("fan_out: threads must be ≥ 1".into()));
    }
    if jobs == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.min(jobs);
    if threads == 1 {
        let mut state = init()?;
        return (0..jobs).map(|i| work(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let init_error: Mutex<Option<ExecError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = match init() {
                    Ok(s) => s,
                    Err(e) => {
                        // Keep the first failure: later cascades from other
                        // workers must not mask the root cause.
                        let mut slot = init_error.lock().expect("init-error lock");
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                };
                while !failed.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = work(&mut state, i);
                    if out.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("slot lock") = Some(out);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(jobs);
    for slot in slots {
        match slot.into_inner().expect("slot lock") {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(init_error
                    .into_inner()
                    .expect("init-error lock")
                    .unwrap_or_else(|| {
                        ExecError::Query("fan_out: job skipped by dead worker".into())
                    }))
            }
        }
    }
    Ok(out)
}

/// Execute independent `(query, options)` pairs across `threads` worker
/// threads, each against a private database built by `db_factory`, and
/// return `(ResultSet, ExecReport)` pairs **in input order**.
///
/// Queries never mutate data (temporaries are reclaimed per query), so a
/// fresh factory-built database answers exactly like a reused serial one;
/// the equivalence suite asserts byte-identical results against the serial
/// [`Executor::run`] loop and across repeated parallel runs.
pub fn run_many<F>(
    db_factory: F,
    jobs: &[(SpjQuery, ExecOptions)],
    threads: usize,
) -> Result<Vec<(ResultSet, ExecReport)>>
where
    F: Fn() -> Result<Database> + Sync,
{
    fan_out(jobs.len(), threads, db_factory, |db, i| {
        Executor::run(db, &jobs[i].0, &jobs[i].1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::VisStrategy;
    use crate::testkit;

    fn tiny_jobs() -> Vec<(SpjQuery, ExecOptions)> {
        let db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").expect("T1");
        let strategies = [
            VisStrategy::Pre,
            VisStrategy::Post,
            VisStrategy::PostSelect,
            VisStrategy::NoFilter,
        ];
        strategies
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut q = SpjQuery::new()
                    .pred(
                        t1,
                        ghostdb_storage::Predicate::new(
                            "v2",
                            ghostdb_storage::CmpOp::Lt,
                            testkit::pad8(3 + i as u64),
                            None,
                        ),
                    )
                    .project(t0, "id")
                    .project(t1, "v1");
                q.text = format!("tiny {i}");
                (q, ExecOptions::new().strategy(*s))
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_on_the_tiny_db() {
        let jobs = tiny_jobs();
        let mut db = testkit::tiny_db();
        let serial: Vec<ResultSet> = jobs
            .iter()
            .map(|(q, o)| Executor::run(&mut db, q, o).expect("serial").0)
            .collect();
        for threads in [1, 2, 4, 8] {
            let parallel = run_many(|| Ok(testkit::tiny_db()), &jobs, threads).expect("parallel");
            assert_eq!(parallel.len(), serial.len());
            for (i, ((rs, report), want)) in parallel.iter().zip(&serial).enumerate() {
                assert_eq!(rs, want, "job {i} diverged at threads={threads}");
                assert!(report.total().as_ns() > 0);
            }
        }
    }

    #[test]
    fn results_keep_input_order() {
        // Queries with distinct result cardinalities: slot i must hold
        // job i's rows no matter which worker ran it.
        let jobs = tiny_jobs();
        let out = run_many(|| Ok(testkit::tiny_db()), &jobs, 4).expect("parallel");
        let mut db = testkit::tiny_db();
        for (i, (q, o)) in jobs.iter().enumerate() {
            let want = Executor::run(&mut db, q, o).expect("serial").0;
            assert_eq!(out[i].0, want, "slot {i} holds the wrong job");
        }
    }

    #[test]
    fn zero_threads_is_an_error_and_empty_jobs_are_free() {
        assert!(run_many(|| Ok(testkit::tiny_db()), &tiny_jobs(), 0).is_err());
        let none: Vec<(SpjQuery, ExecOptions)> = Vec::new();
        assert!(run_many(|| Ok(testkit::tiny_db()), &none, 4)
            .expect("empty")
            .is_empty());
    }

    #[test]
    fn factory_failure_surfaces_as_an_error() {
        let jobs = tiny_jobs();
        let err = run_many(|| Err(ExecError::Query("factory down".into())), &jobs, 3)
            .expect_err("factory error must propagate");
        assert!(matches!(err, ExecError::Query(_)));
    }

    #[test]
    fn job_failure_reports_the_first_failing_index() {
        // Job 1 asks for a strategy that is not applicable (Cross with no
        // hidden selection anywhere): the error comes back, not a panic.
        let db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t1 = db.schema.table_id("T1").expect("T1");
        let mk = |strategy| {
            let mut q = SpjQuery::new()
                .pred(
                    t1,
                    ghostdb_storage::Predicate::new(
                        "v1",
                        ghostdb_storage::CmpOp::Lt,
                        testkit::pad8(5),
                        None,
                    ),
                )
                .project(t0, "id");
            q.text = "cross-fail".into();
            (q, ExecOptions::new().strategy(strategy))
        };
        let jobs = vec![
            mk(VisStrategy::Pre),
            mk(VisStrategy::CrossPre),
            mk(VisStrategy::Pre),
        ];
        let err = run_many(|| Ok(testkit::tiny_db()), &jobs, 2).expect_err("cross fails");
        assert!(matches!(err, ExecError::StrategyNotApplicable(_)));
    }
}
