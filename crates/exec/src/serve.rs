//! The in-process GhostDB server: sessions, admission control and the
//! cross-query batch scheduler.
//!
//! The paper's token serves one client; this module is the skeleton for
//! serving many. A [`GhostDbServer`] owns the finalized [`Database`] (one
//! immutable catalog every execution borrows) and hands out [`Session`]
//! handles whose methods all take `&self` on the server: submissions land
//! in a bounded admission queue ([`ServeError::QueueFull`] past its depth)
//! and execute when the queue drains. A drain has three phases:
//!
//! 1. **Analysis.** A [`crate::parallel::fan_out`] worker pool extracts
//!    each queued query's climbing-index probe keys (`(table, column, lo,
//!    hi)`, pure functions of public query text and catalog).
//! 2. **Shared traversals.** Every key demanded by ≥ 2 queued probes gets
//!    ONE all-levels traversal, banked with its flash-counter delta in a
//!    [`CiPrefetch`]; each probe hit demultiplexes its own level slices
//!    and is billed the banked delta as-if-solo (`DeviceLane::charge`).
//!    `probe_in` eq-runs are NOT batched: their probe lists derive from
//!    host-shipped visible ids, so grouping them across queries would
//!    perturb the per-query host transcript.
//! 3. **Execution.** The queries run one after another, in arrival
//!    order, on the token's own resources (`Executor::run_prefetched`),
//!    as the paper's one secure chip runs one query at a time.
//!
//! Scheduling is deterministic: sequence numbers are assigned under the
//! queue lock at submission and traversal keys are banked in sorted
//! order. Per-query results, every `ExecReport` field, host trace and
//! wire transcript are bit-identical to a plain `Executor::run` loop over
//! the same arrival sequence at any batching and worker setting: batching
//! and the analysis workers compress wall-clock work, never the simulated
//! observations (`tests/serve_equivalence.rs`).

use crate::ci_ops::{CiPrefetch, PrefetchKey};
use crate::database::Database;
use crate::error::ExecError;
use crate::executor::{ExecOptions, Executor};
use crate::query::{analyze, SpjQuery};
use crate::report::ExecReport;
use crate::result::ResultSet;
use ghostdb_token::TranscriptEntry;
use ghostdb_untrusted::HostTrace;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queries queued but not yet executed; submissions past it
    /// are rejected with [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Worker threads of a drain's analysis fan-out (probe-key
    /// extraction). Execution is always the serial loop.
    pub workers: usize,
    /// Enable the cross-query batch scheduler. Off = every query runs
    /// exactly as solo; on = shared traversals, identical observations.
    pub batching: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 16,
            workers: 4,
            batching: true,
        }
    }
}

impl ServeConfig {
    /// Start a builder chain (same vocabulary as `ExecOptions`).
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// Admission-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Drain analysis worker-pool width.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Toggle the cross-query batch scheduler.
    pub fn batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Reject invalid combinations at build time.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be ≥ 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full; resubmit after a drain.
    QueueFull {
        /// The configured depth that was hit.
        depth: usize,
    },
    /// Invalid server configuration.
    Config(String),
    /// The query itself failed.
    Exec(ExecError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Exec(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

/// Everything one executed query produced, captured immediately after it
/// ran and stored per session — so a later query (from any session)
/// cannot clobber what this one observed.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The query result.
    pub result: ResultSet,
    /// The execution report (bit-identical to solo execution).
    pub report: ExecReport,
    /// The host-observable trace of exactly this query.
    pub trace: HostTrace,
    /// The wire transcript of exactly this query.
    pub transcript: Vec<TranscriptEntry>,
}

/// Batch-scheduler observability counters (cumulative across drains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Drains that executed at least one query.
    pub batches: u64,
    /// Queries executed.
    pub queries: u64,
    /// Traversal keys banked (demanded by ≥ 2 queued probes).
    pub shared_keys: u64,
    /// Lower bound on traversals saved: for a key demanded `n` times,
    /// `n - 1` (hits beyond the analyzed demand save more).
    pub saved_traversals: u64,
    /// Always 0: every drain executes serially. Kept for ghostbench's
    /// `serve.parallel_drain_share` until the next benchmark change.
    pub parallel_drains: u64,
}

/// One admitted, not-yet-executed query.
struct Queued {
    seq: u64,
    session: usize,
    query: SpjQuery,
    opts: ExecOptions,
}

/// Per-session completion queue: `(seq, outcome)` in execution order,
/// plus the session's most recent successful host trace — kept even
/// after the outcome itself is taken, so [`Session::host_trace`] survives
/// delivery.
#[derive(Default)]
struct SessionSlot {
    done: VecDeque<(u64, Result<QueryOutcome, ServeError>)>,
    last_trace: Option<HostTrace>,
}

struct ServerState {
    db: Database,
    pending: VecDeque<Queued>,
    next_seq: u64,
    sessions: Vec<SessionSlot>,
    stats: BatchStats,
}

/// A persistent in-process GhostDB server. See the module docs.
pub struct GhostDbServer {
    cfg: ServeConfig,
    state: Mutex<ServerState>,
}

impl GhostDbServer {
    /// Take ownership of a finalized database and start serving.
    pub fn new(db: Database, cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        Ok(GhostDbServer {
            cfg,
            state: Mutex::new(ServerState {
                db,
                pending: VecDeque::new(),
                next_seq: 0,
                sessions: Vec::new(),
                stats: BatchStats::default(),
            }),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Open a new session. Sessions are cheap handles; everything they do
    /// takes `&self` on the server.
    pub fn session(&self) -> Session<'_> {
        let mut st = self.state.lock().expect("server state");
        let id = st.sessions.len();
        st.sessions.push(SessionSlot::default());
        Session { server: self, id }
    }

    /// Queries admitted but not yet executed.
    pub fn pending(&self) -> usize {
        self.state.lock().expect("server state").pending.len()
    }

    /// Cumulative batch-scheduler counters.
    pub fn batch_stats(&self) -> BatchStats {
        self.state.lock().expect("server state").stats
    }

    /// Execute every pending query in arrival order and deliver each
    /// outcome to its session. Returns the number of queries executed.
    ///
    /// Per-query failures are delivered to their sessions like results.
    /// `Err` here means the drain infrastructure itself failed (the
    /// analysis fan-out or a banked traversal erroring) before any query
    /// ran: every query taken from the queue then receives that same error
    /// as its outcome, so no session waits on a query that was dropped.
    pub fn drain(&self) -> Result<usize, ServeError> {
        let mut guard = self.state.lock().expect("server state");
        let st = &mut *guard;
        let batch: Vec<Queued> = st.pending.drain(..).collect();
        if batch.is_empty() {
            return Ok(0);
        }
        let prefetch = match self.bank_traversals(st, &batch) {
            Ok(prefetch) => prefetch,
            Err(e) => {
                for item in &batch {
                    let failed = Err(ServeError::Exec(e.clone()));
                    st.sessions[item.session].done.push_back((item.seq, failed));
                }
                return Err(ServeError::Exec(e));
            }
        };

        // Phase 3 — execute the batch on the token's own resources, in
        // arrival order, exactly as a client looping `Executor::run` would.
        let bank = if prefetch.is_empty() {
            None
        } else {
            Some(&prefetch)
        };
        st.stats.batches += 1;
        st.stats.queries += batch.len() as u64;
        let executed = batch.len();
        for item in batch {
            let outcome = Executor::run_prefetched(&mut st.db, &item.query, &item.opts, bank)
                .map(|(result, report)| QueryOutcome {
                    result,
                    report,
                    trace: st.db.untrusted.trace(),
                    transcript: st.db.token.channel.transcript().to_vec(),
                })
                .map_err(ServeError::Exec);
            let slot = &mut st.sessions[item.session];
            if let Ok(out) = &outcome {
                slot.last_trace = Some(out.trace.clone());
            }
            slot.done.push_back((item.seq, outcome));
        }
        Ok(executed)
    }

    /// Phases 1–2 of a drain: find the batch's shared climbing-index
    /// probes and bank one traversal for each.
    fn bank_traversals(
        &self,
        st: &mut ServerState,
        batch: &[Queued],
    ) -> Result<CiPrefetch, ExecError> {
        // Phase 1 — analysis fan-out: extract each query's batchable
        // probe keys (its hidden selections' index + key range) on the
        // worker pool. Only text-derivable probes qualify; a query whose
        // analysis fails contributes no keys and reports its error from
        // execution below, identically to solo.
        let schema = &st.db.schema;
        let cis = &st.db.cis;
        let keys_per_query: Vec<Vec<PrefetchKey>> = crate::parallel::fan_out(
            batch.len(),
            self.cfg.workers,
            || Ok(()),
            |_, i| {
                let Ok(a) = analyze(schema, &batch[i].query) else {
                    return Ok(Vec::new());
                };
                Ok(a.hid_sels
                    .iter()
                    .filter(|sel| cis.contains_key(&(sel.table, sel.pred.column.clone())))
                    .map(|sel| {
                        let (lo, hi) = sel.pred.key_range();
                        (sel.table, sel.pred.column.clone(), lo, hi)
                    })
                    .collect())
            },
        )?;

        // Phase 2 — bank one shared traversal per key demanded ≥ 2 times,
        // in sorted key order (deterministic), on a scratch arena so no
        // query's RAM peak sees the bank's traversals.
        let mut prefetch = CiPrefetch::new();
        if self.cfg.batching {
            let mut demand: BTreeMap<PrefetchKey, u64> = BTreeMap::new();
            for key in keys_per_query.iter().flatten() {
                *demand.entry(key.clone()).or_default() += 1;
            }
            let scratch = st.db.token.ram.fresh_like();
            for (key, n) in demand {
                if n < 2 {
                    continue;
                }
                let (table, column, lo, hi) = key;
                let ci = cis
                    .get(&(table, column))
                    .expect("demanded keys come from the catalog");
                prefetch.insert_traversal(&mut st.db.token.flash, &scratch, ci, lo, hi)?;
                st.stats.shared_keys += 1;
                st.stats.saved_traversals += n - 1;
            }
        }
        Ok(prefetch)
    }

    /// Remove and return a specific completed query of a session.
    fn take_seq(&self, session: usize, seq: u64) -> Option<Result<QueryOutcome, ServeError>> {
        let mut st = self.state.lock().expect("server state");
        let slot = &mut st.sessions[session];
        let at = slot.done.iter().position(|(s, _)| *s == seq)?;
        slot.done.remove(at).map(|(_, outcome)| outcome)
    }
}

/// A session handle: the admission and observation endpoint of one
/// client. All methods take `&self` on the server, so any number of
/// sessions can be driven concurrently.
pub struct Session<'s> {
    server: &'s GhostDbServer,
    id: usize,
}

impl Session<'_> {
    /// This session's id (stable for the server's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Admit a query. Returns the sequence ticket; redeem it implicitly
    /// via [`Session::take`] after a drain.
    pub fn submit(&self, q: &SpjQuery, opts: &ExecOptions) -> Result<u64, ServeError> {
        let mut st = self.server.state.lock().expect("server state");
        if st.pending.len() >= self.server.cfg.queue_depth {
            return Err(ServeError::QueueFull {
                depth: self.server.cfg.queue_depth,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push_back(Queued {
            seq,
            session: self.id,
            query: q.clone(),
            opts: opts.clone(),
        });
        Ok(seq)
    }

    /// Submit, drain and return this query's outcome — the closed-loop
    /// convenience path (other queued queries execute in the same drain).
    pub fn query(&self, q: &SpjQuery, opts: &ExecOptions) -> Result<QueryOutcome, ServeError> {
        let seq = self.submit(q, opts)?;
        // Take this query's outcome even when the drain failed: a failed
        // drain delivers its error to every query it took, and leaving
        // that copy behind would hand it to a later `take`.
        let drained = self.server.drain();
        let outcome = self.server.take_seq(self.id, seq);
        drained?;
        outcome.expect("drained query must deliver an outcome")
    }

    /// Pop this session's oldest undelivered outcome, if any.
    pub fn take(&self) -> Option<Result<QueryOutcome, ServeError>> {
        let mut st = self.server.state.lock().expect("server state");
        st.sessions[self.id].done.pop_front().map(|(_, o)| o)
    }

    /// The host trace of this session's most recently executed query —
    /// session-local (another session's traffic can never clobber it) and
    /// retained across [`Session::take`] delivery.
    pub fn host_trace(&self) -> Option<HostTrace> {
        let st = self.server.state.lock().expect("server state");
        st.sessions[self.id].last_trace.clone()
    }
}

// The server is the unit shared across client threads: the compiler must
// never let a non-Sync field regress that.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GhostDbServer>();
    assert_send_sync::<Session<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ghostdb_storage::{CmpOp, Predicate};
    use ghostdb_token::RamArena;

    fn q(text: &str) -> SpjQuery {
        // Root-only projection on the tiny fixture (T0 is the root).
        let mut q = SpjQuery::new().project(0, "id");
        q.text = text.into();
        q
    }

    #[test]
    fn admission_queue_rejects_past_depth() {
        let db = testkit::tiny_db();
        let server = GhostDbServer::new(db, ServeConfig::new().queue_depth(2)).expect("server");
        let s = server.session();
        let query = q("admit-1");
        s.submit(&query, &ExecOptions::auto()).expect("admit 1");
        s.submit(&query, &ExecOptions::auto()).expect("admit 2");
        match s.submit(&query, &ExecOptions::auto()) {
            Err(ServeError::QueueFull { depth: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Draining frees the queue.
        assert_eq!(server.drain().expect("drain"), 2);
        s.submit(&query, &ExecOptions::auto())
            .expect("admit after drain");
    }

    #[test]
    fn zero_config_rejected_at_build_time() {
        let db = testkit::tiny_db();
        assert!(matches!(
            GhostDbServer::new(db, ServeConfig::new().queue_depth(0)),
            Err(ServeError::Config(_))
        ));
        let db = testkit::tiny_db();
        assert!(matches!(
            GhostDbServer::new(db, ServeConfig::new().workers(0)),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn failed_bank_traversal_delivers_err_to_every_taken_query() {
        let mut db = testkit::wide_key_db();
        // One RAM buffer: fewer than the height of T1's `h1` B+-tree, so
        // the shared traversal the batch banks for it runs out of RAM.
        db.token.ram = RamArena::new(2048, 1);
        let t1 = db.schema.table_id("T1").expect("T1");
        let server = GhostDbServer::new(db, ServeConfig::new().batching(true)).expect("server");
        let a = server.session();
        let b = server.session();
        let hidden = SpjQuery::new()
            .pred(t1, Predicate::new("h1", CmpOp::Lt, testkit::pad8(60), None))
            .project(0, "id");
        a.submit(&hidden, &ExecOptions::auto()).expect("a admitted");
        b.submit(&hidden, &ExecOptions::auto()).expect("b admitted");
        assert!(server.drain().is_err(), "the bank traversal must fail");
        assert_eq!(server.pending(), 0);
        for s in [&a, &b] {
            assert!(matches!(s.take(), Some(Err(ServeError::Exec(_)))));
            assert!(s.take().is_none(), "exactly one outcome per query");
        }
    }

    #[test]
    fn sessions_receive_their_own_outcomes_in_order() {
        let db = testkit::tiny_db();
        let server = GhostDbServer::new(db, ServeConfig::default()).expect("server");
        let a = server.session();
        let b = server.session();
        let qa = q("session-a");
        let qb = q("session-b");
        a.submit(&qa, &ExecOptions::auto()).expect("a1");
        b.submit(&qb, &ExecOptions::auto()).expect("b1");
        a.submit(&qa, &ExecOptions::auto()).expect("a2");
        assert_eq!(server.drain().expect("drain"), 3);
        assert_eq!(server.pending(), 0);
        // Two outcomes for a, one for b, each with a non-empty transcript.
        let a1 = a.take().expect("a has outcomes").expect("a1 ok");
        let a2 = a.take().expect("a has outcomes").expect("a2 ok");
        assert!(a.take().is_none());
        let b1 = b.take().expect("b has outcomes").expect("b1 ok");
        assert!(b.take().is_none());
        for out in [&a1, &a2, &b1] {
            assert!(!out.transcript.is_empty(), "every query contacts the host");
            assert!(!out.trace.is_empty());
        }
    }
}
