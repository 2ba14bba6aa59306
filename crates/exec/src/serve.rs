//! The in-process GhostDB server: sessions and admission control.
//!
//! The paper's token serves one client; this module is the skeleton for
//! serving many. A [`GhostDbServer`] owns the finalized [`Database`] (one
//! immutable catalog every execution borrows) and hands out [`Session`]
//! handles whose methods all take `&self` on the server: submissions land
//! in a bounded admission queue ([`ServeError::QueueFull`] past its depth)
//! and execute when the queue drains. A drain runs the queued queries one
//! after another, in arrival order, with [`Executor::run`] on the token's
//! own resources, as the paper's one secure chip runs one query at a time.
//!
//! Scheduling is deterministic: sequence numbers are assigned under the
//! queue lock at submission. Per-query results, every `ExecReport` field,
//! host trace and wire transcript are bit-identical to a plain
//! `Executor::run` loop over the same arrival sequence
//! (`tests/serve_equivalence.rs`).
//!
//! A query that panics does not take the server down: the drain catches
//! the unwind and delivers it as that query's [`ServeError::Panicked`]
//! outcome, and every later call still finds the server state usable.

use crate::database::Database;
use crate::error::ExecError;
use crate::executor::{ExecOptions, Executor};
use crate::query::SpjQuery;
use crate::report::ExecReport;
use crate::result::ResultSet;
use ghostdb_token::TranscriptEntry;
use ghostdb_untrusted::HostTrace;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queries queued but not yet executed; submissions past it
    /// are rejected with [`ServeError::QueueFull`].
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_depth: 16 }
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

    /// No-op: a drain runs on the calling thread. Kept so callers that
    /// still set a worker count build unchanged.
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// No-op: every drain runs its queries one after another, each
    /// exactly as solo. Kept so callers that still toggle batching build
    /// unchanged.
    pub fn batching(self, _on: bool) -> Self {
        self
    }

    /// Reject invalid combinations at build time.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be ≥ 1".into()));
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
    /// The query panicked; the message is the panic's payload.
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Exec(e) => write!(f, "query failed: {e}"),
            ServeError::Panicked(msg) => write!(f, "query panicked: {msg}"),
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

/// Drain observability counters (cumulative across drains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Drains that executed at least one query.
    pub batches: u64,
    /// Queries executed.
    pub queries: u64,
    /// Always 0: no drain shares work between queries. Kept for
    /// ghostbench's `serve.shared_probe_share` until the next benchmark
    /// change.
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

    /// Lock the server state. A drain runs each query under
    /// `catch_unwind`, so no query's panic poisons the lock. Every other
    /// update under it (a queue push or drain, a counter, a session's
    /// outcome deque) leaves the state valid at each step, so a poisoned
    /// guard is taken as it is.
    fn state(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a new session. Sessions are cheap handles; everything they do
    /// takes `&self` on the server.
    pub fn session(&self) -> Session<'_> {
        let mut st = self.state();
        let id = st.sessions.len();
        st.sessions.push(SessionSlot::default());
        Session { server: self, id }
    }

    /// Queries admitted but not yet executed.
    pub fn pending(&self) -> usize {
        self.state().pending.len()
    }

    /// Cumulative drain counters.
    pub fn batch_stats(&self) -> BatchStats {
        self.state().stats
    }

    /// Execute every pending query in arrival order and deliver each
    /// outcome to its session. Returns the number of queries executed.
    ///
    /// Per-query failures, panics included, are delivered to their
    /// sessions like results; the drain itself never fails. It keeps its
    /// `Result` so callers written against a fallible drain build
    /// unchanged.
    pub fn drain(&self) -> Result<usize, ServeError> {
        self.drain_with(execute)
    }

    /// [`Self::drain`] with `run` executing each query, under
    /// `catch_unwind`: a panic becomes that query's outcome.
    fn drain_with(
        &self,
        run: impl Fn(&mut Database, &Queued) -> Result<QueryOutcome, ServeError>,
    ) -> Result<usize, ServeError> {
        let mut guard = self.state();
        let st = &mut *guard;
        let batch: Vec<Queued> = st.pending.drain(..).collect();
        if batch.is_empty() {
            return Ok(0);
        }
        st.stats.batches += 1;
        st.stats.queries += batch.len() as u64;
        let executed = batch.len();
        for item in batch {
            let db = &mut st.db;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(db, &item)))
                .unwrap_or_else(|payload| Err(ServeError::Panicked(panic_message(&*payload))));
            let slot = &mut st.sessions[item.session];
            if let Ok(out) = &outcome {
                slot.last_trace = Some(out.trace.clone());
            }
            slot.done.push_back((item.seq, outcome));
        }
        Ok(executed)
    }

    /// Remove and return a specific completed query of a session.
    fn take_seq(&self, session: usize, seq: u64) -> Option<Result<QueryOutcome, ServeError>> {
        let mut st = self.state();
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
        let mut st = self.server.state();
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
        self.server.drain()?;
        self.server
            .take_seq(self.id, seq)
            .expect("drained query must deliver an outcome")
    }

    /// Pop this session's oldest undelivered outcome, if any.
    pub fn take(&self) -> Option<Result<QueryOutcome, ServeError>> {
        let mut st = self.server.state();
        st.sessions[self.id].done.pop_front().map(|(_, o)| o)
    }

    /// The host trace of this session's most recently executed query —
    /// session-local (another session's traffic can never clobber it) and
    /// retained across [`Session::take`] delivery.
    pub fn host_trace(&self) -> Option<HostTrace> {
        self.server.state().sessions[self.id].last_trace.clone()
    }
}

/// Run one admitted query on `db` and capture what it produced.
fn execute(db: &mut Database, item: &Queued) -> Result<QueryOutcome, ServeError> {
    let (result, report) = Executor::run(db, &item.query, &item.opts)?;
    Ok(QueryOutcome {
        result,
        report,
        trace: db.untrusted.trace(),
        transcript: db.token.channel.transcript().to_vec(),
    })
}

/// The text of a panic's payload (`panic!`'s message), or a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string payload".into())
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
    }

    #[test]
    fn buffers_smaller_than_a_page_fail_each_taken_query() {
        let mut db = testkit::tiny_db();
        db.token.ram = RamArena::new(512, 32);
        let t1 = db.schema.table_id("T1").expect("T1");
        let server = GhostDbServer::new(db, ServeConfig::new()).expect("server");
        let a = server.session();
        let b = server.session();
        let hidden = SpjQuery::new()
            .pred(t1, Predicate::new("h1", CmpOp::Lt, testkit::pad8(2), None))
            .project(0, "id");
        a.submit(&hidden, &ExecOptions::auto()).expect("admitted");
        b.submit(&hidden, &ExecOptions::auto()).expect("admitted");
        a.submit(&hidden, &ExecOptions::auto()).expect("admitted");
        assert_eq!(server.drain().expect("drain"), 3);
        assert_eq!(server.pending(), 0);
        for (s, n) in [(&a, 2), (&b, 1)] {
            for _ in 0..n {
                assert!(matches!(
                    s.take(),
                    Some(Err(ServeError::Exec(ExecError::Token(
                        ghostdb_token::TokenError::BufferTooSmall { .. }
                    ))))
                ));
            }
            assert!(s.take().is_none(), "exactly one outcome per query");
        }
    }

    #[test]
    fn a_panicking_query_is_its_own_error_and_the_server_keeps_serving() {
        let db = testkit::tiny_db();
        let server = GhostDbServer::new(db, ServeConfig::default()).expect("server");
        let a = server.session();
        let b = server.session();
        a.submit(&q("panics"), &ExecOptions::auto()).expect("a1");
        b.submit(&q("runs"), &ExecOptions::auto()).expect("b1");
        let drained = server.drain_with(|db, item| {
            if item.query.text == "panics" {
                panic!("injected fault");
            }
            execute(db, item)
        });
        assert_eq!(drained.expect("drain"), 2);
        match a.take() {
            Some(Err(ServeError::Panicked(msg))) => assert_eq!(msg, "injected fault"),
            other => panic!("expected the panic as a's outcome, got {other:?}"),
        }
        assert!(b.take().expect("b has an outcome").is_ok());
        // The state is not poisoned: every call still answers.
        assert_eq!(server.pending(), 0);
        assert_eq!(
            server.batch_stats(),
            BatchStats {
                batches: 1,
                queries: 2,
                ..BatchStats::default()
            }
        );
        a.submit(&q("after"), &ExecOptions::auto()).expect("a2");
        assert_eq!(server.pending(), 1);
        assert_eq!(server.drain().expect("drain"), 1);
        assert!(a.take().expect("a has an outcome").is_ok());
        assert_eq!(server.batch_stats().queries, 3);
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
