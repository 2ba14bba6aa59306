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
//! 3. **Execution.** With one worker (or one query) the queries run in
//!    arrival order on the token's own resources. With more, each runs
//!    concurrently on a worker lane from `LaneCarve` (one allocator
//!    slice per query, carved in arrival order on GC-unpressured chips)
//!    plus a fresh channel and a forked host; a declined attempt, or one
//!    a GC pass overlapped, falls back to the serial loop.
//!
//! Scheduling is deterministic: sequence numbers are assigned under the
//! queue lock at submission and traversal keys are banked in sorted
//! order. Per-query results, every `ExecReport` field, host trace and
//! wire transcript are bit-identical to a plain `Executor::run` loop over
//! the same arrival sequence at any batching and worker setting: batching
//! and workers compress wall-clock work, never the simulated observations
//! (`tests/serve_equivalence.rs`, at one and four chips).

use crate::ci_ops::{CiPrefetch, PrefetchKey};
use crate::ctx::{CatalogCtx, DeviceLane, ExecCtx, RunKnobs};
use crate::database::Database;
use crate::error::ExecError;
use crate::executor::{ExecOptions, Executor};
use crate::query::{analyze, SpjQuery};
use crate::report::ExecReport;
use crate::result::ResultSet;
use ghostdb_flash::{FlashDevice, FlashStats, Segment, SegmentAllocator};
use ghostdb_token::{Channel, RamArena, TranscriptEntry};
use ghostdb_untrusted::{HostTrace, UntrustedHost};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queries queued but not yet executed; submissions past it
    /// are rejected with [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Worker threads of a drain: its analysis fan-out and, with more than
    /// one worker and more than one queued query, its execution (one
    /// isolated resource set per query; outcomes bit-identical to the
    /// serial loop).
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

    /// Drain worker-pool width (analysis and execution).
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
    /// Drains whose batch executed on the worker pool (per-query isolated
    /// resources) rather than the serial loop. Purely observational: the
    /// outcomes are bit-identical either way.
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
    /// Per-query failures are delivered to their sessions like results;
    /// `Err` here means the drain infrastructure itself failed (a banked
    /// traversal or returning a parallel attempt's allocator slices
    /// erroring), in which case no outcome of the batch was delivered and
    /// all its queries were dropped from the queue.
    pub fn drain(&self) -> Result<usize, ServeError> {
        let mut guard = self.state.lock().expect("server state");
        let st = &mut *guard;
        let batch: Vec<Queued> = st.pending.drain(..).collect();
        if batch.is_empty() {
            return Ok(0);
        }

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
        )
        .map_err(ServeError::Exec)?;

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
            // Shared traversals ride the widest read-ahead window any query
            // in the batch asked for: the banked counter delta (and so what
            // every hit bills) is window-independent, only the shared
            // traversal's channel clock improves.
            let bank_window = batch.iter().map(|b| b.opts.read_ahead).max().unwrap_or(0);
            for (key, n) in demand {
                if n < 2 {
                    continue;
                }
                let (table, column, lo, hi) = key;
                let ci = cis
                    .get(&(table, column))
                    .expect("demanded keys come from the catalog");
                prefetch
                    .insert_traversal(&mut st.db.token.flash, &scratch, ci, lo, hi, bank_window)
                    .map_err(ServeError::Exec)?;
                st.stats.shared_keys += 1;
                st.stats.saved_traversals += n - 1;
            }
        }

        // Phase 3 — execute the batch. With one worker (or one query) the
        // serial loop runs each query on the token's own resources, in
        // arrival order, exactly as a client looping `Executor::run` would.
        // With more workers, queries run concurrently on per-query isolated
        // resources (`run_batch_parallel`), and every observable is
        // bit-identical to the serial loop (`tests/serve_equivalence.rs`).
        // A declined or discarded parallel attempt falls back to the
        // serial loop, so parallel drains are always serial-equivalent.
        let bank = if prefetch.is_empty() {
            None
        } else {
            Some(&prefetch)
        };
        st.stats.batches += 1;
        st.stats.queries += batch.len() as u64;
        let executed = batch.len();
        let parallel = if self.cfg.workers > 1 && batch.len() > 1 {
            run_batch_parallel(&mut st.db, &batch, bank, self.cfg.workers)
                .map_err(ServeError::Exec)?
        } else {
            None
        };
        let outcomes: Vec<Result<QueryOutcome, ServeError>> = match parallel {
            Some(done) => {
                st.stats.parallel_drains += 1;
                done.into_iter()
                    .map(|job| match job.outcome {
                        Ok((result, report)) => Ok(QueryOutcome {
                            result,
                            report,
                            trace: job.trace,
                            transcript: job.transcript,
                        }),
                        Err(e) => Err(ServeError::Exec(e)),
                    })
                    .collect()
            }
            None => batch
                .iter()
                .map(|item| {
                    match Executor::run_prefetched(&mut st.db, &item.query, &item.opts, bank) {
                        Ok((result, report)) => Ok(QueryOutcome {
                            result,
                            report,
                            trace: st.db.untrusted.trace(),
                            transcript: st.db.token.channel.transcript().to_vec(),
                        }),
                        Err(e) => Err(ServeError::Exec(e)),
                    }
                })
                .collect(),
        };
        for (item, outcome) in batch.into_iter().zip(outcomes) {
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
        let mut st = self.state.lock().expect("server state");
        let slot = &mut st.sessions[session];
        let at = slot.done.iter().position(|(s, _)| *s == seq)?;
        slot.done.remove(at).map(|(_, outcome)| outcome)
    }
}

/// Smallest allocator slice `LaneCarve` hands a worker: a thinner one
/// would run out of space on queries the undivided pool serves.
const MIN_SLICE_PAGES: u64 = 64;

/// The flash a parallel drain may write: allocator slices carved on
/// GC-unpressured chips, plus the GC counters as they stood at the carve.
///
/// GC is the one scheduling-dependent cost in the FTL: interleaved worker
/// writes land in thread-timing order, so a collection over them has
/// timing-dependent victims and relocation counts. Two defences keep a
/// parallel drain serial-equivalent. The headroom rule keeps an attempt
/// from driving a chip to its watermark itself, and [`Self::gc_fired`]
/// lets the drain discard any attempt a collection did overlap.
#[derive(Debug)]
struct LaneCarve {
    segs: Vec<Segment>,
    gc_before: FlashStats,
}

impl LaneCarve {
    /// Carve `slices` allocator slices and build one `WorkerLane` over
    /// each (in carve order), or decline with `Ok(None)`, leaving `alloc`
    /// as it was.
    ///
    /// * **Eligibility.** A chip hosts slices only while at least 1/8 of
    ///   its physical pages remain programmable before a collection could
    ///   start (`gc_headroom_of(c) * 8 ≥` physical pages). A pressured
    ///   chip stays readable; it just stops hosting slices. The attempt
    ///   declines when no chip is eligible.
    /// * **Placement.** Slice `j` goes to eligible chip `j mod n` and gets
    ///   `free_in_range(chip) / (slices on chip + 1)` pages, keeping one
    ///   share per chip for the token's own later allocations. The
    ///   attempt declines if any slice would be under 64 pages.
    /// * **Rollback.** A fragmented free list can refuse a carve the page
    ///   count allowed: the partial carves are freed and the attempt
    ///   declines.
    ///
    /// Placement is a pure function of the allocator state and `slices`,
    /// never of worker scheduling.
    fn try_carve(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        ram: &RamArena,
        slices: usize,
    ) -> crate::Result<Option<(LaneCarve, Vec<WorkerLane>)>> {
        let (chip_pages, chip_physical) = (dev.chip_pages(), dev.geometry().physical_pages());
        let eligible: Vec<u64> = (0..dev.chip_count() as u64)
            .filter(|&c| dev.gc_headroom_of(c as usize) * 8 >= chip_physical)
            .collect();
        if eligible.is_empty() {
            return Ok(None);
        }
        let on: Vec<u64> = (0..slices).map(|j| eligible[j % eligible.len()]).collect();
        let range = |c: u64| (c * chip_pages, (c + 1) * chip_pages);
        let pages: Vec<u64> = on
            .iter()
            .map(|&c| {
                let (lo, hi) = range(c);
                let sharing = on.iter().filter(|&&d| d == c).count() as u64;
                alloc.free_in_range(lo, hi) / (sharing + 1)
            })
            .collect();
        if pages.iter().any(|&p| p < MIN_SLICE_PAGES) {
            return Ok(None);
        }
        let mut segs = Vec::with_capacity(slices);
        for (&c, &p) in on.iter().zip(&pages) {
            let (lo, hi) = range(c);
            let Ok(seg) = alloc.alloc_in_range(p, lo, hi) else {
                for seg in segs {
                    alloc.free(seg, dev)?;
                }
                return Ok(None);
            };
            segs.push(seg);
        }
        let workers = segs
            .iter()
            .map(|seg| WorkerLane {
                flash: dev.fork(),
                arena: ram.fresh_like(),
                alloc: SegmentAllocator::over(seg.start(), seg.pages()),
            })
            .collect();
        let carve = LaneCarve {
            segs,
            gc_before: dev.stats(),
        };
        Ok(Some((carve, workers)))
    }

    /// Whether garbage collection ran on `dev` since the carve. A tainted
    /// attempt's costs depend on scheduling: discard it and replay
    /// serially.
    fn gc_fired(&self, dev: &FlashDevice) -> bool {
        let (now, was) = (dev.stats(), &self.gc_before);
        now.blocks_erased != was.blocks_erased
            || now.gc_pages_read != was.gc_pages_read
            || now.gc_pages_written != was.gc_pages_written
    }

    /// Return every slice to `alloc`. Frees trim, so any page a worker
    /// wrote (error-path stragglers included) leaves the logical image.
    fn release(self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> crate::Result<()> {
        for seg in self.segs {
            alloc.free(seg, dev)?;
        }
        Ok(())
    }
}

/// One job's resources for a parallel drain: a forked handle onto the
/// shared chip array, a fresh arena (same geometry as the token's, so
/// RAM-driven decisions match the serial loop exactly) and an allocator
/// over one carved slice.
#[derive(Debug)]
struct WorkerLane {
    flash: FlashDevice,
    arena: RamArena,
    alloc: SegmentAllocator,
}

impl WorkerLane {
    /// A device lane over these resources.
    fn device_lane(&mut self) -> DeviceLane<'_> {
        DeviceLane::new(&mut self.flash, self.arena.clone(), &mut self.alloc)
    }
}

/// Everything one parallel drain job produced. The job ran on a fresh
/// arena, which starts where `Database::begin_query` leaves the token's,
/// so its report's RAM peak already equals the serial loop's.
struct JobDone {
    outcome: Result<(ResultSet, ExecReport), ExecError>,
    trace: HostTrace,
    transcript: Vec<TranscriptEntry>,
}

/// Per-query isolated execution resources of one parallel drain job: a
/// worker lane from `LaneCarve` plus a fresh channel and a forked host.
struct JobRes {
    lane: WorkerLane,
    channel: Channel,
    host: UntrustedHost,
}

/// Execute a drained batch on the worker pool, one isolated resource set
/// and one allocator slice per query. Returns `Ok(None)` when
/// `LaneCarve` declines or the attempt must be discarded (a job's
/// infrastructure failed, or GC fired mid-batch); the caller then runs the
/// plain serial loop. The attempt leaves no trace on the token: fresh
/// channels and hosts are dropped, and releasing the slices trims every
/// page the jobs wrote.
fn run_batch_parallel(
    db: &mut Database,
    batch: &[Queued],
    bank: Option<&CiPrefetch>,
    workers: usize,
) -> Result<Option<Vec<JobDone>>, ExecError> {
    // Slices are carved in arrival order under the drain lock, so flash
    // placement is a pure function of the admitted sequence, never of
    // worker scheduling.
    let Some((carve, lanes)) = LaneCarve::try_carve(
        &mut db.token.flash,
        &mut db.alloc,
        &db.token.ram,
        batch.len(),
    )?
    else {
        return Ok(None);
    };
    let resources: Vec<Mutex<JobRes>> = lanes
        .into_iter()
        .map(|lane| {
            Mutex::new(JobRes {
                lane,
                channel: db.token.channel.fresh_like(),
                host: db.untrusted.fork(),
            })
        })
        .collect();
    let cat = CatalogCtx {
        schema: &db.schema,
        rows: &db.rows,
        hidden: &db.hidden,
        skts: &db.skts,
        cis: &db.cis,
        untrusted: &db.untrusted,
    };
    let done = crate::parallel::fan_out(
        batch.len(),
        workers,
        || Ok(()),
        |_, i| {
            let mut res = resources[i].lock().expect("job resources");
            let JobRes {
                lane,
                channel,
                host,
            } = &mut *res;
            let item = &batch[i];
            let cat = CatalogCtx {
                untrusted: &*host,
                ..cat
            };
            let knobs = RunKnobs::of(&item.opts, bank);
            let mut ctx = ExecCtx::assemble(cat, lane.device_lane(), channel, knobs);
            let outcome = Executor::run_body(&mut ctx, &item.query, &item.opts);
            Ok(JobDone {
                outcome,
                trace: res.host.trace(),
                transcript: res.channel.transcript().to_vec(),
            })
        },
    );
    let gc_fired = carve.gc_fired(&db.token.flash);
    carve.release(&mut db.token.flash, &mut db.alloc)?;
    Ok(done.ok().filter(|_| !gc_fired))
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
        self.server.drain()?;
        self.server
            .take_seq(self.id, seq)
            .expect("drained query must deliver an outcome")
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
    use ghostdb_flash::FlashTiming;

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

    /// A `chips`-chip device of 288 logical (320 physical) pages per chip,
    /// with a striped allocator and a small arena.
    fn tiny_device(chips: usize) -> (FlashDevice, SegmentAllocator, RamArena) {
        let geometry = ghostdb_flash::FlashGeometry {
            page_size: 256,
            pages_per_block: 8,
            block_count: 40,
            spare_blocks: 4,
        };
        let dev = FlashDevice::with_chips(geometry, FlashTiming::default(), chips);
        let alloc = SegmentAllocator::with_chips(dev.logical_pages(), chips);
        (dev, alloc, RamArena::new(256, 8))
    }

    /// Program every logical page of `chip`, leaving it under 1/8 GC
    /// headroom (the allocator does not see these writes).
    fn pressure(dev: &mut FlashDevice, chip: u64) {
        let pages = dev.chip_pages();
        for lpn in chip * pages..(chip + 1) * pages {
            dev.write(lpn, &[1; 8]).unwrap();
        }
        assert!(dev.gc_headroom_of(chip as usize) * 8 < dev.geometry().physical_pages());
    }

    #[test]
    fn lane_carve_skips_gc_pressured_chips() {
        let (mut dev, mut alloc, ram) = tiny_device(4);
        pressure(&mut dev, 1);
        let (carve, workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 3)
            .unwrap()
            .expect("three chips are still eligible");
        let chips: Vec<usize> = carve
            .segs
            .iter()
            .map(|s| alloc.chip_of(s.start()))
            .collect();
        assert_eq!(chips, vec![0, 2, 3]);
        for (w, seg) in workers.iter().zip(&carve.segs) {
            assert_eq!(w.alloc.total_pages(), seg.pages());
            assert_eq!(seg.pages(), dev.chip_pages() / 2);
        }
        carve.release(&mut dev, &mut alloc).unwrap();
    }

    #[test]
    fn lane_carve_declines_when_every_chip_is_pressured() {
        let (mut dev, mut alloc, ram) = tiny_device(2);
        pressure(&mut dev, 0);
        pressure(&mut dev, 1);
        let before = format!("{alloc:?}");
        assert!(LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .is_none());
        assert_eq!(
            format!("{alloc:?}"),
            before,
            "a declined carve carves nothing"
        );
    }

    #[test]
    fn lane_carve_rolls_back_a_refused_carve() {
        // A 100-page hole, eight 10-page holes and an 18-page tail: 198
        // free pages size each of two slices at 66. The first fits the
        // 100-page hole; the second fits nowhere.
        let (mut dev, mut alloc, ram) = tiny_device(1);
        let big = alloc.alloc(100).unwrap();
        let small: Vec<Segment> = (0..18).map(|_| alloc.alloc(10).unwrap()).collect();
        alloc.free(big, &mut dev).unwrap();
        for seg in small.into_iter().skip(1).step_by(2) {
            alloc.free(seg, &mut dev).unwrap();
        }
        assert_eq!(alloc.free_pages(), 198);
        let before = format!("{alloc:?}");
        assert!(LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .is_none());
        assert_eq!(format!("{alloc:?}"), before, "the partial carve leaked");
    }

    #[test]
    fn released_slices_restore_the_free_pool() {
        let (mut dev, mut alloc, ram) = tiny_device(4);
        let before = (alloc.free_pages(), format!("{alloc:?}"));
        let (carve, workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 6)
            .unwrap()
            .expect("a fresh device hosts six slices");
        assert_eq!(workers.len(), 6);
        assert!(alloc.free_pages() < before.0);
        assert!(!carve.gc_fired(&dev));
        carve.release(&mut dev, &mut alloc).unwrap();
        assert_eq!((alloc.free_pages(), format!("{alloc:?}")), before);
    }

    #[test]
    fn lane_carve_reports_gc_during_the_attempt() {
        let (mut dev, mut alloc, ram) = tiny_device(1);
        let (carve, _workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .expect("a fresh device hosts two slices");
        // Rewriting the whole logical space twice overflows the spares.
        for _ in 0..2 {
            for lpn in 0..dev.chip_pages() {
                dev.write(lpn, &[2; 8]).unwrap();
            }
        }
        assert!(carve.gc_fired(&dev));
        carve.release(&mut dev, &mut alloc).unwrap();
    }
}
