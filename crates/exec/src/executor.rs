//! The executor: assembles the Figure 6 global QEP and runs it.

use crate::ctx::{ExecCtx, RunKnobs};
use crate::database::Database;
use crate::optimizer;
use crate::project::{self, ProjectAlgo};
use crate::query::{analyze, SpjQuery};
use crate::report::ExecReport;
use crate::result::ResultSet;
use crate::strategy::{execute_sj, VisDecision};
use crate::Result;
use ghostdb_storage::TableId;

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Per-table pinned decisions (Mixed plans, §3.3); unlisted tables fall
    /// to `forced_strategy` or the optimizer.
    pub strategies: Vec<VisDecision>,
    /// Apply one strategy to every visible selection (the figures sweep a
    /// single visible predicate).
    pub forced_strategy: Option<crate::strategy::VisStrategy>,
    /// Projection algorithm (default: the full Project algorithm).
    pub project: Option<ProjectAlgo>,
    /// Pad every `Vis` shipment to a power-of-two row bucket, quantising
    /// the wire volume a snooper observes (results are unchanged; the
    /// filler bytes are charged to the channel, so reports carry the
    /// padding overhead). See `SECURITY.md`.
    pub padded: bool,
}

impl ExecOptions {
    /// Fully automatic execution (alias of [`ExecOptions::new`]).
    pub fn auto() -> Self {
        ExecOptions::default()
    }

    /// Start a builder chain: `ExecOptions::new().strategy(s).padded(true)`.
    /// The same builder vocabulary is exposed (and threaded through) by the
    /// facade's `QueryOptions`, so there is exactly one way to spell an
    /// execution knob at every layer.
    pub fn new() -> Self {
        ExecOptions::default()
    }

    /// Force one strategy for every visible selection.
    pub fn strategy(mut self, strategy: crate::strategy::VisStrategy) -> Self {
        self.forced_strategy = Some(strategy);
        self
    }

    /// Pin the decision of one table (Mixed plans, §3.3).
    pub fn pin(mut self, decision: VisDecision) -> Self {
        self.strategies.push(decision);
        self
    }

    /// Projection algorithm override.
    pub fn project(mut self, algo: ProjectAlgo) -> Self {
        self.project = Some(algo);
        self
    }

    /// Volume-padded `Vis` shipments (power-of-two row buckets).
    pub fn padded(mut self, padded: bool) -> Self {
        self.padded = padded;
        self
    }
}

/// The query executor.
pub struct Executor;

impl Executor {
    /// Run a query and return its result with the execution report.
    pub fn run(
        db: &mut Database,
        q: &SpjQuery,
        opts: &ExecOptions,
    ) -> Result<(ResultSet, ExecReport)> {
        Self::run_prefetched(db, q, opts, None)
    }

    /// [`Executor::run`] with an optional cross-query prefetch bank (the
    /// serve-mode batch scheduler's shared climbing-index traversals).
    /// With `None` this *is* solo execution; with a bank, probe hits are
    /// billed as-if-solo (`DeviceLane::charge`), so results, every
    /// `ExecReport` field and the host transcript are bit-identical either
    /// way (`tests/serve_equivalence.rs`).
    pub fn run_prefetched<'e>(
        db: &'e mut Database,
        q: &SpjQuery,
        opts: &ExecOptions,
        prefetch: Option<&'e crate::ci_ops::CiPrefetch>,
    ) -> Result<(ResultSet, ExecReport)> {
        db.begin_query();
        // The host-observable trace resets here — with the executor acting
        // as a session of one — not in `begin_query`: serve-mode sessions
        // snapshot their traces per query, so one session's next query
        // must not clobber what another session already observed.
        db.untrusted.reset_trace();
        let mut ctx = ExecCtx::with_knobs(db, RunKnobs::of(opts, prefetch));
        let a = analyze(ctx.cat.schema, q)?;

        // The query travels to the token in the clear (it is the one thing
        // an observer legitimately learns), and the token acknowledges.
        let untrusted = ctx.cat.untrusted;
        let channel = ctx.channel();
        untrusted.submit_query(channel, &q.text);
        channel.send_to_untrusted("query-ack", &[1]);

        // Strategy decisions: pinned tables first, optimizer for the rest.
        let auto = optimizer::decide(&ctx, &a)?;
        let mut decisions: Vec<VisDecision> = Vec::new();
        for d in &auto {
            let pinned = opts.strategies.iter().find(|p| p.table == d.table);
            let mut chosen = pinned.copied().unwrap_or(*d);
            if let Some(forced) = opts.forced_strategy {
                chosen.strategy = forced;
            }
            if let Some(p) = pinned {
                chosen.strategy = p.strategy;
            }
            decisions.push(chosen);
        }

        let root = ctx.cat.schema.root();
        let proj_tables: Vec<TableId> = a
            .projections
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| *t != root)
            .collect();

        let sj = execute_sj(&mut ctx, &a, &decisions, &proj_tables)?;
        let algo = opts.project.unwrap_or(ProjectAlgo::Project);
        let result = project::execute(&mut ctx, &a, sj, algo)?;

        ctx.free_temps()?;
        let mut report = ctx.finish_report();
        report.result_rows = result.rows.len() as u64;
        Ok((result, report))
    }
}
