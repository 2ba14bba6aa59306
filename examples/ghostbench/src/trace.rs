//! The traced pass: spans recorded around the benchmark's calls into each
//! module's public functions, and the per-layer counters folded from what
//! those calls return. Nothing inside the library is instrumented.
//!
//! Sensitivity: the counters here (result rows, pages per lookup, bytes
//! shipped) are exact hidden-side cardinalities — the input of a volume
//! attack. They are token-side observations for the operator of the
//! benchmark and never cross the simulated `Channel`.

use ghostdb_exec::report::split_rw;
use ghostdb_exec::{ExecReport, HostTrace, OpKind};
use ghostdb_flash::FlashTiming;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The operation (query or load) the span belongs to; `None` for work
    /// shared by many operations, such as a serve drain.
    pub op: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder; spans are written out only at exit (`--out`).
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an already-timed interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Open a root span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None, Some(op))
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let op = self.spans[parent].op;
        self.record(name, start, Instant::now(), Some(parent), op);
        out
    }

    /// Total duration of every span called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of the spans called `name` (0 when there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_us(name) / n as f64
        }
    }

    /// Share of the time of the `root` spans that none of their direct
    /// children covers, in %.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.name == root && s.parent.is_none() {
                total += s.dur_ns();
                uncovered += s.dur_ns().saturating_sub(*c);
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * uncovered as f64 / total as f64
        }
    }

    /// The spans as JSON objects, one per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Per-operation sums folded from [`ExecReport`]s and [`HostTrace`]s.
#[derive(Default)]
pub struct ReportAcc {
    ops: u64,
    op_ns: [u128; OpKind::ALL.len()],
    comm_ns: u128,
    bytes_to_secure: u64,
    ram_peak: usize,
    pages_read: u64,
    pages_written: u64,
    blocks_erased: u64,
    gc_pages: u64,
    read_ns: u128,
    write_ns: u128,
    unattributed_ns: i128,
    host_ops: u64,
    response_bytes: u64,
}

impl ReportAcc {
    /// Fold one query's report. Fails when the simulated decomposition
    /// does not add up: every nanosecond of `total()` must sit in exactly
    /// one operator bucket or in the channel.
    pub fn add(
        &mut self,
        rep: &ExecReport,
        timing: &FlashTiming,
        page_size: usize,
    ) -> Result<(), String> {
        let mut ops = 0u128;
        for (slot, kind) in self.op_ns.iter_mut().zip(OpKind::ALL) {
            let ns = rep.op(kind).as_ns();
            *slot += ns;
            ops += ns;
        }
        if ops + rep.comm.as_ns() != rep.total().as_ns() {
            return Err(format!(
                "operator buckets ({ops} ns) + channel ({} ns) != simulated total ({} ns)",
                rep.comm.as_ns(),
                rep.total().as_ns()
            ));
        }
        self.ops += 1;
        self.comm_ns += rep.comm.as_ns();
        self.bytes_to_secure += rep.bytes_to_secure;
        self.ram_peak = self.ram_peak.max(rep.peak_ram_buffers);
        let (r, w) = self.add_io(&rep.io, timing, page_size);
        self.unattributed_ns += (r + w) as i128 - ops as i128;
        Ok(())
    }

    /// Fold one ingest load: its device counters, with the flash clock
    /// the load was billed as the attributed time.
    pub fn add_load(
        &mut self,
        io: &ghostdb_flash::FlashStats,
        billed_ns: u128,
        timing: &FlashTiming,
        page_size: usize,
    ) {
        self.ops += 1;
        let (r, w) = self.add_io(io, timing, page_size);
        self.unattributed_ns += (r + w) as i128 - billed_ns as i128;
    }

    fn add_io(
        &mut self,
        io: &ghostdb_flash::FlashStats,
        timing: &FlashTiming,
        page_size: usize,
    ) -> (u128, u128) {
        self.pages_read += io.total_pages_read();
        self.pages_written += io.total_pages_written();
        self.blocks_erased += io.blocks_erased;
        self.gc_pages += io.gc_pages_written;
        let (r, w) = split_rw(io, timing, page_size);
        self.read_ns += r.as_ns();
        self.write_ns += w.as_ns();
        (r.as_ns(), w.as_ns())
    }

    pub fn add_host(&mut self, trace: &HostTrace) {
        self.host_ops += trace.len() as u64;
        self.response_bytes += trace.response_bytes();
    }

    /// Per-operation means into the per-layer metric map.
    pub fn emit(&self, m: &mut Layers) {
        let n = self.ops.max(1) as f64;
        let per_ms = |ns: f64| ns / n / 1e6;
        for (kind, ns) in OpKind::ALL.iter().zip(self.op_ns) {
            if let Some(name) = op_metric(*kind) {
                m.set(name, per_ms(ns as f64));
            }
        }
        m.set("token.comm_ms", per_ms(self.comm_ns as f64));
        m.set("token.bytes_to_secure", self.bytes_to_secure as f64 / n);
        m.set("token.ram_peak_buffers", self.ram_peak as f64);
        m.set("flash.pages_read", self.pages_read as f64 / n);
        m.set("flash.pages_written", self.pages_written as f64 / n);
        m.set("flash.read_sim_ms", per_ms(self.read_ns as f64));
        m.set("flash.write_sim_ms", per_ms(self.write_ns as f64));
        m.set("flash.blocks_erased", self.blocks_erased as f64 / n);
        m.set("flash.gc_pages", self.gc_pages as f64 / n);
        m.set(
            "flash.unattributed_sim_ms",
            per_ms(self.unattributed_ns as f64),
        );
        m.set("untrusted.host_ops", self.host_ops as f64 / n);
        m.set("untrusted.response_bytes", self.response_bytes as f64 / n);
    }
}

/// The per-layer metric name of an operator bucket. Vis, Bloom and
/// BruteForce read 0 on every workload in the shipped configuration — a
/// shipment costs only channel time (`token.comm_ms`), select-join Bloom
/// filters live in RAM, and projection defaults to the Project algorithm —
/// so they are checked in the decomposition but not reported.
fn op_metric(kind: OpKind) -> Option<&'static str> {
    match kind {
        OpKind::Ci => Some("exec.op.CI.sim_ms"),
        OpKind::Merge => Some("exec.op.Merge.sim_ms"),
        OpKind::SJoin => Some("exec.op.SJoin.sim_ms"),
        OpKind::Store => Some("exec.op.Store.sim_ms"),
        OpKind::Partition => Some("exec.op.Partition.sim_ms"),
        OpKind::ProjBloom => Some("exec.op.ProjBloom.sim_ms"),
        OpKind::MJoin => Some("exec.op.MJoin.sim_ms"),
        OpKind::FinalJoin => Some("exec.op.FinalJoin.sim_ms"),
        OpKind::Vis | OpKind::Bloom | OpKind::BruteForce => None,
    }
}

/// Every per-layer metric with its unit, in output order. A workload that
/// does not exercise a layer reports 0 for it.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("core.parse_us", "us"),
    ("core.stage_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("exec.optimizer.decide_us", "us"),
    ("exec.optimizer.regret_max", "ratio"),
    ("exec.run_ms", "ms"),
    ("exec.op.CI.sim_ms", "ms"),
    ("exec.op.Merge.sim_ms", "ms"),
    ("exec.op.SJoin.sim_ms", "ms"),
    ("exec.op.Store.sim_ms", "ms"),
    ("exec.op.Partition.sim_ms", "ms"),
    ("exec.op.ProjBloom.sim_ms", "ms"),
    ("exec.op.MJoin.sim_ms", "ms"),
    ("exec.op.FinalJoin.sim_ms", "ms"),
    ("serve.drain_ms_p50", "ms"),
    ("serve.shared_probe_share", "ratio"),
    ("serve.parallel_drain_share", "ratio"),
    ("untrusted.vis_us", "us"),
    ("untrusted.host_ops", "count"),
    ("untrusted.response_bytes", "bytes"),
    ("token.comm_ms", "ms"),
    ("token.bytes_to_secure", "bytes"),
    ("token.ram_peak_buffers", "count"),
    ("index.ci_lookup_us", "us"),
    ("index.ci_pages_per_lookup", "count"),
    ("index.bytes_per_user_byte", "ratio"),
    ("storage.table_bytes_per_user_byte", "ratio"),
    ("flash.pages_read", "count"),
    ("flash.pages_written", "count"),
    ("flash.read_sim_ms", "ms"),
    ("flash.write_sim_ms", "ms"),
    ("flash.blocks_erased", "count"),
    ("flash.gc_pages", "count"),
    ("flash.unattributed_sim_ms", "ms"),
    ("wall.lat_p50_ms", "ms"),
    ("wall.lat_p95_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Per-layer values by name; [`Layers::into_metrics`] fills the gaps.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| (*name, self.0.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    }
}
