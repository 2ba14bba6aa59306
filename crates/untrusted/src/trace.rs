//! The host-observable trace: an ordered record of every request the
//! execution engine makes of the Untrusted PC.
//!
//! The channel transcript (`ghostdb_token::Channel`) models what a *wire
//! snooper* sees; the [`HostTrace`] models the strictly larger view of the
//! *host itself* — which store operations it was asked to perform
//! ([`HostOp`]), over which tables, with which request shapes, and how many
//! bytes each response put on the wire. The leakage property suite
//! (`tests/leakage.rs`, `tests/host_trace_determinism.rs`) asserts the
//! GhostDB invariant directly on this trace: it must be a function of the
//! query text and the visible data alone, never of hidden values, and it
//! must be bit-identical across repeats and across fresh databases.
//!
//! [`PadMode`] is the volume-channel countermeasure: in
//! [`PadMode::PowerOfTwo`] every `Vis` shipment is padded to the next
//! power-of-two row bucket, so a snooper comparing wire volumes across
//! queries learns only `⌈log2(selected rows)⌉` instead of the exact count.

use ghostdb_storage::TableId;

/// The kind of request the host served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// The query text was handed to the host for forwarding to the token.
    SubmitQuery,
    /// The planner asked for an exact visible-predicate count.
    Count,
    /// A visible selection: sorted ids under a predicate conjunction.
    Select,
    /// A visible projection: column values for a selected id list.
    Project,
}

impl HostOp {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            HostOp::SubmitQuery => "submit-query",
            HostOp::Count => "count",
            HostOp::Select => "select",
            HostOp::Project => "project",
        }
    }
}

/// One host-observable request/response pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTraceEvent {
    /// What the host was asked to do.
    pub op: HostOp,
    /// Table the request addressed (`None` for query submission).
    pub table: Option<TableId>,
    /// The request shape as the host sees it: predicate conjunction for
    /// `count`/`select`, projected column list for `project`, the query
    /// byte length for `submit-query`. Everything in here is information
    /// the host legitimately holds (the query is public, §3.3).
    pub shape: String,
    /// Bytes of the request itself (the query text for `submit-query`;
    /// zero for store operations, which are implied by the public query).
    pub request_bytes: u64,
    /// Bytes the response contributed to the wire, **as sent**: the
    /// encoded id block in exact mode, the padded bucket in padded mode.
    /// This is the volume a snooper measures.
    pub response_bytes: u64,
    /// Logical items in the response before padding (ids selected, rows
    /// projected, the exact count). The host knows this number regardless
    /// of padding: it computed the selection itself.
    pub items: u64,
}

/// The ordered host-observable trace of one query (or session).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostTrace {
    events: Vec<HostTraceEvent>,
}

impl HostTrace {
    /// Empty trace.
    pub fn new() -> Self {
        HostTrace::default()
    }

    /// Append an event (in host-observation order).
    pub fn record(&mut self, ev: HostTraceEvent) {
        self.events.push(ev);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[HostTraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all events (start of a new query).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Total response volume on the wire (as sent).
    pub fn response_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.response_bytes).sum()
    }
}

impl std::fmt::Display for HostTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            writeln!(
                f,
                "{i:>3}. {:<12} table={:<4} shape={} req={}B resp={}B items={}",
                e.op.name(),
                e.table.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
                e.shape,
                e.request_bytes,
                e.response_bytes,
                e.items,
            )?;
        }
        Ok(())
    }
}

/// Wire-volume padding policy for `Vis` shipments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PadMode {
    /// Ship exactly the selected rows, the ids in their smallest
    /// [`IdCodec`](crate::IdCodec): the wire volume is a function of the
    /// visible ids and the public `|T|`.
    #[default]
    Exact,
    /// Pad every shipment to the next power-of-two row bucket with zero
    /// filler, quantising the observable volume to `2^⌈log2 n⌉` rows.
    PowerOfTwo,
}

impl PadMode {
    /// The padded row count for `n` selected rows. In [`PadMode::Exact`]
    /// this is `n` itself; in [`PadMode::PowerOfTwo`] it is the next power
    /// of two (empty selections still ship one row's worth of filler, so
    /// "matched nothing" is indistinguishable from "matched one").
    pub fn bucket(&self, n: usize) -> usize {
        match self {
            PadMode::Exact => n,
            PadMode::PowerOfTwo => n.max(1).next_power_of_two(),
        }
    }

    /// CLI / transcript-tag name.
    pub fn name(&self) -> &'static str {
        match self {
            PadMode::Exact => "exact",
            PadMode::PowerOfTwo => "pow2",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_bucket_quantises() {
        let p = PadMode::PowerOfTwo;
        assert_eq!(p.bucket(0), 1);
        assert_eq!(p.bucket(1), 1);
        assert_eq!(p.bucket(2), 2);
        assert_eq!(p.bucket(3), 4);
        assert_eq!(p.bucket(5), 8);
        assert_eq!(p.bucket(8), 8);
        assert_eq!(p.bucket(1000), 1024);
    }

    #[test]
    fn exact_bucket_is_identity() {
        let p = PadMode::Exact;
        for n in [0usize, 1, 3, 17, 1000] {
            assert_eq!(p.bucket(n), n);
        }
    }

    #[test]
    fn trace_accumulates_in_order() {
        let mut t = HostTrace::new();
        assert!(t.is_empty());
        t.record(HostTraceEvent {
            op: HostOp::Select,
            table: Some(0),
            shape: "*".into(),
            request_bytes: 0,
            response_bytes: 40,
            items: 10,
        });
        t.record(HostTraceEvent {
            op: HostOp::Project,
            table: Some(0),
            shape: "v1".into(),
            request_bytes: 0,
            response_bytes: 100,
            items: 10,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.response_bytes(), 140);
        assert_eq!(t.events()[0].op, HostOp::Select);
        let shown = t.to_string();
        assert!(shown.contains("select"));
        assert!(shown.contains("project"));
        t.clear();
        assert!(t.is_empty());
    }
}
