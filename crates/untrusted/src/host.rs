//! The `Vis` operator's PC half: evaluate visible predicates, ship sorted
//! ids (and optionally visible values) into the token over the channel.
//!
//! Every request the engine makes of the host is recorded in a
//! [`HostTrace`] — the leakage auditor's ground truth for "what did the
//! untrusted side observe" — and every shipment can be padded to a
//! power-of-two row bucket ([`PadMode::PowerOfTwo`]) to quantise the
//! volume a wire snooper measures.

use crate::codec::{self, IdCodec};
use crate::store::VisibleStore;
use crate::trace::{HostOp, HostTrace, HostTraceEvent, PadMode};
use ghostdb_storage::{CmpOp, Id, Predicate, Result, TableId, Value, ID_BYTES};
use ghostdb_token::Channel;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a `Vis(Q, T, π)` call delivered into the token.
///
/// The payload conceptually streams through the token's dedicated channel
/// buffer (§3.4: "a specific buffer is dedicated to the communication
/// channel … no RAM consumption"), so operators may iterate it without
/// charging the RAM arena; its transfer cost is charged to the channel at
/// ship time.
#[derive(Debug, Clone)]
pub struct VisShipment {
    /// Table the shipment is about.
    pub table: TableId,
    /// Sorted ids satisfying the visible predicates (in exact mode, as
    /// the token decoded them from the wire).
    pub ids: Vec<Id>,
    /// Projected visible columns (parallel to `ids`), in request order.
    pub columns: Vec<(String, Vec<Value>)>,
}

/// Canonical request-shape string for a predicate conjunction, as the host
/// sees it (values included: the query is public, §3.3).
fn fmt_preds(preds: &[Predicate]) -> String {
    if preds.is_empty() {
        return "*".into();
    }
    preds
        .iter()
        .map(|p| match (&p.op, &p.value2) {
            (CmpOp::Between, Some(hi)) => {
                format!("{} between {:?} and {hi:?}", p.column, p.value)
            }
            _ => {
                let op = match p.op {
                    CmpOp::Eq => "=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Between => "between",
                };
                format!("{}{op}{:?}", p.column, p.value)
            }
        })
        .collect::<Vec<_>>()
        .join(" & ")
}

/// The Untrusted PC: visible store + the sending end of the channel + the
/// host-observable request trace.
#[derive(Debug)]
pub struct UntrustedHost {
    /// Read-only after load.
    store: VisibleStore,
    /// Interior mutability: the catalog lane hands out `&UntrustedHost`,
    /// and queries run one at a time, each contacting the host only
    /// through its one channel, one request at a time, so the lock is
    /// uncontended and the recorded order is the true serial
    /// host-observation order.
    trace: Mutex<HostTrace>,
}

impl UntrustedHost {
    /// Host over a loaded visible store.
    pub fn new(store: VisibleStore) -> Self {
        UntrustedHost {
            store,
            trace: Mutex::new(HostTrace::new()),
        }
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &VisibleStore {
        &self.store
    }

    /// Snapshot of the host-observable trace recorded so far.
    pub fn trace(&self) -> HostTrace {
        self.trace_lock().clone()
    }

    /// Clear the trace (start of a new query).
    pub fn reset_trace(&self) {
        self.trace_lock().clear();
    }

    fn record(&self, ev: HostTraceEvent) {
        self.trace_lock().record(ev);
    }

    /// The trace is plain data, valid after any panic that poisoned its
    /// lock, so a poisoned lock is recovered rather than propagated.
    fn trace_lock(&self) -> MutexGuard<'_, HostTrace> {
        self.trace.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Receive the query (PC → token metadata transfer; this is the *only*
    /// thing the token ever acknowledges back, and the only flow a snooper
    /// sees leaving the PC besides visible data). Only the byte length
    /// enters the trace shape: the text itself is in the channel
    /// transcript, and keeping it out of the trace makes "same-shape
    /// queries trace identically" directly assertable.
    pub fn submit_query(&self, channel: &mut Channel, query_text: &str) {
        self.record(HostTraceEvent {
            op: HostOp::SubmitQuery,
            table: None,
            shape: format!("query[{}B]", query_text.len()),
            request_bytes: query_text.len() as u64,
            response_bytes: 0,
            items: 0,
        });
        channel.send_to_secure("query", query_text.as_bytes());
    }

    /// Exact visible-predicate count for the planner, recorded as a host
    /// observation. No bytes move: the count is knowledge the host already
    /// has (it evaluates the selection itself), which is exactly why the
    /// trace must carry it — it is part of what the untrusted side sees.
    pub fn count(&self, t: TableId, preds: &[Predicate]) -> Result<u64> {
        let n = self.store.count(t, preds)?;
        self.record(HostTraceEvent {
            op: HostOp::Count,
            table: Some(t),
            shape: fmt_preds(preds),
            request_bytes: 0,
            response_bytes: 0,
            items: n,
        });
        Ok(n)
    }

    /// `Vis(Q, T, π)` at the default (exact, unpadded) volume.
    pub fn vis(
        &self,
        channel: &mut Channel,
        table: TableId,
        table_name: &str,
        preds: &[Predicate],
        projection: &[String],
    ) -> Result<VisShipment> {
        self.vis_with(
            channel,
            table,
            table_name,
            preds,
            projection,
            PadMode::Exact,
        )
    }

    /// `Vis(Q, T, π)`: evaluate all visible predicates of `Q` on `T`, ship
    /// the sorted id list plus the values of the `π` columns.
    ///
    /// In [`PadMode::Exact`] the id block goes out in the smallest
    /// [`IdCodec`] over the public domain `0..|T|`, and the token decodes
    /// the shipment's ids from the bytes that crossed the wire. A padded
    /// shipment keeps raw 4-byte ids and every block is zero-filled to
    /// `pad`'s row bucket, so two same-bucket selections ship the same
    /// bytes. Projected values are fixed-width in both modes.
    ///
    /// The transfer is recorded on the channel with a tag naming the table,
    /// projection and (when padding) the bucket, so the transcript is
    /// self-describing; the select/project requests land in the
    /// [`HostTrace`] with their wire volumes.
    pub fn vis_with(
        &self,
        channel: &mut Channel,
        table: TableId,
        table_name: &str,
        preds: &[Predicate],
        projection: &[String],
        pad: PadMode,
    ) -> Result<VisShipment> {
        let ids = self.store.select(table, preds)?;
        let rows = self.store.project(table, &ids, projection)?;
        let vis_table = self.store.table(table);
        let bucket = pad.bucket(ids.len());
        let filler_rows = bucket - ids.len();
        // Serialise for the wire: the id block, then column values at
        // fixed widths, each block zero-filled to the pad bucket.
        let mut payload = Vec::new();
        if pad == PadMode::Exact {
            IdCodec::choose(&ids, vis_table.rows).encode(&ids, vis_table.rows, &mut payload);
        } else {
            payload.reserve(bucket * ID_BYTES);
            for id in &ids {
                payload.extend_from_slice(&id.to_le_bytes());
            }
            payload.resize(bucket * ID_BYTES, 0);
        }
        self.record(HostTraceEvent {
            op: HostOp::Select,
            table: Some(table),
            shape: fmt_preds(preds),
            request_bytes: 0,
            response_bytes: payload.len() as u64,
            items: ids.len() as u64,
        });
        let mut columns: Vec<(String, Vec<Value>)> = projection
            .iter()
            .map(|c| (c.clone(), Vec::with_capacity(ids.len())))
            .collect();
        for row in rows {
            for (slot, v) in columns.iter_mut().zip(row) {
                slot.1.push(v);
            }
        }
        let mut widths_sum = 0usize;
        for (name, values) in &columns {
            let ty = vis_table.column(name)?.ty;
            widths_sum += ty.width();
            let mut buf = vec![0u8; ty.width()];
            for v in values {
                v.encode(&ty, &mut buf)?;
                payload.extend_from_slice(&buf);
            }
            payload.resize(payload.len() + filler_rows * ty.width(), 0);
        }
        if !projection.is_empty() {
            self.record(HostTraceEvent {
                op: HostOp::Project,
                table: Some(table),
                shape: projection.join("+"),
                request_bytes: 0,
                response_bytes: (bucket * widths_sum) as u64,
                items: ids.len() as u64,
            });
        }
        let mut tag = if projection.is_empty() {
            format!("Vis({table_name}).ids")
        } else {
            format!("Vis({table_name}).ids+{}", projection.join("+"))
        };
        if pad != PadMode::Exact {
            tag.push_str(&format!(".pad{bucket}"));
        }
        channel.send_to_secure(&tag, &payload);
        // The token's side of the wire: an exact shipment's ids are what
        // it decodes from the payload. Padded filler is indistinguishable
        // from id 0, so a padded shipment's ids are the selection itself.
        let ids = match pad {
            PadMode::Exact => codec::decode(&payload, vis_table.rows)?.0,
            PadMode::PowerOfTwo => ids,
        };
        Ok(VisShipment {
            table,
            ids,
            columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{VisibleColumn, VisibleTable};
    use ghostdb_storage::{CmpOp, ColumnType};

    fn host() -> UntrustedHost {
        let mut s = VisibleStore::new(1);
        s.set_table(
            0,
            VisibleTable {
                columns: vec![
                    VisibleColumn::from_gen("v1", ColumnType::char(10), 100, |i| {
                        Value::Str(format!("{i:09}"))
                    })
                    .expect("column"),
                ],
                rows: 100,
            },
        );
        UntrustedHost::new(s)
    }

    #[test]
    fn vis_ships_ids_and_values_with_exact_byte_count() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        let preds = [Predicate::new(
            "v1",
            CmpOp::Lt,
            Value::Str("000000010".into()),
            None,
        )];
        let shipment = h
            .vis(&mut ch, 0, "T1", &preds, &["v1".to_string()])
            .unwrap();
        assert_eq!(shipment.ids, (0..10).collect::<Vec<u32>>());
        assert_eq!(shipment.columns[0].1.len(), 10);
        // Ids 0..10 of 100 go out as varint gaps: tag + count + 10 one-byte
        // gaps = 12 bytes (4-byte ids would take 40, a bitmap 1 + 13). Then
        // 10 × 10 char values: 112 bytes on the wire.
        assert_eq!(ch.bytes_to_secure(), 112);
        assert_eq!(ch.transcript().len(), 1);
        assert!(ch.transcript()[0].tag.contains("Vis(T1)"));
        // The host saw one select and one project, volumes matching the wire.
        let trace = h.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].op, HostOp::Select);
        assert_eq!(trace.events()[0].items, 10);
        assert_eq!(trace.events()[1].op, HostOp::Project);
        assert_eq!(trace.events()[0].response_bytes, 12);
        assert_eq!(trace.response_bytes(), 112);
    }

    #[test]
    fn ids_only_shipment() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        let shipment = h.vis(&mut ch, 0, "T1", &[], &[]).unwrap();
        assert_eq!(shipment.ids, (0..100).collect::<Vec<u32>>());
        // Every id of 100: a bitmap, tag + ⌈100/8⌉ = 14 bytes (4-byte ids
        // would take 400).
        assert_eq!(ch.bytes_to_secure(), 14);
        assert_eq!(h.trace().events()[0].shape, "*");
    }

    #[test]
    fn query_submission_is_the_only_outbound_flow() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        h.submit_query(&mut ch, "SELECT T0.id FROM T0");
        assert_eq!(ch.bytes_to_secure(), 20);
        assert_eq!(ch.bytes_to_untrusted(), 0);
        let trace = h.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].op, HostOp::SubmitQuery);
        assert_eq!(trace.events()[0].request_bytes, 20);
    }

    #[test]
    fn padded_shipment_rounds_to_power_of_two_rows() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        let preds = [Predicate::new(
            "v1",
            CmpOp::Lt,
            Value::Str("000000010".into()),
            None,
        )];
        // 10 selected rows pad to a 16-row bucket: 16 × (4 + 10) = 224 B.
        let shipment = h
            .vis_with(
                &mut ch,
                0,
                "T1",
                &preds,
                &["v1".to_string()],
                PadMode::PowerOfTwo,
            )
            .unwrap();
        assert_eq!(shipment.ids.len(), 10, "padding never changes the result");
        assert_eq!(ch.bytes_to_secure(), 224);
        let tag = &ch.transcript()[0].tag;
        assert!(
            tag.starts_with("Vis(T1)"),
            "padded tag keeps the Vis( prefix"
        );
        assert!(tag.ends_with(".pad16"));
        let trace = h.trace();
        assert_eq!(trace.response_bytes(), 224);
        assert_eq!(trace.events()[0].items, 10, "true count stays in the trace");
    }

    #[test]
    fn exact_ids_are_decoded_from_the_wire() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        ch.set_capture(true);
        let preds = [Predicate::new("id", CmpOp::Ge, Value::Int(90), None)];
        let shipment = h
            .vis(&mut ch, 0, "T1", &preds, &["v1".to_string()])
            .unwrap();
        let payload = ch.transcript()[0].payload.as_deref().unwrap();
        let (ids, id_bytes) = codec::decode(payload, 100).unwrap();
        assert_eq!(ids, shipment.ids);
        assert_eq!(ids, (90..100).collect::<Vec<u32>>());
        assert_eq!(id_bytes as u64, h.trace().events()[0].response_bytes);
        assert_eq!(payload.len(), id_bytes + 10 * 10, "values stay fixed-width");
        // An empty exact selection ships only its header: tag + count 0.
        let none = [Predicate::eq("v1", Value::Str("nope".into()))];
        assert!(h.vis(&mut ch, 0, "T1", &none, &[]).unwrap().ids.is_empty());
        assert_eq!(ch.transcript()[1].bytes, 2);
    }

    #[test]
    fn padded_empty_selection_still_ships_one_row() {
        let h = host();
        let mut ch = Channel::usb_full_speed();
        let preds = [Predicate::eq("v1", Value::Str("nope".into()))];
        let shipment = h
            .vis_with(&mut ch, 0, "T1", &preds, &[], PadMode::PowerOfTwo)
            .unwrap();
        assert!(shipment.ids.is_empty());
        assert_eq!(ch.bytes_to_secure(), ID_BYTES as u64);
    }

    #[test]
    fn count_is_traced_without_wire_traffic() {
        let h = host();
        let n = h
            .count(0, &[Predicate::new("id", CmpOp::Lt, Value::Int(7), None)])
            .unwrap();
        assert_eq!(n, 7);
        let trace = h.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].op, HostOp::Count);
        assert_eq!(trace.events()[0].items, 7);
        assert_eq!(trace.response_bytes(), 0);
        h.reset_trace();
        assert!(h.trace().is_empty());
    }
}
