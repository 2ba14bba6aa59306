//! The security argument, demonstrated and enforced: a wire snooper's (and
//! the untrusted PC's) view of a GhostDB session is a **function of the
//! query and the visible data alone** — it does not depend on hidden
//! values at all. With volume padding on (`QueryOptions::padded`), even the
//! exact visible-selection volume is quantised to a power-of-two bucket.
//!
//! We build two databases whose *visible* partitions are identical but
//! whose *hidden* values differ completely, run the same query on both,
//! and compare the channel transcripts byte for byte and the host traces
//! event for event. Any divergence exits non-zero — CI runs this binary as
//! a leak gate (see `SECURITY.md`).
//!
//! ```text
//! cargo run --example leak_audit
//! ```

use ghostdb_core::{audit_transcript, GhostDb, GhostDbConfig, QueryOptions};
use ghostdb_storage::Value;

fn build(hidden_offset: i64) -> GhostDb {
    let mut db = GhostDb::new(GhostDbConfig {
        capture_channel: true,
        ..Default::default()
    });
    db.execute(
        "CREATE TABLE Accounts (id INT, branch CHAR(10), balance INT HIDDEN, \
         owner CHAR(20) HIDDEN)",
    )
    .expect("DDL");
    db.insert_rows(
        "Accounts",
        (0..64)
            .map(|i| {
                vec![
                    Value::Str(format!("BR{:02}", i % 8)),
                    // Hidden values differ entirely between the two worlds.
                    Value::Int(1_000 + hidden_offset + i * 13),
                    Value::Str(format!("owner-{}-{hidden_offset}", i)),
                ]
            })
            .collect(),
    )
    .expect("load");
    db
}

/// One channel flow as the snooper sees it: tag, wire bytes, payload.
type Flow = (String, u64, Option<Vec<u8>>);

/// Snapshot of everything an observer sees: every channel flow with its
/// payload, plus the host-side request trace.
fn observer_view(db: &GhostDb) -> (Vec<Flow>, String) {
    let wire: Vec<Flow> = db
        .database()
        .expect("loaded")
        .token
        .channel
        .transcript()
        .iter()
        .map(|e| (e.tag.clone(), e.bytes, e.payload.clone()))
        .collect();
    let host = db.host_trace().expect("loaded").to_string();
    (wire, host)
}

fn fail(msg: &str) -> ! {
    eprintln!("leak_audit: LEAK DETECTED — {msg}");
    std::process::exit(1);
}

/// Run `sql` on both worlds and demand indistinguishable observations.
fn run_pair(sql: &str, opts: &QueryOptions, label: &str) -> (usize, usize, String) {
    let mut world_a = build(0);
    let mut world_b = build(500_000);
    let rows_a = world_a
        .finalize()
        .expect("finalize A")
        .query_with(sql, opts)
        .expect("query A")
        .0;
    let rows_b = world_b
        .finalize()
        .expect("finalize B")
        .query_with(sql, opts)
        .expect("query B")
        .0;

    let (wire_a, host_a) = observer_view(&world_a);
    let (wire_b, host_b) = observer_view(&world_b);
    if wire_a != wire_b {
        fail(&format!(
            "{label}: channel transcripts differ between worlds"
        ));
    }
    if host_a != host_b {
        fail(&format!("{label}: host traces differ between worlds"));
    }
    let audit = world_a.audit().expect("audit");
    if !audit.ok {
        fail(&format!(
            "{label}: transcript auditor rejected the session:\n{audit}"
        ));
    }
    (rows_a.rows.len(), rows_b.rows.len(), host_a)
}

fn main() {
    let sql = "SELECT Accounts.owner, Accounts.balance FROM Accounts \
               WHERE Accounts.branch = 'BR03' AND Accounts.balance > 1300";

    // ---- Exact (unpadded) mode -----------------------------------------
    let (n_a, n_b, host) = run_pair(sql, &QueryOptions::default(), "exact");
    println!("world A: {n_a} result rows; world B: {n_b} result rows");
    println!("\nhost-observable trace (identical in both worlds):\n{host}");

    {
        // The snooper's formatted view, for the demo.
        let mut world_a = build(0);
        world_a
            .finalize()
            .expect("finalize")
            .query(sql)
            .expect("query A");
        println!("snooper's view (world A):");
        println!(
            "{}",
            audit_transcript(
                world_a
                    .database()
                    .expect("loaded")
                    .token
                    .channel
                    .transcript()
            )
        );
    }
    println!("Exact mode: transcripts and host traces of the two worlds are");
    println!("indistinguishable. Different hidden balances, different owners,");
    println!("different result cardinalities — same wire, same host view.");

    // ---- Padded mode ----------------------------------------------------
    let padded = QueryOptions::new().padded(true);
    let (_, _, _host_padded) = run_pair(sql, &padded, "padded");
    // Padding engages on the Vis shipment volumes: the trace records
    // post-padding bytes, the transcript records the .padN tag.
    let mut w = build(0);
    w.finalize()
        .expect("finalize")
        .query_with(sql, &padded)
        .expect("padded query");
    let tagged = w
        .database()
        .expect("loaded")
        .token
        .channel
        .transcript()
        .iter()
        .any(|e| e.tag.contains(".pad"));
    if !tagged {
        fail("padded: no .pad tag on any Vis shipment");
    }
    println!("\nPadded mode: same indistinguishability, and every Vis shipment");
    println!("is rounded up to a power-of-two row bucket — a snooper timing the");
    println!("wire learns only the bucket, not the exact visible volume.");
    println!("\nleak_audit: PASS");
}
