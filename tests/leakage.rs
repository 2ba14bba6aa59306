//! The leakage contract of `SECURITY.md`, enforced: what the untrusted PC
//! and a wire snooper observe is a function of the query and the visible
//! data alone — never of hidden values — and the padded execution mode
//! quantises the one residual signal (visible-selection volume) to
//! power-of-two buckets.
//!
//! Each test here is named from `SECURITY.md`; keep the two in sync.

use ghostdb_core::{GhostDb, GhostDbConfig, HostOp, QueryOptions, Strategy};
use ghostdb_exec::OpKind;
use ghostdb_storage::Value;
use ghostdb_untrusted::IdCodec;

/// Two-world builder: identical visible partitions, hidden values shifted
/// by `hidden_offset` (different balances, different owners).
fn world(hidden_offset: i64) -> GhostDb {
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
                    Value::Int(1_000 + hidden_offset + i * 13),
                    Value::Str(format!("owner-{i}-{hidden_offset}")),
                ]
            })
            .collect(),
    )
    .expect("load");
    db
}

/// The snooper's view: every channel flow as (tag, wire bytes, payload).
fn transcript(db: &GhostDb) -> Vec<(String, u64, Option<Vec<u8>>)> {
    db.database()
        .expect("loaded")
        .token
        .channel
        .transcript()
        .iter()
        .map(|e| (e.tag.clone(), e.bytes, e.payload.clone()))
        .collect()
}

const Q: &str = "SELECT Accounts.owner, Accounts.balance FROM Accounts \
                 WHERE Accounts.branch = 'BR03' AND Accounts.balance > 1300";

/// SECURITY.md claim 1: hidden *data* is invisible. Two databases that
/// differ only in hidden values produce bit-identical channel transcripts
/// and bit-identical host traces for the same query.
#[test]
fn hidden_data_invisible_unpadded() {
    let mut a = world(0);
    let mut b = world(500_000);
    let rows_a = a.finalize().expect("finalize A").query(Q).expect("query A");
    let rows_b = b.finalize().expect("finalize B").query(Q).expect("query B");
    assert_ne!(
        rows_a.rows.len(),
        rows_b.rows.len(),
        "the worlds must actually differ in hidden outcomes"
    );
    assert_eq!(
        transcript(&a),
        transcript(&b),
        "wire view must not depend on hidden data"
    );
    assert_eq!(
        a.host_trace().unwrap(),
        b.host_trace().unwrap(),
        "host view must not depend on hidden data"
    );
    assert!(a.audit().unwrap().ok);
    assert!(b.audit().unwrap().ok);
}

/// Same property with volume padding on: padding is a deterministic
/// function of the visible selection, so the two worlds stay bit-identical
/// — and the padded tags still satisfy the transcript auditor.
#[test]
fn hidden_data_invisible_padded() {
    let opts = QueryOptions::new().padded(true);
    let mut a = world(0);
    let mut b = world(500_000);
    let rows_a = a
        .finalize()
        .expect("finalize A")
        .query_with(Q, &opts)
        .expect("query A")
        .0;
    let rows_b = b
        .finalize()
        .expect("finalize B")
        .query_with(Q, &opts)
        .expect("query B")
        .0;
    assert_ne!(rows_a.rows.len(), rows_b.rows.len());
    assert_eq!(transcript(&a), transcript(&b));
    assert_eq!(a.host_trace().unwrap(), b.host_trace().unwrap());
    assert!(a.audit().unwrap().ok, "padded tags must pass the auditor");
    assert!(
        transcript(&a)
            .iter()
            .any(|(tag, _, _)| tag.contains(".pad")),
        "padding must actually have engaged"
    );
}

/// SECURITY.md claim 2: hidden *selectivity* is invisible. Two queries with
/// the same shape (equal-length predicate literals) but very different
/// hidden selectivities observe the host identically, and move the same
/// tagged byte volumes on the wire. (The query text itself is public —
/// §3.3 — so only its length enters the host trace, and the two payloads
/// of the `query` flow are allowed to differ.)
#[test]
fn hidden_selectivity_invisible() {
    let q_wide = "SELECT Accounts.owner FROM Accounts \
                  WHERE Accounts.branch = 'BR03' AND Accounts.balance > 1300";
    let q_narrow = "SELECT Accounts.owner FROM Accounts \
                    WHERE Accounts.branch = 'BR03' AND Accounts.balance > 9999";
    assert_eq!(q_wide.len(), q_narrow.len(), "equal shape by construction");

    for padded in [false, true] {
        let opts = QueryOptions::new().padded(padded);
        let mut db = world(0);
        let wide = db
            .finalize()
            .expect("finalize")
            .query_with(q_wide, &opts)
            .expect("wide")
            .0;
        let trace_wide = db.host_trace().unwrap();
        let wire_wide: Vec<(String, u64)> = transcript(&db)
            .into_iter()
            .map(|(tag, bytes, _)| (tag, bytes))
            .collect();
        let narrow = db
            .finalize()
            .expect("finalize")
            .query_with(q_narrow, &opts)
            .expect("narrow")
            .0;
        let trace_narrow = db.host_trace().unwrap();
        let wire_narrow: Vec<(String, u64)> = transcript(&db)
            .into_iter()
            .map(|(tag, bytes, _)| (tag, bytes))
            .collect();

        assert_ne!(
            wide.rows.len(),
            narrow.rows.len(),
            "the hidden selectivities must actually differ"
        );
        assert_eq!(
            trace_wide, trace_narrow,
            "host trace must not depend on hidden selectivity (padded={padded})"
        );
        assert_eq!(
            wire_wide, wire_narrow,
            "tagged wire volumes must not depend on hidden selectivity (padded={padded})"
        );
    }
}

/// SECURITY.md known leak 1: the token's busy time. Claim 3's wide/narrow
/// pair looks the same on the wire and to the host, but the token works
/// longer on the wider hidden selection, and a host that times the gap
/// between the query and its ack measures that. This case documents the
/// leak in exact mode: a change that closes it must flip the last
/// assertion on purpose.
#[test]
fn busy_time_reveals_hidden_selectivity() {
    let q_wide = "SELECT Accounts.owner FROM Accounts \
                  WHERE Accounts.branch = 'BR03' AND Accounts.balance > 1300";
    let q_narrow = "SELECT Accounts.owner FROM Accounts \
                    WHERE Accounts.branch = 'BR03' AND Accounts.balance > 9999";
    let mut db = world(0);
    let mut observe = |q: &str| {
        let (rows, report) = db
            .finalize()
            .expect("finalize")
            .query_with(q, &QueryOptions::new())
            .expect("query");
        let wire: Vec<(String, u64)> = transcript(&db)
            .into_iter()
            .map(|(tag, bytes, _)| (tag, bytes))
            .collect();
        (
            rows.rows.len(),
            report.total(),
            wire,
            db.host_trace().unwrap(),
        )
    };
    let (rows_wide, busy_wide, wire_wide, trace_wide) = observe(q_wide);
    let (rows_narrow, busy_narrow, wire_narrow, trace_narrow) = observe(q_narrow);
    assert_ne!(rows_wide, rows_narrow, "the hidden selectivities differ");
    assert_eq!(wire_wide, wire_narrow, "claim 3: same tagged wire volumes");
    assert_eq!(trace_wide, trace_narrow, "claim 3: same host trace");
    assert_ne!(
        busy_wide, busy_narrow,
        "known leak 1: the token's busy time still tracks hidden selectivity"
    );
}

/// SECURITY.md claim 7: padding quantises the visible-volume channel. Two
/// visible selections of different true cardinality that fall in the same
/// power-of-two bucket ship the same number of wire bytes when padded.
/// In exact mode each shipment's volume is its id block's encoded size, a
/// function of the visible ids and the public `|T|` alone: on 64 rows both
/// selections are one 8-byte bitmap and ship the same bytes, while on 1024
/// rows both go out as varint gaps and their volumes differ.
#[test]
fn padding_quantises_visible_volume() {
    // branch 'A': rows 0..9, branch 'B': rows 9..22 — both bucket to 16.
    let branch_db = |rows: i64| {
        let mut db = GhostDb::new(GhostDbConfig {
            capture_channel: true,
            ..Default::default()
        });
        db.execute("CREATE TABLE T (id INT, branch CHAR(4), secret INT HIDDEN)")
            .expect("DDL");
        db.insert_rows(
            "T",
            (0..rows)
                .map(|i| {
                    let b = if i < 9 {
                        "A"
                    } else if i < 22 {
                        "B"
                    } else {
                        "C"
                    };
                    vec![Value::Str(b.into()), Value::Int(i)]
                })
                .collect(),
        )
        .expect("load");
        db
    };

    // The wire volume of every visible shipment of the query.
    let vis_bytes = |db: &mut GhostDb, branch: &str, padded: bool| -> Vec<u64> {
        // Pin the strategy so the shipment shape is identical across
        // the two selections; only the volume may differ.
        let opts = QueryOptions::new()
            .strategy(Strategy::CrossPre)
            .padded(padded);
        let sql = format!("SELECT T.secret FROM T WHERE T.branch = '{branch}' AND T.secret >= 0");
        db.finalize()
            .expect("finalize")
            .query_with(&sql, &opts)
            .expect("query");
        db.host_trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e.op, HostOp::Select | HostOp::Project))
            .map(|e| e.response_bytes)
            .collect()
    };
    // What the codec makes of a selection: one Select per shipment, no
    // visible projection.
    let codec_bytes = |ids: std::ops::Range<u32>, rows: u64, shipments: usize| {
        let ids: Vec<u32> = ids.collect();
        let len = IdCodec::choose(&ids, rows).encoded_len(&ids, rows) as u64;
        vec![len; shipments]
    };

    let mut db = branch_db(64);
    let exact_a = vis_bytes(&mut db, "A", false);
    let exact_b = vis_bytes(&mut db, "B", false);
    assert!(!exact_a.is_empty(), "the query ships visible ids");
    assert_eq!(exact_a, codec_bytes(0..9, 64, exact_a.len()));
    assert_eq!(exact_b, codec_bytes(9..22, 64, exact_b.len()));
    assert_eq!(
        exact_a,
        vec![1 + 64 / 8; exact_a.len()],
        "9 ids of 64 ship as one bitmap: tag + 8 bytes"
    );
    assert_eq!(
        exact_a, exact_b,
        "a bitmap's volume is a function of |T| alone (9 vs 13 rows)"
    );

    let mut wide = branch_db(1024);
    let varint_a = vis_bytes(&mut wide, "A", false);
    let varint_b = vis_bytes(&mut wide, "B", false);
    assert_eq!(varint_a, codec_bytes(0..9, 1024, varint_a.len()));
    assert_eq!(varint_b, codec_bytes(9..22, 1024, varint_b.len()));
    assert_eq!(
        varint_a,
        vec![1 + 1 + 9; varint_a.len()],
        "9 ids of 1024 ship as varint gaps: tag + count + one byte per gap"
    );
    assert_ne!(
        varint_a, varint_b,
        "exact mode's varint volume leaks the visible cardinality difference (9 vs 13 rows)"
    );

    let exact_a: u64 = exact_a.iter().sum();
    let padded_a: u64 = vis_bytes(&mut db, "A", true).iter().sum();
    let padded_b: u64 = vis_bytes(&mut db, "B", true).iter().sum();
    assert_eq!(
        padded_a, padded_b,
        "padded mode ships the same bucket for both selections"
    );
    assert!(
        padded_a > exact_a,
        "padding adds filler, never removes bytes"
    );
}

/// SECURITY.md claim 13: the *write path* leaks nothing either. Before any
/// query runs, the ingest flow itself — staging, vertical partitioning,
/// download to the token, index construction, every flash program and any
/// GC it triggers — must look bit-identical from outside the token for two
/// worlds that differ only in hidden values: same wire transcript, same
/// host trace, and the same device-wide flash counters (writes, GC page
/// movement, block erases — placement is a pure function of the operation
/// sequence, never of hidden bytes).
#[test]
fn ingest_flow_invisible() {
    let mut a = world(0);
    let mut b = world(500_000);
    a.finalize().expect("finalize A");
    b.finalize().expect("finalize B");
    assert_eq!(
        transcript(&a),
        transcript(&b),
        "ingest wire view must not depend on hidden data"
    );
    assert_eq!(
        a.host_trace().unwrap(),
        b.host_trace().unwrap(),
        "ingest host view must not depend on hidden data"
    );
    let flash = |db: &GhostDb| db.database().expect("loaded").token.flash.stats();
    assert_eq!(
        flash(&a),
        flash(&b),
        "flash placement counters must not depend on hidden data"
    );
    assert!(a.audit().unwrap().ok, "ingest flows must pass the auditor");
}

/// Padding is pure overhead: results are value-identical to exact mode,
/// and the report's channel traffic can only grow.
#[test]
fn padded_results_equal_unpadded() {
    let mut exact_db = world(0);
    let mut padded_db = world(0);
    let (exact_rows, exact_report) = exact_db
        .finalize()
        .expect("finalize")
        .query_with(Q, &QueryOptions::default())
        .expect("exact");
    let (padded_rows, padded_report) = padded_db
        .finalize()
        .expect("finalize")
        .query_with(Q, &QueryOptions::new().padded(true))
        .expect("padded");
    assert_eq!(exact_rows.columns, padded_rows.columns);
    assert_eq!(
        exact_rows.rows, padded_rows.rows,
        "padding never changes results"
    );
    assert!(
        padded_report.bytes_to_secure >= exact_report.bytes_to_secure,
        "padded mode moves at least as many bytes into the token"
    );
}

/// Two worlds for hidden projections under re-checks: `code` is CHAR(12)
/// and four rows share each 8-byte index-key prefix, so every predicate on
/// it is re-checked on the token. Hidden values shift with
/// `hidden_offset`; the visible partitions are identical.
fn recheck_world(hidden_offset: i64) -> GhostDb {
    let mut db = GhostDb::new(GhostDbConfig {
        capture_channel: true,
        ..Default::default()
    });
    db.execute("CREATE TABLE Branches (id INT, city CHAR(10), code CHAR(12) HIDDEN)")
        .expect("DDL");
    db.execute(
        "CREATE TABLE Accounts (id INT, branch_id INT HIDDEN REFERENCES Branches, \
         kind CHAR(10), code CHAR(12) HIDDEN, balance INT HIDDEN)",
    )
    .expect("DDL");
    let code = |prefix: &str, i: i64| format!("{prefix}{:06}{:04}", i / 4, i % 4);
    db.insert_rows(
        "Branches",
        (0..16)
            .map(|i| {
                vec![
                    Value::Str(format!("CITY{:02}", i % 4)),
                    Value::Str(code("BR", i + hidden_offset)),
                ]
            })
            .collect(),
    )
    .expect("load");
    db.insert_rows(
        "Accounts",
        (0..512)
            .map(|i| {
                vec![
                    Value::Int((i * 7 + hidden_offset) % 16),
                    Value::Str(format!("K{}", i % 3)),
                    Value::Str(code("AC", (i * 5 + hidden_offset) % 512)),
                    Value::Int(1_000 + hidden_offset + i * 13),
                ]
            })
            .collect(),
    )
    .expect("load");
    db
}

/// SECURITY.md claim 12: MJoin's and FinalJoin's page-exact column reads
/// are planned from hidden-derived ids, and stay below the channel. With a
/// root re-check, a child re-check and a root hidden projection, worlds
/// that differ only in hidden values produce bit-identical transcripts and
/// host traces.
#[test]
fn root_hidden_projection_under_a_recheck_is_invisible() {
    const Q: &str = "SELECT Accounts.id, Accounts.balance, Accounts.code, Branches.city \
                     FROM Accounts, Branches WHERE Accounts.branch_id = Branches.id \
                     AND Accounts.kind = 'K1' AND Accounts.code < 'AC0000600002' \
                     AND Branches.code > 'BR0000010001'";
    let mut a = recheck_world(0);
    let mut b = recheck_world(3);
    let plan = a.finalize().expect("finalize A").explain(Q).expect("plan");
    assert_eq!(
        plan.matches("(+ exact re-check at projection)").count(),
        2,
        "both hidden selections must be re-checked:\n{plan}"
    );
    let rows_a = a.finalize().expect("finalize A").query(Q).expect("query A");
    let rows_b = b.finalize().expect("finalize B").query(Q).expect("query B");
    assert!(!rows_a.rows.is_empty());
    assert_ne!(
        rows_a.rows, rows_b.rows,
        "the worlds must actually differ in hidden outcomes"
    );
    assert_eq!(transcript(&a), transcript(&b));
    assert_eq!(a.host_trace().unwrap(), b.host_trace().unwrap());
    assert!(a.audit().unwrap().ok);
    assert!(b.audit().unwrap().ok);
}

/// Two worlds for keyed SJoin: `Branches.code` is a hidden INT whose
/// values are one branch's each (`dup` false) or two branches' each
/// (`dup` true); the visible partitions are identical.
fn keyed_world(dup: bool) -> GhostDb {
    let mut db = GhostDb::new(GhostDbConfig {
        capture_channel: true,
        ..Default::default()
    });
    db.execute("CREATE TABLE Branches (id INT, city CHAR(10), code INT HIDDEN)")
        .expect("DDL");
    db.execute(
        "CREATE TABLE Accounts (id INT, branch_id INT HIDDEN REFERENCES Branches, \
         kind CHAR(10))",
    )
    .expect("DDL");
    let code = |i: i64| if dup { i / 2 } else { i };
    db.insert_rows(
        "Branches",
        (0..64)
            .map(|i| vec![Value::Str(format!("CITY{:02}", i % 4)), Value::Int(code(i))])
            .collect(),
    )
    .expect("load");
    db.insert_rows(
        "Accounts",
        (0..512)
            .map(|i| vec![Value::Int(i % 64), Value::Str(format!("K{}", i % 3))])
            .collect(),
    )
    .expect("load");
    db
}

/// SECURITY.md claim 12, keyed SJoin: whether a hidden range's group is
/// keyed (each code one branch's: SJoin reads the branch ids through the
/// keys and no SKT) or falls back (two branches share each code: SJoin
/// reads the root's SKT) is decided on the token from hidden counts. The
/// two worlds produce bit-identical transcripts and host traces.
#[test]
fn keyed_sjoin_decision_is_invisible() {
    const Q: &str = "SELECT Accounts.id, Branches.id FROM Accounts, Branches \
                     WHERE Accounts.branch_id = Branches.id AND Accounts.kind = 'K1' \
                     AND Branches.code < 16";
    let mut keyed = keyed_world(false);
    let mut fallback = keyed_world(true);
    let opts = QueryOptions::default();
    let (rows_k, report_k) = (keyed.finalize().expect("finalize"))
        .query_with(Q, &opts)
        .expect("query keyed");
    let (rows_f, report_f) = (fallback.finalize().expect("finalize"))
        .query_with(Q, &opts)
        .expect("query fallback");
    assert!(!rows_k.rows.is_empty());
    assert_ne!(rows_k.rows, rows_f.rows, "the worlds must differ");
    assert_eq!(report_k.op(OpKind::SJoin).as_ns(), 0, "keyed: no SKT read");
    assert!(report_f.op(OpKind::SJoin).as_ns() > 0, "fallback: SKT read");
    assert_eq!(transcript(&keyed), transcript(&fallback));
    assert_eq!(keyed.host_trace().unwrap(), fallback.host_trace().unwrap());
    assert!(keyed.audit().unwrap().ok);
    assert!(fallback.audit().unwrap().ok);
}

/// Two worlds for the exactness of a climbing index: every hidden `code`
/// fits its 8-byte key, but for one branch's and one account's, which in
/// the `long` world run two bytes past it. The visible partitions are
/// identical.
fn exactness_world(long: bool) -> GhostDb {
    let mut db = GhostDb::new(GhostDbConfig {
        capture_channel: true,
        ..Default::default()
    });
    db.execute("CREATE TABLE Branches (id INT, city CHAR(10), code CHAR(12) HIDDEN)")
        .expect("DDL");
    db.execute(
        "CREATE TABLE Accounts (id INT, branch_id INT HIDDEN REFERENCES Branches, \
         kind CHAR(10), code CHAR(12) HIDDEN, balance INT HIDDEN)",
    )
    .expect("DDL");
    let code = |prefix: &str, i: i64| {
        let tail = if long && i == 5 { "X1" } else { "" };
        Value::Str(format!("{prefix}{i:06}{tail}"))
    };
    db.insert_rows(
        "Branches",
        (0..16)
            .map(|i| vec![Value::Str(format!("CITY{:02}", i % 4)), code("BR", i)])
            .collect(),
    )
    .expect("load");
    db.insert_rows(
        "Accounts",
        (0..512)
            .map(|i| {
                vec![
                    Value::Int(i * 7 % 16),
                    Value::Str(format!("K{}", i % 3)),
                    code("AC", i * 5 % 512),
                    Value::Int(1_000 + i * 13),
                ]
            })
            .collect(),
    )
    .expect("load");
    db
}

/// SECURITY.md claim 12, exact hidden selections: whether a hidden
/// selection is re-checked at projection follows from whether its index's
/// keys are the full values, a bit derived from hidden data at load. Worlds
/// that differ only in one hidden value longer than the key (one index
/// exact, the other not) produce bit-identical transcripts and host traces
/// for the same queries.
#[test]
fn index_exactness_is_invisible() {
    const QUERIES: [&str; 4] = [
        "SELECT Accounts.id, Accounts.balance, Branches.city FROM Accounts, Branches \
         WHERE Accounts.branch_id = Branches.id AND Accounts.kind = 'K1' \
         AND Branches.code >= 'BR000004' AND Accounts.code < 'AC000300'",
        "SELECT Accounts.id, Branches.code FROM Accounts, Branches \
         WHERE Accounts.branch_id = Branches.id AND Branches.city = 'CITY01' \
         AND Branches.code BETWEEN 'BR000003' AND 'BR000011'",
        // Branches takes part in projection only for its re-check.
        "SELECT Accounts.id FROM Accounts, Branches \
         WHERE Accounts.branch_id = Branches.id AND Branches.city = 'CITY01' \
         AND Branches.code >= 'BR000004'",
        "SELECT Accounts.code FROM Accounts WHERE Accounts.code > 'AC000005'",
    ];
    let mut exact = exactness_world(false);
    let mut long = exactness_world(true);
    let rechecks = |db: &mut GhostDb, q: &str| {
        let plan = db.finalize().expect("finalize").explain(q).expect("plan");
        plan.matches("(+ exact re-check at projection)").count()
    };
    for q in QUERIES {
        assert_eq!(rechecks(&mut exact, q), 0, "{q}");
        assert!(rechecks(&mut long, q) > 0, "{q}: the long world re-checks");
        let rows_e = exact.finalize().expect("finalize").query(q).expect("query");
        let rows_l = long.finalize().expect("finalize").query(q).expect("query");
        assert!(!rows_e.rows.is_empty(), "{q}");
        assert_eq!(rows_e.columns, rows_l.columns);
        assert_eq!(transcript(&exact), transcript(&long), "{q}");
        assert_eq!(
            exact.host_trace().unwrap(),
            long.host_trace().unwrap(),
            "{q}"
        );
        assert!(exact.audit().unwrap().ok);
        assert!(long.audit().unwrap().ok);
    }
}
