//! Hidden selections through the facade, on the climbing index's 8-byte
//! keys. A CHAR value longer than 8 bytes shares its key with every value
//! of its 8-byte prefix, so a column holding one is re-checked on exact
//! values at projection. A column whose values all fit their keys is
//! answered by the index alone wherever the literals fit too. Every
//! operator, with literals shorter than, as long as and longer than a key,
//! must return exactly the matching rows either way, and EXPLAIN must name
//! a re-check exactly where the executor runs one.

use ghostdb_core::{GhostDb, GhostDbConfig, SealedGhostDb};
use ghostdb_storage::{CmpOp, Predicate, Value};

/// CHAR(10) codes, four of them longer than their 8-byte keys.
const MIXED: [&str; 8] = [
    "00000001",
    "000000013",
    "00000002",
    "000000005",
    "0000000",
    "000000019",
    "00000003",
    "000000021",
];
/// CHAR(10) codes that all fit their keys.
const SHORT: [&str; 6] = [
    "00000001", "00000002", "0000000", "00000003", "00000000", "0000001",
];
/// Literals shorter than, as long as and longer than a key.
const LITERALS: [&str; 6] = [
    "0000000",
    "00000001",
    "000000012",
    "00000002",
    "000000013",
    "000000020",
];

const RE_CHECK: &str = "(+ exact re-check at projection)";

/// `Accounts` (the root) references `Branches`; both carry a hidden
/// CHAR(10) `code`, cycling through `codes`.
fn world(codes: &[&str]) -> GhostDb {
    let mut db = GhostDb::new(GhostDbConfig::default());
    db.execute("CREATE TABLE Branches (id INT, city CHAR(10), code CHAR(10) HIDDEN)")
        .expect("DDL");
    db.execute(
        "CREATE TABLE Accounts (id INT, branch_id INT HIDDEN REFERENCES Branches, \
         kind CHAR(10), code CHAR(10) HIDDEN)",
    )
    .expect("DDL");
    let n = codes.len() as i64;
    let code = |i: i64| Value::Str(codes[i as usize % codes.len()].into());
    db.insert_rows(
        "Branches",
        (0..n)
            .map(|i| vec![Value::Str(format!("CITY{i}")), code(i)])
            .collect(),
    )
    .expect("load");
    db.insert_rows(
        "Accounts",
        (0..4 * n)
            .map(|i| vec![Value::Int(i % n), Value::Str("K".into()), code(i / 3)])
            .collect(),
    )
    .expect("load");
    db
}

/// Every operator over `LITERALS`, as (SQL condition on `column`, the
/// predicate it stands for).
fn conditions(column: &str) -> Vec<(String, Predicate)> {
    let s = |v: &str| Value::Str(v.into());
    let mut out = Vec::new();
    for lit in LITERALS {
        for (sym, op) in [
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            out.push((
                format!("{column} {sym} '{lit}'"),
                Predicate::new("code", op, s(lit), None),
            ));
        }
        for (lo, hi) in [(lit, "000000019"), ("0000000", lit)] {
            out.push((
                format!("{column} BETWEEN '{lo}' AND '{hi}'"),
                Predicate::new("code", CmpOp::Between, s(lo), Some(s(hi))),
            ));
        }
    }
    out
}

/// Account ids the query returns.
fn ids(db: &SealedGhostDb<'_>, sql: &str) -> Vec<i64> {
    let rows = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut ids: Vec<i64> = (rows.rows.iter())
        .map(|r| match r[0] {
            Value::Int(id) => id,
            ref v => panic!("{sql}: id {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Every condition on the child's and the root's code returns the
/// accounts whose code matches it, and EXPLAIN shows a re-check iff
/// `codes` or a literal outgrows the key.
fn check_every_operator(codes: &[&str]) {
    let mut db = world(codes);
    let db = db.finalize().expect("finalize");
    let n = codes.len() as i64;
    let code = |i: i64| Value::Str(codes[i as usize % codes.len()].into());
    let exact_codes = codes.iter().all(|c| c.len() <= 8);
    for table in ["Branches", "Accounts"] {
        // The code an account carries through the condition's table.
        let code_of = |i: i64| code(if table == "Branches" { i % n } else { i / 3 });
        for (cond, pred) in conditions(&format!("{table}.code")) {
            let sql = format!(
                "SELECT Accounts.id FROM Accounts, Branches \
                 WHERE Accounts.branch_id = Branches.id AND {cond}"
            );
            let expect: Vec<i64> = (0..4 * n).filter(|i| pred.matches(&code_of(*i))).collect();
            assert_eq!(ids(&db, &sql), expect, "{sql} over {codes:?}");
            let plan = db.explain(&sql).expect("explain");
            let fits = pred
                .literals()
                .all(|v| matches!(v, Value::Str(s) if s.len() <= 8));
            assert_eq!(
                plan.contains(RE_CHECK),
                !(exact_codes && fits),
                "{sql} over {codes:?}:\n{plan}"
            );
        }
    }
}

#[test]
fn every_operator_is_exact_over_values_longer_than_the_key() {
    check_every_operator(&MIXED);
}

#[test]
fn every_operator_is_exact_over_values_that_fit_the_key() {
    check_every_operator(&SHORT);
}

/// Injective keys are not enough: the only long value `ABCDEFGH1` has a key
/// of its own, yet `= 'ABCDEFGH'` lands on it, and only the re-check can
/// drop it.
#[test]
fn an_equality_on_a_long_values_prefix_returns_nothing() {
    let mut db = world(&["ABCDEFGH1", "AAAAAAAA", "B", "ABCDEFGG"]);
    let db = db.finalize().expect("finalize");
    let sql = "SELECT Accounts.id FROM Accounts, Branches \
               WHERE Accounts.branch_id = Branches.id AND Branches.code = 'ABCDEFGH'";
    assert_eq!(ids(&db, sql), Vec::<i64>::new());
    let plan = db.explain(sql).expect("explain");
    assert!(plan.contains(RE_CHECK), "{plan}");
}

/// On 8-character data EXPLAIN shows no re-check for a literal that fits
/// the key, as the executor runs none.
#[test]
fn explain_shows_no_recheck_on_eight_character_data() {
    let mut db = world(&["BR000001", "BR000002", "BR000003"]);
    let sealed = db.finalize().expect("finalize");
    let plan = sealed
        .explain(
            "SELECT Accounts.id FROM Accounts, Branches \
             WHERE Accounts.branch_id = Branches.id AND Branches.code < 'BR000002' \
             AND Accounts.code >= 'BR000002'",
        )
        .expect("explain");
    assert_eq!(plan.matches("→ climbing index\n").count(), 2, "{plan}");
    assert!(!plan.contains("re-check"), "{plan}");
}

/// CHAR values hold no NUL byte: CHAR cells are stored NUL-padded and read
/// back up to their first NUL, so `'AB\0C'` would project as `'AB'` while
/// the index keys all four bytes, and `= 'AB'` would not select it. Staging
/// refuses such a cell, hidden or visible, and parsing refuses such a
/// literal, each with `CoreError::NulInChar`, and the database stays usable.
#[test]
fn a_nul_byte_is_refused_in_char_cells_and_literals() {
    use ghostdb_core::CoreError;
    let mut db = world(&SHORT);
    let nul = || Value::Str("AB\0C".into());
    let ok = || Value::Str("AB".into());
    for (name, row) in [("code", vec![ok(), nul()]), ("city", vec![nul(), ok()])] {
        let err = db
            .insert_rows("Branches", vec![row])
            .expect_err("a NUL byte is refused");
        assert!(
            matches!(&err, CoreError::NulInChar(at) if at.contains(name)),
            "{name}: {err}"
        );
    }
    // Nothing of the refused calls was staged: the load and every query
    // see the world as built.
    let db = db.finalize().expect("finalize");
    let n = SHORT.len() as i64;
    let all: Vec<i64> = (0..4 * n).collect();
    let sql = "SELECT Accounts.id FROM Accounts, Branches WHERE Accounts.branch_id = Branches.id";
    assert_eq!(ids(&db, sql), all);
    for column in ["Branches.code", "Branches.city", "Accounts.code"] {
        let sql = format!("{sql} AND {column} = 'AB\0C'");
        let err = db.query(&sql).expect_err("a NUL literal is refused");
        assert!(matches!(err, CoreError::NulInChar(_)), "{sql}: {err}");
    }
    assert_eq!(ids(&db, sql), all);
}
