//! `ingest`: the write path through the `GhostDb` facade. Each load is a
//! fresh token: DDL for Customers ← Orders (hidden foreign key, hidden
//! indexed `name`/`amount`, visible text), 1 000 + 10 000 staged rows,
//! then `finalize()` — flash programs, storage bulk load and index
//! construction, with no query operator, host or channel work. Loads are
//! small, so one run holds hundreds of them and set-up (row generation plus
//! one load) is repeated often enough for a steady median. Input rows are
//! generated once in set-up and cloned outside the timer. After each load,
//! outside the timer, two queries check that the loaded data answers
//! correctly.

use crate::oracle::{self, Prepared, Rows};
use crate::stats::Rng;
use crate::trace::{Layers, ReportAcc, Tracer};
use crate::{timed_setups, traced_result, Args, Footprint, Pass, RunResult};
use ghostdb_core::{GhostDb, GhostDbConfig, QueryOptions};
use ghostdb_storage::Value;
use std::time::{Duration, Instant};

const CUSTOMERS: u64 = 1_000;
const ORDERS: u64 = 10_000;
const REGIONS: u64 = 16;
const DDL: [&str; 2] = [
    "CREATE TABLE Customers (id INT, name CHAR(24) HIDDEN, region CHAR(8))",
    "CREATE TABLE Orders (id INT, customer_id INT HIDDEN REFERENCES Customers, \
     amount INT HIDDEN, note CHAR(16))",
];

/// The rows every load stages, in declared column order.
struct Input {
    customers: Rows,
    orders: Rows,
}

const FIRST: [&str; 16] = [
    "Alice", "Bernard", "Chloe", "Dimitri", "Elena", "Farid", "Grace", "Hiroshi", "Ines", "Jonas",
    "Karin", "Luis", "Margaret", "Nadia", "Oscar", "Priya",
];
const LAST: [&str; 32] = [
    "Anciaux", "Benzine", "Bouganim", "Pucheral", "Shasha", "Martin", "Bernard", "Dubois",
    "Durand", "Lefebvre", "Moreau", "Laurent", "Simon", "Michel", "Garcia", "Roux", "Fournier",
    "Girard", "Bonnet", "Dupont", "Lambert", "Fontaine", "Rousseau", "Vincent", "Muller",
    "Lefevre", "Faure", "Andre", "Mercier", "Blanc", "Guerin", "Boyer",
];

/// Customers carry one of 512 names, so names repeat and many share their
/// first 8 bytes (the order key): the `name` index is non-injective and
/// equality lookups are re-checked at projection. The amount domain is
/// drawn per seed, so index sizes — and the simulated load time — differ
/// slightly from seed to seed.
fn generate(seed: u64) -> Input {
    let mut rng = Rng::new(seed);
    let customers = (0..CUSTOMERS)
        .map(|_| {
            let first = FIRST[rng.below(FIRST.len() as u64) as usize];
            let last = LAST[rng.below(LAST.len() as u64) as usize];
            vec![
                Value::Str(format!("{first} {last}")),
                Value::Str(format!("R{:02}", rng.below(REGIONS))),
            ]
        })
        .collect();
    let amounts = 9_800 + rng.below(400);
    let orders = (0..ORDERS)
        .map(|_| {
            vec![
                Value::Int(rng.below(CUSTOMERS) as i64),
                Value::Int(rng.below(amounts) as i64),
                Value::Str(format!("note-{:08}", rng.below(100_000_000))),
            ]
        })
        .collect();
    Input { customers, orders }
}

/// One timed load on a fresh token. The spans (when tracing) cover the
/// facade calls inside the `load` span.
fn load(input: &Input, tracer: Option<&mut Tracer>, op: u64) -> Result<(GhostDb, f64), String> {
    let (customers, orders) = (input.customers.clone(), input.orders.clone());
    let mut untraced = Tracer::new();
    let tracer = tracer.unwrap_or(&mut untraced);
    let root = tracer.open("load", op);
    let mut ghost = GhostDb::new(GhostDbConfig::default());
    let loaded = (|| {
        for ddl in DDL {
            tracer.time("core.execute", root, || ghost.execute(ddl))?;
        }
        tracer.time("core.stage", root, || {
            ghost.insert_rows("Customers", customers)
        })?;
        tracer.time("core.stage", root, || ghost.insert_rows("Orders", orders))?;
        tracer.time("core.finalize", root, || ghost.finalize().map(drop))
    })();
    tracer.close(root);
    let wall_ms = tracer.spans[root].dur_ns() as f64 / 1e6;
    loaded.map_err(|e| e.to_string())?;
    Ok((ghost, wall_ms))
}

/// The check queries with rows computed straight from the input: a
/// visible selection on Customers (a plan choice for the optimizer) with a
/// hidden range on Orders, and a hidden equality on the non-injective
/// `Customers.name` (re-checked at projection).
fn checks(input: &Input, seed: u64) -> Vec<(String, Rows)> {
    let mut rng = Rng::new(seed ^ 0xc4ec);
    let region = format!("R{:02}", rng.below(REGIONS));
    let below = 100 + rng.below(400) as i64;
    let name = input.customers[rng.below(CUSTOMERS) as usize][0].clone();
    let Value::Str(name_text) = &name else {
        unreachable!("names are strings")
    };
    let customer = |o: &[Value]| match o[0] {
        Value::Int(c) => &input.customers[c as usize],
        _ => unreachable!("foreign keys are integers"),
    };
    let mut by_region = Vec::new();
    let mut by_name = Vec::new();
    for (id, o) in input.orders.iter().enumerate() {
        let c = customer(o);
        if c[1] == Value::Str(region.clone()) && matches!(o[1], Value::Int(a) if a < below) {
            by_region.push(vec![Value::Int(id as i64), o[1].clone()]);
        }
        if c[0] == name {
            by_name.push(vec![Value::Int(id as i64), name.clone()]);
        }
    }
    let join = "FROM Orders, Customers WHERE Orders.customer_id = Customers.id";
    vec![
        (
            format!(
                "SELECT Orders.id, Orders.amount {join} \
                 AND Customers.region = '{region}' AND Orders.amount < {below}"
            ),
            by_region,
        ),
        (
            format!("SELECT Orders.id, Customers.name {join} AND Customers.name = '{name_text}'"),
            by_name,
        ),
    ]
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let ((input, mut warm), setup_s) = timed_setups(|| {
        let input = generate(args.seed);
        let (warm, _) = load(&input, None, 0)?;
        Ok((input, warm))
    })?;
    let db = warm.database().ok_or("database not loaded")?;
    let footprint = Footprint::of(db);
    let schema = db.schema.clone();
    let (timing, page_size) = (*db.token.flash.timing(), db.token.flash.page_size());
    let pool: Vec<Prepared> = {
        let sealed = warm.finalize().map_err(|e| e.to_string())?;
        checks(&input, args.seed)
            .into_iter()
            .map(|(sql, rows)| oracle::prepare(&sealed, &schema, sql, rows))
            .collect::<Result<_, _>>()?
    };
    drop(warm);
    crate::stats::reset_peak_rss();

    if !args.trace {
        let pass = loads(&input, &pool, args.seconds, None);
        return Ok(pass.end_to_end(setup_s, footprint.flash_per_user_byte));
    }
    let half = args.seconds / 2;
    let base = loads(&input, &pool, half, None);
    let mut tracer = Tracer::new();
    let mut acc = ReportAcc::default();
    let pass = loads(
        &input,
        &pool,
        half,
        Some((&mut tracer, &mut acc, (timing, page_size))),
    );
    let mut layers = Layers::default();
    acc.emit(&mut layers);
    let n = tracer.count("load").max(1) as f64;
    layers.set("core.stage_ms", tracer.total_us("core.stage") / n / 1e3);
    layers.set("core.finalize_ms", tracer.mean_us("core.finalize") / 1e3);
    layers.set("trace.unattributed_pct", tracer.unattributed_pct("load"));
    Ok(traced_result(
        &base, &pass, &pool, &footprint, layers, tracer,
    ))
}

type Tracing<'a> = (
    &'a mut Tracer,
    &'a mut ReportAcc,
    (ghostdb_flash::FlashTiming, usize),
);

/// Load back to back for `secs`. A load's simulated time is the flash
/// clock of its fresh token; every load is the same, so the first one
/// gives it. Its regret share comes from the check queries run on the
/// result, outside the timer.
fn loads(
    input: &Input,
    pool: &[Prepared],
    secs: Duration,
    mut tracing: Option<Tracing<'_>>,
) -> Pass {
    let mut pass = Pass::new(1);
    let start = Instant::now();
    for op in 0u64.. {
        if start.elapsed() >= secs {
            break;
        }
        let loaded = load(input, tracing.as_mut().map(|t| &mut *t.0), op);
        let (mut ghost, wall_ms) = match loaded {
            Ok(l) => l,
            Err(e) => {
                pass.fail(&format!("load {op}: {e}"));
                continue;
            }
        };
        let flash = &ghost.database().expect("finalized above").token.flash;
        let (io, billed) = (flash.stats(), flash.elapsed());
        if let Some((_, acc, (timing, page_size))) = tracing.as_mut() {
            acc.add_load(&io, billed.as_ns(), timing, *page_size);
        }
        let checked = (|| {
            let sealed = ghost.finalize().map_err(|e| e.to_string())?;
            let (mut chosen, mut best) = (0, 0);
            for p in pool {
                let (rs, rep) = sealed
                    .query_with(&p.sql, &QueryOptions::new())
                    .map_err(|e| format!("{}: {e}", p.sql))?;
                if rs.rows != p.expected {
                    return Err(format!("{}: wrong result", p.sql));
                }
                chosen += rep.total().as_ns();
                best += p.best_ns;
            }
            Ok((chosen, best))
        })();
        match checked {
            Ok((chosen, best)) => pass.ok_with(op, wall_ms, billed.as_ns(), chosen, best),
            Err(e) => pass.fail(&format!("load {op}: {e}")),
        }
    }
    pass
}
