//! Minimal JSON for the perf harness — writer, parser and the `BENCH.json`
//! schema checker. Dependency-free on purpose: the benchmark binary must
//! not pull crates whose own cost or availability could perturb or block
//! the measurement path (the workspace's vendored `serde` stub has no
//! `serde_json` companion anyway).

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64`; every quantity BENCH.json carries
/// (nanoseconds, byte counts, row counts) stays far below 2^53, so the
/// representation is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render with two-space indentation (stable, diff-friendly output for
    /// a file committed as a perf-trajectory artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict enough for round-tripping BENCH.json;
    /// rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let v = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, lit: &str) -> Result<(), String> {
    if b[*at..].starts_with(lit.as_bytes()) {
        *at += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {at}", at = *at))
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, at, "null").map(|_| Json::Null),
        Some(b't') => expect(b, at, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, at, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, at).map(Json::Str),
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}", at = *at)),
                }
            }
        }
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, at);
                let key = parse_string(b, at)?;
                skip_ws(b, at);
                expect(b, at, ":")?;
                let value = parse_value(b, at)?;
                fields.push((key, value));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}", at = *at)),
                }
            }
        }
        Some(_) => parse_number(b, at).map(Json::Num),
    }
}

fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}", at = *at));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*at + 1..*at + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *at += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *at += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*at..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *at += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], at: &mut usize) -> Result<f64, String> {
    let start = *at;
    while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *at += 1;
    }
    std::str::from_utf8(&b[start..*at])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|_| format!("bad number at byte {start}"))
}

/// Summary of a valid BENCH.json.
#[derive(Debug, PartialEq, Eq)]
pub struct BenchSummary {
    /// Total entries.
    pub entries: usize,
    /// Entries whose scenario starts with `micro/`.
    pub micro: usize,
    /// Query scenarios (everything else).
    pub scenarios: usize,
}

/// Validate a BENCH.json document: shape, field types, non-negative
/// numbers, unique scenario names, ≥ 12 query scenarios and ≥ 1 operator
/// microbench (the repo's perf-trajectory floor).
pub fn check_bench(doc: &Json) -> Result<BenchSummary, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric schema_version")?;
    if version != 1.0 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .filter(|m| *m == "full" || *m == "smoke")
        .ok_or("mode must be \"full\" or \"smoke\"")?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries array")?;
    let mut seen: Vec<&str> = Vec::new();
    let mut micro = 0usize;
    for (i, e) in entries.iter().enumerate() {
        let scenario = e
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i}: missing scenario string"))?;
        if seen.contains(&scenario) {
            return Err(format!("duplicate scenario {scenario:?}"));
        }
        seen.push(scenario);
        if scenario.starts_with("micro/") {
            micro += 1;
        }
        for field in ["wall_ns", "simulated_s", "ops", "bytes_io"] {
            let v = e
                .get(field)
                .and_then(Json::as_num)
                .ok_or(format!("entry {scenario:?}: missing numeric {field}"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("entry {scenario:?}: {field} = {v} out of range"));
            }
        }
        // `serve/…` scenarios are closed-loop load points: they MUST carry
        // ordered latency percentiles. Any entry carrying the fields gets
        // the same validation.
        let pcts = ["p50_ns", "p95_ns", "p99_ns"];
        if scenario.starts_with("serve/") || pcts.iter().any(|f| e.get(f).is_some()) {
            let mut prev = 0.0f64;
            for field in pcts {
                let v = e
                    .get(field)
                    .and_then(Json::as_num)
                    .ok_or(format!("entry {scenario:?}: missing numeric {field}"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("entry {scenario:?}: {field} = {v} out of range"));
                }
                if v < prev {
                    return Err(format!(
                        "entry {scenario:?}: {field} = {v} below a lower percentile \
                         ({prev}) — percentiles must be non-decreasing"
                    ));
                }
                prev = v;
            }
        }
    }
    let scenarios = entries.len() - micro;
    if scenarios < 12 {
        return Err(format!("only {scenarios} query scenarios (≥ 12 required)"));
    }
    if micro == 0 {
        return Err("no micro/ operator benchmarks".into());
    }
    Ok(BenchSummary {
        entries: entries.len(),
        micro,
        scenarios,
    })
}

fn entries_by_name(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("entries")
        .and_then(Json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| e.get("scenario").and_then(Json::as_str).map(|n| (n, e)))
                .collect()
        })
        .unwrap_or_default()
}

/// The CI perf regression gate: compare the `micro/*` wall times of a
/// fresh document `b` against the committed baseline `a`, failing when any
/// common microbench regressed beyond `tolerance_pct` percent. Only the
/// **intersection** of micro scenario names is judged — the baseline is a
/// full-matrix run while CI produces a smoke run, so the query scenarios
/// (scale-dependent names) legitimately differ; micro names do not depend
/// on the matrix. Returns the number of microbenches compared.
pub fn compare_micro_wall(a: &Json, b: &Json, tolerance_pct: f64) -> Result<usize, String> {
    check_bench(a).map_err(|e| format!("first document: {e}"))?;
    check_bench(b).map_err(|e| format!("second document: {e}"))?;
    if !tolerance_pct.is_finite() || tolerance_pct < 0.0 {
        return Err(format!("tolerance must be ≥ 0, got {tolerance_pct}"));
    }
    let base = entries_by_name(a);
    let fresh = entries_by_name(b);
    let wall = |e: &Json| e.get("wall_ns").and_then(Json::as_num).expect("checked");
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for (name, be) in &base {
        if !name.starts_with("micro/") {
            continue;
        }
        let Some((_, fe)) = fresh.iter().find(|(n, _)| n == name) else {
            continue;
        };
        compared += 1;
        let (old, new) = (wall(be), wall(fe));
        let limit = old * (1.0 + tolerance_pct / 100.0);
        if new > limit {
            regressions.push(format!(
                "{name}: {old:.0} ns → {new:.0} ns ({:+.1}% > +{tolerance_pct}%)",
                (new / old.max(1.0) - 1.0) * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err("no common micro/* scenarios to compare".into());
    }
    if !regressions.is_empty() {
        return Err(format!(
            "{} micro wall-clock regression(s) beyond tolerance:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ));
    }
    Ok(compared)
}

/// The exact gate: both documents pass [`check_bench`], carry the same
/// scenario names in the same order, and every entry's deterministic
/// observations (`simulated_s`, `ops`, `bytes_io`) are **bit-identical**.
/// Wall time and latency percentiles are free: they are what a change that
/// keeps behaviour is allowed to move. Every divergence is reported, not
/// just the first. Returns the entry count.
pub fn compare_exact(a: &Json, b: &Json) -> Result<usize, String> {
    check_bench(a).map_err(|e| format!("first document: {e}"))?;
    check_bench(b).map_err(|e| format!("second document: {e}"))?;
    let (ea, eb) = (entries_by_name(a), entries_by_name(b));
    let mut diverging: Vec<String> = Vec::new();
    if ea.len() != eb.len() {
        diverging.push(format!("entry counts differ: {} vs {}", ea.len(), eb.len()));
    }
    for (i, ((na, x), (nb, y))) in ea.iter().zip(&eb).enumerate() {
        if na != nb {
            diverging.push(format!("entry {i}: scenario {na:?} vs {nb:?}"));
            continue;
        }
        for field in ["simulated_s", "ops", "bytes_io"] {
            let vx = x.get(field).and_then(Json::as_num).expect("checked");
            let vy = y.get(field).and_then(Json::as_num).expect("checked");
            if vx != vy {
                diverging.push(format!("{na}: {field} {vx} vs {vy}"));
            }
        }
    }
    if !diverging.is_empty() {
        return Err(format!(
            "{} divergence(s):\n  {}",
            diverging.len(),
            diverging.join("\n  ")
        ));
    }
    Ok(ea.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x\"y\n".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(12345678.0)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("").is_err());
    }

    fn entry(name: &str) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(name.into())),
            ("wall_ns".into(), Json::Num(100.0)),
            ("simulated_s".into(), Json::Num(0.5)),
            ("ops".into(), Json::Num(10.0)),
            ("bytes_io".into(), Json::Num(2048.0)),
        ])
    }

    fn doc(names: &[String]) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            ("mode".into(), Json::Str("smoke".into())),
            (
                "entries".into(),
                Json::Arr(names.iter().map(|n| entry(n)).collect()),
            ),
        ])
    }

    #[test]
    fn checker_accepts_valid_and_counts() {
        let mut names: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
        names.push("micro/x".into());
        let summary = check_bench(&doc(&names)).unwrap();
        assert_eq!(
            summary,
            BenchSummary {
                entries: 13,
                micro: 1,
                scenarios: 12
            }
        );
    }

    #[test]
    fn checker_rejects_violations() {
        // Too few scenarios.
        let names: Vec<String> = (0..3).map(|i| format!("q{i}")).collect();
        assert!(check_bench(&doc(&names)).is_err());
        // Duplicate scenario.
        let mut names: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
        names.push("q0".into());
        assert!(check_bench(&doc(&names)).is_err());
        // No micro benches.
        let names: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
        assert!(check_bench(&doc(&names)).is_err());
        // Negative number.
        let mut bad = doc(&(0..12).map(|i| format!("q{i}")).collect::<Vec<_>>());
        if let Json::Obj(fields) = &mut bad {
            if let Json::Arr(entries) = &mut fields[2].1 {
                if let Json::Obj(e) = &mut entries[0] {
                    e[1].1 = Json::Num(-1.0);
                }
            }
        }
        assert!(check_bench(&bad).is_err());
    }

    fn with_entry_field(mut d: Json, idx: usize, field: usize, v: Json) -> Json {
        if let Json::Obj(fields) = &mut d {
            if let Json::Arr(entries) = &mut fields[2].1 {
                if let Json::Obj(e) = &mut entries[idx] {
                    e[field].1 = v;
                }
            }
        }
        d
    }

    #[test]
    fn micro_wall_gate_tolerates_and_catches_regressions() {
        let names: Vec<String> = (0..12)
            .map(|i| format!("q{i}"))
            .chain(["micro/a".into(), "micro/b".into()])
            .collect();
        let base = doc(&names);
        // Identical runs always pass, any tolerance.
        assert_eq!(compare_micro_wall(&base, &base, 0.0), Ok(2));
        // +40% on one micro: passes at 50%, fails at 20%. (entry field 1 is
        // wall_ns; micro/a is entry 12.)
        let slower = with_entry_field(base.clone(), 12, 1, Json::Num(140.0));
        assert_eq!(compare_micro_wall(&base, &slower, 50.0), Ok(2));
        let err = compare_micro_wall(&base, &slower, 20.0).unwrap_err();
        assert!(err.contains("micro/a"), "{err}");
        // Query-scenario wall changes never trip the gate.
        let q_slower = with_entry_field(base.clone(), 0, 1, Json::Num(1e12));
        assert_eq!(compare_micro_wall(&base, &q_slower, 0.0), Ok(2));
        // Disjoint micro sets cannot be judged.
        let mut other_names = names.clone();
        other_names[12] = "micro/x".into();
        other_names[13] = "micro/y".into();
        assert!(compare_micro_wall(&base, &doc(&other_names), 50.0).is_err());
        // Baseline smoke/full drift in query names is fine: only the micro
        // intersection matters.
        let mut smoke_names: Vec<String> = (0..12).map(|i| format!("s{i}")).collect();
        smoke_names.extend(["micro/a".into(), "micro/b".into()]);
        assert_eq!(compare_micro_wall(&base, &doc(&smoke_names), 10.0), Ok(2));
        // Negative tolerance is rejected.
        assert!(compare_micro_wall(&base, &base, -1.0).is_err());
    }

    #[test]
    fn exact_gate_requires_identical_names_and_observations() {
        let names: Vec<String> = (0..12)
            .map(|i| format!("q{i}"))
            .chain(std::iter::once("micro/x".into()))
            .collect();
        let base = doc(&names);
        assert_eq!(compare_exact(&base, &base), Ok(13));
        // Wall time may move freely...
        let wall_moved = with_entry_field(base.clone(), 3, 1, Json::Num(9_999_999.0));
        assert_eq!(compare_exact(&base, &wall_moved), Ok(13));
        // ...but simulated_s (field 2), ops (3) and bytes_io (4) may not,
        // and every divergence is reported.
        for field in [2usize, 3, 4] {
            let drift = with_entry_field(base.clone(), 5, field, Json::Num(123_456.0));
            let drift = with_entry_field(drift, 7, field, Json::Num(123_456.0));
            let err = compare_exact(&base, &drift).unwrap_err();
            assert!(err.starts_with("2 divergence(s)"), "{err}");
            assert!(err.contains("q5:") && err.contains("q7:"), "{err}");
        }
        // A renamed scenario is drift.
        let mut renamed = names.clone();
        renamed[3] = "q3-renamed".into();
        let err = compare_exact(&base, &doc(&renamed)).unwrap_err();
        assert!(err.contains("entry 3"), "{err}");
        // An extra scenario is drift.
        let mut longer = names.clone();
        longer.push("q12".into());
        let err = compare_exact(&base, &doc(&longer)).unwrap_err();
        assert!(err.contains("entry counts differ"), "{err}");
        // An invalid document never compares clean.
        assert!(compare_exact(&base, &Json::Obj(vec![])).is_err());
    }

    #[test]
    fn checker_validates_serve_percentiles() {
        let names: Vec<String> = (0..12)
            .map(|i| format!("q{i}"))
            .chain(std::iter::once("micro/x".into()))
            .collect();
        let with_serve = |extra: Vec<(String, Json)>| {
            let Json::Obj(mut fields) = doc(&names) else {
                unreachable!()
            };
            let Json::Arr(entries) = &mut fields[2].1 else {
                unreachable!()
            };
            let Json::Obj(mut e) = entry("serve/load") else {
                unreachable!()
            };
            e.extend(extra);
            entries.push(Json::Obj(e));
            Json::Obj(fields)
        };
        let pct = |p50: f64, p95: f64, p99: f64| {
            vec![
                ("p50_ns".into(), Json::Num(p50)),
                ("p95_ns".into(), Json::Num(p95)),
                ("p99_ns".into(), Json::Num(p99)),
            ]
        };
        // Ordered percentiles pass; ties are fine.
        assert!(check_bench(&with_serve(pct(10.0, 20.0, 30.0))).is_ok());
        assert!(check_bench(&with_serve(pct(10.0, 10.0, 10.0))).is_ok());
        // A serve/ entry without percentiles is invalid.
        let err = check_bench(&with_serve(vec![])).unwrap_err();
        assert!(err.contains("p50_ns"), "{err}");
        // Out-of-order and non-finite percentiles fail.
        assert!(check_bench(&with_serve(pct(30.0, 20.0, 40.0))).is_err());
        assert!(check_bench(&with_serve(pct(10.0, 20.0, f64::NAN))).is_err());
        assert!(check_bench(&with_serve(pct(-1.0, 2.0, 3.0))).is_err());
        // Percentiles on a non-serve entry are validated the same way.
        let mut bad_micro = doc(&names);
        if let Json::Obj(fields) = &mut bad_micro {
            if let Json::Arr(entries) = &mut fields[2].1 {
                if let Json::Obj(e) = &mut entries[12] {
                    e.push(("p50_ns".into(), Json::Num(5.0)));
                }
            }
        }
        let err = check_bench(&bad_micro).unwrap_err();
        assert!(err.contains("p95_ns"), "{err}");
    }
}
