//! The GhostDB SQL subset (paper §2.1 and §3).
//!
//! * `CREATE TABLE name (col TYPE [HIDDEN] [REFERENCES table], …)` — the
//!   paper's only administration-interface change is the `HIDDEN`
//!   annotation; `REFERENCES` declares the key/foreign-key tree edges.
//! * `SELECT proj FROM tables WHERE conjunction` — Select-Project-Join with
//!   exact-match and range selections; join predicates
//!   (`T.fk = T2.id`) are accepted and validated against the schema tree
//!   (they are implicit in GhostDB's execution model).

use crate::error::CoreError;
use crate::Result;
use ghostdb_storage::{CmpOp, ColumnType, Predicate, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable(CreateTable),
    /// SELECT.
    Select(SelectStmt),
}

/// A parsed CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Columns (the conventional `id INT` primary key column is recognised
    /// and elided — GhostDB ids are implicit surrogates).
    pub columns: Vec<CreateColumn>,
}

/// One column of a CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateColumn {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// `HIDDEN` annotation.
    pub hidden: bool,
    /// `REFERENCES table` annotation (declares a tree edge).
    pub references: Option<String>,
}

/// A parsed SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projections as (table, column); empty means `*`.
    pub projections: Vec<(String, String)>,
    /// `*` projection.
    pub star: bool,
    /// FROM tables.
    pub tables: Vec<String>,
    /// Selection predicates as (table, predicate).
    pub predicates: Vec<(String, Predicate)>,
    /// Join conditions as ((table, column), (table, column)).
    pub joins: Vec<((String, String), (String, String))>,
    /// Original text (travels to the token in the clear).
    pub text: String,
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(String),
    Str(String),
    Sym(char),
    Le,
    Ge,
    Ne,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '.' | '=' | '*' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            '<' | '>' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    out.push(if c == '<' { Tok::Le } else { Tok::Ge });
                    i += 2;
                } else if c == '<' && i + 1 < chars.len() && chars[i + 1] == '>' {
                    out.push(Tok::Ne);
                    i += 2;
                } else {
                    out.push(Tok::Sym(c));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(CoreError::Parse("unterminated string literal".into()));
                    }
                    if chars[i] == '\'' {
                        // '' escapes a quote.
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                if s.contains('\0') {
                    return Err(CoreError::NulInChar(format!("string literal {s:?}")));
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    s.push(chars[i]);
                    i += 1;
                }
                out.push(Tok::Number(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                out.push(Tok::Ident(s));
            }
            other => {
                return Err(CoreError::Parse(format!("unexpected character '{other}'")));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    text: String,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| CoreError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next()? {
            Tok::Sym(s) if s == c => Ok(()),
            other => Err(CoreError::Parse(format!("expected '{c}', got {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(CoreError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        let id = self.ident()?;
        if id.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(CoreError::Parse(format!("expected {kw}, got {id}")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_type(&mut self) -> Result<ColumnType> {
        let name = self.ident()?.to_ascii_lowercase();
        let width = if matches!(self.peek(), Some(Tok::Sym('('))) {
            self.expect_sym('(')?;
            let n = match self.next()? {
                Tok::Number(n) => n
                    .parse::<u32>()
                    .map_err(|_| CoreError::Parse(format!("bad width {n}")))?,
                other => return Err(CoreError::Parse(format!("expected width, got {other:?}"))),
            };
            self.expect_sym(')')?;
            Some(n)
        } else {
            None
        };
        match name.as_str() {
            "int" | "integer" => Ok(ColumnType::Int {
                width: width.unwrap_or(4).clamp(1, 8) as u8,
            }),
            "float" | "real" | "double" => Ok(ColumnType::Float {
                width: if width == Some(8) { 8 } else { 4 },
            }),
            "char" | "varchar" | "text" => Ok(ColumnType::Char {
                width: width.unwrap_or(16).max(1) as u16,
            }),
            other => Err(CoreError::Parse(format!("unknown type {other}"))),
        }
    }

    fn parse_create(&mut self) -> Result<CreateTable> {
        self.keyword("TABLE")?;
        let name = self.ident()?;
        self.expect_sym('(')?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let ty = self.parse_type()?;
            let mut hidden = false;
            let mut references = None;
            loop {
                if self.peek_keyword("HIDDEN") {
                    self.keyword("HIDDEN")?;
                    hidden = true;
                } else if self.peek_keyword("REFERENCES") {
                    self.keyword("REFERENCES")?;
                    references = Some(self.ident()?);
                } else {
                    break;
                }
            }
            // The conventional explicit primary key column `id` is elided:
            // GhostDB ids are implicit surrogates replicated on both sides.
            if !col_name.eq_ignore_ascii_case("id") {
                columns.push(CreateColumn {
                    name: col_name,
                    ty,
                    hidden,
                    references,
                });
            }
            match self.next()? {
                Tok::Sym(',') => continue,
                Tok::Sym(')') => break,
                other => {
                    return Err(CoreError::Parse(format!(
                        "expected ',' or ')', got {other:?}"
                    )))
                }
            }
        }
        Ok(CreateTable { name, columns })
    }

    fn qualified(&mut self) -> Result<(String, String)> {
        let table = self.ident()?;
        self.expect_sym('.')?;
        let col = self.ident()?;
        Ok((table, col))
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.next()? {
            Tok::Number(n) => {
                if n.contains('.') {
                    n.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| CoreError::Parse(format!("bad number {n}")))
                } else {
                    n.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| CoreError::Parse(format!("bad number {n}")))
                }
            }
            Tok::Str(s) => Ok(Value::Str(s)),
            other => Err(CoreError::Parse(format!("expected literal, got {other:?}"))),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        let mut projections = Vec::new();
        let mut star = false;
        if matches!(self.peek(), Some(Tok::Sym('*'))) {
            self.next()?;
            star = true;
        } else {
            loop {
                projections.push(self.qualified()?);
                if matches!(self.peek(), Some(Tok::Sym(','))) {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.keyword("FROM")?;
        let mut tables = Vec::new();
        loop {
            tables.push(self.ident()?);
            if matches!(self.peek(), Some(Tok::Sym(','))) {
                self.next()?;
            } else {
                break;
            }
        }
        let mut predicates = Vec::new();
        let mut joins = Vec::new();
        if self.peek_keyword("WHERE") {
            self.keyword("WHERE")?;
            loop {
                let (lt, lc) = self.qualified()?;
                if self.peek_keyword("BETWEEN") {
                    self.keyword("BETWEEN")?;
                    let lo = self.parse_value()?;
                    self.keyword("AND")?;
                    let hi = self.parse_value()?;
                    predicates.push((lt, Predicate::new(&lc, CmpOp::Between, lo, Some(hi))));
                } else {
                    let op = match self.next()? {
                        Tok::Sym('=') => CmpOp::Eq,
                        Tok::Sym('<') => CmpOp::Lt,
                        Tok::Sym('>') => CmpOp::Gt,
                        Tok::Le => CmpOp::Le,
                        Tok::Ge => CmpOp::Ge,
                        other => {
                            return Err(CoreError::Parse(format!(
                                "expected comparison operator, got {other:?}"
                            )))
                        }
                    };
                    // A qualified name on the right side makes it a join.
                    let is_join = matches!(
                        (self.peek(), self.toks.get(self.pos + 1)),
                        (Some(Tok::Ident(_)), Some(Tok::Sym('.')))
                    );
                    if is_join {
                        if op != CmpOp::Eq {
                            return Err(CoreError::Parse("joins must be equi-joins".into()));
                        }
                        let rhs = self.qualified()?;
                        joins.push(((lt, lc), rhs));
                    } else {
                        let v = self.parse_value()?;
                        predicates.push((lt, Predicate::new(&lc, op, v, None)));
                    }
                }
                if self.peek_keyword("AND") {
                    self.keyword("AND")?;
                } else {
                    break;
                }
            }
        }
        if self.pos != self.toks.len() {
            return Err(CoreError::Parse(format!(
                "trailing tokens after statement: {:?}",
                &self.toks[self.pos..]
            )));
        }
        Ok(SelectStmt {
            projections,
            star,
            tables,
            predicates,
            joins,
            text: self.text.clone(),
        })
    }
}

/// Parse one SQL statement.
pub fn parse(input: &str) -> Result<Statement> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        text: input.trim().to_string(),
    };
    let head = p.ident()?;
    if head.eq_ignore_ascii_case("CREATE") {
        Ok(Statement::CreateTable(p.parse_create()?))
    } else if head.eq_ignore_ascii_case("SELECT") {
        Ok(Statement::Select(p.parse_select()?))
    } else {
        Err(CoreError::Parse(format!("unsupported statement '{head}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_create_table() {
        // §2.1 verbatim (types normalised).
        let stmt = parse(
            "CREATE TABLE Patients (id int, name char(200) HIDDEN, age int, \
             city char(100), bodymassindex float HIDDEN)",
        )
        .unwrap();
        let Statement::CreateTable(ct) = stmt else {
            panic!()
        };
        assert_eq!(ct.name, "Patients");
        assert_eq!(ct.columns.len(), 4, "explicit id elided");
        assert!(ct.columns[0].hidden);
        assert_eq!(ct.columns[0].ty, ColumnType::char(200));
        assert!(!ct.columns[1].hidden);
        assert!(ct.columns[3].hidden);
    }

    #[test]
    fn parses_references() {
        let stmt = parse(
            "CREATE TABLE Measurements (id int, patient_id int HIDDEN REFERENCES Patients, \
             time char(10))",
        )
        .unwrap();
        let Statement::CreateTable(ct) = stmt else {
            panic!()
        };
        assert_eq!(ct.columns[0].references.as_deref(), Some("Patients"));
        assert!(ct.columns[0].hidden);
    }

    #[test]
    fn parses_the_paper_example_query() {
        let stmt = parse(
            "SELECT D.id, P.id, M.id FROM M, D, P \
             WHERE M.pid = P.id AND P.did = D.id \
             AND D.specialty = 'Psychiatrist' AND P.bodymassindex > 25",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.tables, vec!["M", "D", "P"]);
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.predicates.len(), 2);
        assert_eq!(
            s.predicates[0].1,
            Predicate::eq("specialty", Value::Str("Psychiatrist".into()))
        );
        assert_eq!(
            s.predicates[1].1,
            Predicate::new("bodymassindex", CmpOp::Gt, Value::Int(25), None)
        );
    }

    #[test]
    fn parses_star_between_and_comparisons() {
        let stmt =
            parse("SELECT * FROM T0 WHERE T0.h1 BETWEEN 'a' AND 'b' AND T0.v1 <= 7").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.star);
        assert_eq!(s.predicates.len(), 2);
        assert_eq!(s.predicates[0].1.op, CmpOp::Between);
        assert_eq!(s.predicates[1].1.op, CmpOp::Le);
    }

    #[test]
    fn string_escapes_and_floats() {
        let stmt = parse("SELECT T.a FROM T WHERE T.a = 'O''Brien' AND T.b > 2.5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.predicates[0].1.value, Value::Str("O'Brien".into()));
        assert_eq!(s.predicates[1].1.value, Value::Float(2.5));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("DROP TABLE x").is_err());
        assert!(parse("SELECT a FROM t").is_err(), "unqualified column");
        assert!(parse("SELECT T.a FROM T WHERE T.a = 'x").is_err());
        assert!(parse("SELECT T.a FROM T WHERE T.a ! 3").is_err());
        assert!(parse("CREATE TABLE t (c unknownty)").is_err());
    }
}
