//! The four indexing schemes compared in Figure 7.
//!
//! * **FullIndex** — the GhostDB design: one SKT per non-leaf table, every
//!   indexed attribute carries a climbing index referencing *all* ancestor
//!   tables, and every node table's primary key carries a climbing index
//!   (an offset array per ancestor, [`crate::pk`]).
//! * **BasicIndex** — a single SKT (root) and climbing indexes referencing
//!   the indexed table and the root only (primary keys: the root only). Cheaper, but Cross-filtering on
//!   intermediate tables becomes impossible.
//! * **StarIndex** — the data-warehouse baseline (O'Neil & Graefe style):
//!   the root SKT precomputes star joins, selection indexes are traditional
//!   (IDs of the indexed table only).
//! * **JoinIndex** — Valduriez-style binary join indexes: traditional
//!   indexes on all attributes including keys and foreign keys, no SKT.

use crate::climbing::LevelSpec;
use ghostdb_storage::{SchemaTree, TableId};

/// One of the Figure 7 indexing schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexScheme {
    /// GhostDB's full design.
    Full,
    /// Single SKT + self-and-root climbing indexes.
    Basic,
    /// Root SKT + traditional selection indexes.
    Star,
    /// Join indexes only, no SKT.
    Join,
}

impl IndexScheme {
    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            IndexScheme::Full => "FullIndex",
            IndexScheme::Basic => "BasicIndex",
            IndexScheme::Star => "StarIndex",
            IndexScheme::Join => "JoinIndex",
        }
    }

    /// All four schemes, in the paper's legend order.
    pub fn all() -> [IndexScheme; 4] {
        [
            IndexScheme::Full,
            IndexScheme::Basic,
            IndexScheme::Star,
            IndexScheme::Join,
        ]
    }

    /// Does this scheme build the SKT of table `t`?
    pub fn has_skt(&self, schema: &SchemaTree, t: TableId) -> bool {
        let non_leaf = !schema.children(t).is_empty();
        match self {
            IndexScheme::Full => non_leaf,
            IndexScheme::Basic | IndexScheme::Star => non_leaf && t == schema.root(),
            IndexScheme::Join => false,
        }
    }

    /// Level specification for a *selection* (attribute) index on `t`.
    pub fn attr_levels(&self) -> LevelSpec {
        match self {
            IndexScheme::Full => LevelSpec::FullClimb,
            IndexScheme::Basic => LevelSpec::SelfAndRoot,
            IndexScheme::Star | IndexScheme::Join => LevelSpec::SelfOnly,
        }
    }

    /// The levels of the primary-key climbing index this scheme builds on
    /// node table `t` (Figure 4's "Climbing Index on T1.id"): every
    /// ancestor for FullIndex, the root only for BasicIndex, none for the
    /// root or the other schemes.
    pub fn pk_levels(&self, schema: &SchemaTree, t: TableId) -> Vec<TableId> {
        if t == schema.root() {
            return Vec::new(); // tables and SKTs are already sorted by root id
        }
        match self {
            IndexScheme::Full => schema.ancestors(t),
            IndexScheme::Basic => vec![schema.root()],
            IndexScheme::Star => Vec::new(),
            IndexScheme::Join => Vec::new(), // joins go through per-fk join indexes instead
        }
    }

    /// Does this scheme keep a binary join index per foreign-key edge
    /// (JoinIndex scheme only)?
    pub fn has_fk_join_indexes(&self) -> bool {
        matches!(self, IndexScheme::Join)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_storage::schema::paper_synthetic_schema;

    #[test]
    fn skt_placement_per_scheme() {
        let s = paper_synthetic_schema(1, 1);
        let t0 = s.root();
        let t1 = s.table_id("T1").unwrap();
        let t2 = s.table_id("T2").unwrap();
        assert!(IndexScheme::Full.has_skt(&s, t0));
        assert!(IndexScheme::Full.has_skt(&s, t1));
        assert!(!IndexScheme::Full.has_skt(&s, t2), "T2 is a leaf");
        assert!(IndexScheme::Basic.has_skt(&s, t0));
        assert!(!IndexScheme::Basic.has_skt(&s, t1));
        assert!(IndexScheme::Star.has_skt(&s, t0));
        assert!(!IndexScheme::Join.has_skt(&s, t0));
    }

    #[test]
    fn level_specs_per_scheme() {
        assert_eq!(IndexScheme::Full.attr_levels(), LevelSpec::FullClimb);
        assert_eq!(IndexScheme::Basic.attr_levels(), LevelSpec::SelfAndRoot);
        assert_eq!(IndexScheme::Star.attr_levels(), LevelSpec::SelfOnly);
        assert_eq!(IndexScheme::Join.attr_levels(), LevelSpec::SelfOnly);
    }

    #[test]
    fn pk_levels_per_scheme() {
        let s = paper_synthetic_schema(1, 1);
        let (t0, t1) = (s.root(), s.table_id("T1").unwrap());
        let t12 = s.table_id("T12").unwrap();
        assert_eq!(IndexScheme::Full.pk_levels(&s, t12), vec![t1, t0]);
        assert_eq!(IndexScheme::Basic.pk_levels(&s, t12), vec![t0]);
        assert!(IndexScheme::Full.pk_levels(&s, t0).is_empty());
        assert!(IndexScheme::Star.pk_levels(&s, t12).is_empty());
        assert!(IndexScheme::Join.pk_levels(&s, t12).is_empty());
    }

    #[test]
    fn only_join_scheme_keeps_fk_indexes() {
        assert!(IndexScheme::Join.has_fk_join_indexes());
        assert!(!IndexScheme::Full.has_fk_join_indexes());
    }
}
