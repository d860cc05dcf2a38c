//! Columnar (dictionary-encoded) views of the relation segments.
//!
//! The row-at-a-time executors in `cqa-exec` spend their time hashing and
//! cloning [`Value`]s: every probe key re-hashes `Arc<str>` contents and
//! every register write clones an `Arc`. The vectorized block-at-a-time
//! executor instead works on **dense codes**:
//!
//! * a [`Dictionary`] maps values to dense `u32` codes. Codes are
//!   **append-only** within a database lineage (a database, its clones and
//!   their snapshots): a value keeps its code forever, so the code columns
//!   of a relation nobody wrote stay valid in every later snapshot. The
//!   executor only ever compares codes for equality, never for order;
//! * [`RelationColumns`] stores, per relation, one `u32` column per
//!   attribute position, with row `r` the relation's local fact id `r`
//!   ([`DatabaseIndex::relation_fact_ids`]) — the same order the row
//!   engine iterates, so row indices are meaningful to both;
//! * a [`CodeIndex`] is a hash index over one or two columns whose probe
//!   key is a single packed `u64` — one integer hash per batch row instead
//!   of hashing a `Vec<Value>`.
//!
//! Columns and code indexes are built lazily, once per relation segment,
//! and shared by every snapshot that shares the segment.
//!
//! [`DatabaseIndex::relation_fact_ids`]: crate::DatabaseIndex::relation_fact_ids

use crate::cow::{Buckets, ChunkedVec, ShardedMap};
use crate::{Fact, Value};
use std::sync::{Arc, Mutex, PoisonError};

/// One frozen version of a lineage's append-only value dictionary.
///
/// Both directions are stored copy-on-write in small pieces (chunks of the
/// code → value table, hash shards of the value → code map), so a version
/// is cloned in O(pieces) and interning a value copies at most one chunk
/// and one shard that an older version still shares.
///
/// A code may belong to a value no fact carries any more (codes are never
/// reused); probing for it simply finds no rows.
#[derive(Clone)]
pub struct Dictionary {
    values: ChunkedVec<Value>,
    codes: ShardedMap<Value, u32>,
}

impl Dictionary {
    fn new() -> Self {
        Dictionary {
            values: ChunkedVec::new(),
            codes: ShardedMap::new(),
        }
    }

    /// The code of `value`, or `None` when no fact of the lineage ever
    /// carried it (then no fact of this snapshot carries it either).
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        self.codes.get(value).copied()
    }

    /// The value a code decodes to.
    pub fn value(&self, code: u32) -> &Value {
        self.values.get(code as usize)
    }

    /// Number of codes assigned so far (live and dead values).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff no code has been assigned.
    pub fn is_empty(&self) -> bool {
        self.values.len() == 0
    }

    /// The code of `value`, assigning the next one if it has none.
    fn intern(&mut self, value: &Value) -> u32 {
        if let Some(code) = self.code_of(value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.codes.insert(value.clone(), code);
        self.values.push(value.clone());
        code
    }
}

/// The dictionary one database lineage interns into. Shared (by `Arc`) by
/// a database, its clones and their snapshots, so any two of them agree
/// on every code and can share encoded segments.
pub(crate) struct Codebook {
    dictionary: Mutex<Dictionary>,
}

impl Default for Codebook {
    fn default() -> Self {
        Codebook {
            dictionary: Mutex::new(Dictionary::new()),
        }
    }
}

impl Codebook {
    /// Encodes facts of one relation, each as its row of codes, interning
    /// new values.
    pub(crate) fn encode<'a>(&self, facts: impl IntoIterator<Item = &'a Fact>) -> Vec<Vec<u32>> {
        let mut dictionary = self
            .dictionary
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        facts
            .into_iter()
            .map(|fact| fact.values().iter().map(|v| dictionary.intern(v)).collect())
            .collect()
    }

    /// The current version of the dictionary: it decodes every code any
    /// segment of the lineage was encoded with so far.
    pub(crate) fn view(&self) -> Dictionary {
        self.dictionary
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The dictionary-encoded columns of one relation.
///
/// `column(p)[r]` is the code of the value at position `p` of the
/// relation's fact with local id `r`.
#[derive(Clone)]
pub struct RelationColumns {
    columns: Vec<Vec<u32>>,
}

impl RelationColumns {
    /// Columns from rows of codes, for a relation of arity `arity`.
    pub(crate) fn from_rows(rows: Vec<Vec<u32>>, arity: usize) -> Self {
        let mut columns = vec![Vec::with_capacity(rows.len()); arity];
        for row in rows {
            for (column, code) in columns.iter_mut().zip(row) {
                column.push(code);
            }
        }
        RelationColumns { columns }
    }

    /// The code column at one attribute position.
    pub fn column(&self, position: usize) -> &[u32] {
        &self.columns[position]
    }

    /// Number of rows (= facts of the relation).
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// The codes of one row, in position order.
    pub(crate) fn row(&self, row: usize) -> Vec<u32> {
        self.columns.iter().map(|column| column[row]).collect()
    }

    pub(crate) fn push(&mut self, codes: &[u32]) {
        for (column, &code) in self.columns.iter_mut().zip(codes) {
            column.push(code);
        }
    }

    /// Removes a row; the last row takes its place.
    pub(crate) fn swap_remove(&mut self, row: usize) {
        for column in &mut self.columns {
            column.swap_remove(row);
        }
    }
}

/// The columnar view of a whole snapshot: a dictionary version plus one
/// [`RelationColumns`] per relation (shared with the relation segments).
pub struct Columnar {
    dictionary: Dictionary,
    relations: Vec<Arc<RelationColumns>>,
}

impl Columnar {
    pub(crate) fn new(dictionary: Dictionary, relations: Vec<Arc<RelationColumns>>) -> Self {
        Columnar {
            dictionary,
            relations,
        }
    }

    /// The snapshot's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The code columns of one relation.
    pub fn relation(&self, relation: crate::RelationId) -> &RelationColumns {
        &self.relations[relation.index()]
    }
}

/// A hash index of one relation over the packed codes of one or two
/// positions: the vectorized counterpart of [`crate::PositionIndex`].
///
/// Buckets hold **row indices** (local fact ids), ascending — so a bucket
/// enumerates candidates in exactly the order the row engine would.
#[derive(Clone)]
pub struct CodeIndex {
    positions: Vec<usize>,
    buckets: Buckets<u64>,
}

impl CodeIndex {
    /// Packs the codes of a one- or two-position key into the probe word.
    /// Keys are in ascending position order, matching [`CodeIndex::positions`].
    pub fn pack(codes: &[u32]) -> u64 {
        match codes {
            [a] => *a as u64,
            [a, b] => ((*a as u64) << 32) | *b as u64,
            _ => panic!("CodeIndex keys cover one or two positions"),
        }
    }

    pub(crate) fn build(columns: &RelationColumns, positions: &[usize]) -> Self {
        assert!(
            matches!(positions.len(), 1 | 2),
            "CodeIndex keys cover one or two positions"
        );
        let key = |row: usize| {
            let codes: Vec<u32> = positions.iter().map(|&p| columns.column(p)[row]).collect();
            CodeIndex::pack(&codes)
        };
        CodeIndex {
            positions: positions.to_vec(),
            buckets: Buckets::group((0..columns.row_count()).map(|row| (key(row), row as u32))),
        }
    }

    /// The probe word of a row given its codes in position order.
    pub(crate) fn key(&self, row: &[u32]) -> u64 {
        let codes: Vec<u32> = self.positions.iter().map(|&p| row[p]).collect();
        CodeIndex::pack(&codes)
    }

    pub(crate) fn buckets_mut(&mut self) -> &mut Buckets<u64> {
        &mut self.buckets
    }

    /// The indexed positions, ascending (one or two of them).
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The row indices whose packed key equals `key`, ascending. Missing
    /// keys give `&[]`.
    pub fn candidates(&self, key: u64) -> &[u32] {
        self.buckets.get(&key).map_or(&[], |ids| ids)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, UncertainDatabase};

    fn db() -> UncertainDatabase {
        let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
        db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
        db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
        db.insert_values("R", ["PODS", "A"]).unwrap();
        db.insert_values("R", ["KDD", "A"]).unwrap();
        db.insert_values("R", ["KDD", "B"]).unwrap();
        db
    }

    #[test]
    fn dictionary_codes_round_trip() {
        let db = db();
        let index = db.index();
        let dict = index.columnar().dictionary();
        assert_eq!(dict.len(), index.active_domain().len());
        assert!(!dict.is_empty());
        for value in index.active_domain() {
            let code = dict.code_of(value).unwrap();
            assert_eq!(dict.value(code), value);
        }
        assert_eq!(dict.code_of(&Value::str("not-there")), None);
    }

    #[test]
    fn codes_are_append_only_across_writes() {
        let mut db = db();
        let before = db.snapshot();
        let rome = before
            .index()
            .columnar()
            .dictionary()
            .code_of(&Value::str("Rome"))
            .unwrap();
        // Removing every Rome fact and adding a new value keeps Rome's code
        // (dead, matching no row) and appends the new one.
        let c = db.schema().relation_id("C").unwrap();
        db.retain_facts(|f| f.relation() != c || f.value(2) != &Value::str("Rome"));
        db.insert_values("R", ["ICDT", "C"]).unwrap();
        let after = db.snapshot();
        let dict = after.index().columnar().dictionary();
        assert_eq!(dict.code_of(&Value::str("Rome")), Some(rome));
        assert!(dict.code_of(&Value::str("ICDT")).unwrap() as usize >= 8);
        assert!(!after.index().active_domain().contains(&Value::str("Rome")));
        // The old snapshot still decodes with its own version.
        assert_eq!(before.index().columnar().dictionary().len(), 8);
    }

    #[test]
    fn versions_are_frozen() {
        let mut dict = Dictionary::new();
        for i in 0..5000 {
            assert_eq!(dict.intern(&Value::int(i)), i as u32);
        }
        let frozen = dict.clone();
        dict.intern(&Value::str("late"));
        assert_eq!(frozen.code_of(&Value::str("late")), None);
        assert_eq!(dict.code_of(&Value::int(4003)), Some(4003));
        assert_eq!(frozen.value(1027), &Value::int(1027));
        assert_eq!(dict.value(dict.len() as u32 - 1), &Value::str("late"));
    }

    #[test]
    fn columns_align_with_relation_fact_order() {
        let db = db();
        let index = db.index();
        let columnar = index.columnar();
        let dict = columnar.dictionary();
        for (rel, _) in db.schema().iter() {
            let cols = columnar.relation(rel);
            let fact_ids = index.relation_fact_ids(rel);
            assert_eq!(cols.row_count(), fact_ids.len());
            for &fid in fact_ids {
                let fact = index.fact(rel, fid);
                let fid = fid as usize;
                for (pos, value) in fact.values().iter().enumerate() {
                    assert_eq!(dict.value(cols.column(pos)[fid]), value);
                }
            }
        }
    }

    #[test]
    fn code_index_buckets_match_position_index_buckets() {
        let db = db();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        let columnar = index.columnar();
        let dict = columnar.dictionary();
        let by_city = index.code_index(c, &[2]);
        let rome = dict.code_of(&Value::str("Rome")).unwrap();
        let hits = by_city.candidates(CodeIndex::pack(&[rome]));
        assert_eq!(hits.len(), 2);
        // Rows are local fact ids: the same ones the row engine's index finds.
        let reference = index.position_index(c, crate::PositionSet::single(2));
        assert_eq!(hits, reference.candidates(&[Value::str("Rome")]));
        // Two-position key.
        let pair = index.code_index(c, &[0, 2]);
        assert_eq!(pair.positions(), &[0, 2]);
        let pods = dict.code_of(&Value::str("PODS")).unwrap();
        assert_eq!(pair.candidates(CodeIndex::pack(&[pods, rome])).len(), 1);
        assert_eq!(pair.candidates(CodeIndex::pack(&[rome, pods])).len(), 0);
        assert!(pair.key_count() >= 3);
    }

    #[test]
    fn columnar_and_code_indexes_are_cached_per_snapshot() {
        let db = db();
        let index = db.index();
        let r = db.schema().relation_id("R").unwrap();
        assert!(std::ptr::eq(index.columnar(), index.columnar()));
        let a = index.code_index(r, &[0]);
        let b = index.code_index(r, &[0]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = index.code_index(r, &[0, 1]);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
