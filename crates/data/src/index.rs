//! The indexed view of an [`UncertainDatabase`]: its relation segments.
//!
//! The database's primary index (relation + key → block) supports the
//! block structure of Section 3; the solvers, however, join facts on
//! *arbitrary* position subsets: a backtracking join binds variables one atom
//! at a time, and the positions that are already bound change from search
//! node to search node. A [`DatabaseIndex`] serves exactly that access
//! pattern. It is the database's own storage — one `Arc`-shared
//! [`RelationSegment`] per relation — seen as an immutable value:
//!
//! * every fact gets a dense **relation-local** id, so candidate sets are
//!   plain `u32` lists instead of cloned facts;
//! * per-relation fact lists replace full-database scans;
//! * [`DatabaseIndex::position_index`] builds (lazily, once per segment) a
//!   hash index from the values at any chosen [`PositionSet`] to the ids of
//!   the facts carrying those values, so a join step with bound positions
//!   is a single hash probe;
//! * the sorted active domain, the statistics and the columnar view are
//!   assembled once per snapshot from per-segment parts.
//!
//! Obtaining it ([`UncertainDatabase::index`]) is an `Arc` clone. A write
//! copies only the segment it touches, so two snapshots share every
//! segment (and every index built on it) of the relations written in
//! between by neither.
//!
//! [`UncertainDatabase`]: crate::UncertainDatabase
//! [`UncertainDatabase::index`]: crate::UncertainDatabase::index

use crate::columnar::{CodeIndex, Codebook, Columnar};
use crate::segment::{PositionIndex, RelationSegment, RelationStatistics, Slot};
use crate::{Fact, FxHashSet, RelationId, Schema, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A set of attribute positions (0-based), stored as a bitmask.
///
/// Relations in this workspace have small arities (the paper's signatures
/// are `[n, k]` with tiny `n`); 64 positions are plenty.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PositionSet(u64);

impl PositionSet {
    /// The number of representable positions (`0..MAX_POSITIONS`). Callers
    /// indexing relations of larger arity must skip the excess positions
    /// (probing a position subset always yields a candidate *superset*, so
    /// skipping positions is sound wherever candidates are re-checked).
    pub const MAX_POSITIONS: usize = 64;

    /// The empty position set.
    pub fn empty() -> Self {
        PositionSet(0)
    }

    /// The set containing a single position.
    pub fn single(pos: usize) -> Self {
        let mut s = PositionSet::empty();
        s.insert(pos);
        s
    }

    /// Builds a set from an iterator of positions.
    pub fn from_positions(positions: impl IntoIterator<Item = usize>) -> Self {
        let mut s = PositionSet::empty();
        for p in positions {
            s.insert(p);
        }
        s
    }

    /// Adds a position (< 64).
    pub fn insert(&mut self, pos: usize) {
        assert!(
            pos < Self::MAX_POSITIONS,
            "PositionSet supports positions 0..64"
        );
        self.0 |= 1 << pos;
    }

    /// True iff the position is in the set.
    pub fn contains(&self, pos: usize) -> bool {
        pos < Self::MAX_POSITIONS && self.0 & (1 << pos) != 0
    }

    /// True iff no position is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..Self::MAX_POSITIONS).filter(move |p| bits & (1 << p) != 0)
    }
}

impl fmt::Debug for PositionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Snapshot-wide statistics: one [`RelationStatistics`] per relation,
/// shared with the relation segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statistics {
    relations: Vec<Arc<RelationStatistics>>,
}

impl Statistics {
    /// The statistics of one relation.
    pub fn relation(&self, relation: RelationId) -> &RelationStatistics {
        &self.relations[relation.index()]
    }

    /// Iterates over `(RelationId, &RelationStatistics)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &RelationStatistics)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, s)| (RelationId::from_index(i), &**s))
    }
}

/// An immutable, indexed view of an [`UncertainDatabase`]'s contents.
///
/// Obtained from [`UncertainDatabase::index`]; see the module documentation.
///
/// [`UncertainDatabase`]: crate::UncertainDatabase
/// [`UncertainDatabase::index`]: crate::UncertainDatabase::index
pub struct DatabaseIndex {
    segments: Vec<Arc<RelationSegment>>,
    fact_count: usize,
    codebook: Arc<Codebook>,
    active_domain: OnceLock<Vec<Value>>,
    statistics: OnceLock<Statistics>,
    columnar: OnceLock<Columnar>,
}

impl DatabaseIndex {
    /// No facts, one empty segment per relation, a fresh codebook.
    pub(crate) fn empty(schema: &Schema) -> Self {
        DatabaseIndex {
            segments: schema
                .iter()
                .map(|(id, r)| Arc::new(RelationSegment::new(id, r.arity(), r.key_len())))
                .collect(),
            fact_count: 0,
            codebook: Arc::default(),
            active_domain: OnceLock::new(),
            statistics: OnceLock::new(),
            columnar: OnceLock::new(),
        }
    }

    /// A copy sharing every segment and the codebook, with nothing
    /// snapshot-wide derived yet (O(relations)).
    pub(crate) fn fork(&self) -> Self {
        DatabaseIndex {
            segments: self.segments.clone(),
            fact_count: self.fact_count,
            codebook: self.codebook.clone(),
            active_domain: OnceLock::new(),
            statistics: OnceLock::new(),
            columnar: OnceLock::new(),
        }
    }

    /// The segment of `relation` for a write: copied first (its piece
    /// handles, see [`crate::cow`]) if another index shares it. Drops the
    /// snapshot-wide derived views, which the write is about to make stale.
    fn segment_mut(&mut self, relation: RelationId) -> (&mut RelationSegment, &Codebook) {
        self.active_domain.take();
        self.statistics.take();
        self.columnar.take();
        let segment = &mut self.segments[relation.index()];
        if Arc::get_mut(segment).is_none() {
            cqa_obs::count!("data.segments.forked");
            *segment = Arc::new(RelationSegment::clone(segment));
        }
        let segment = Arc::get_mut(segment).expect("the segment was just made unique");
        (segment, &self.codebook)
    }

    /// Inserts an absent fact of the right arity at its [`Slot`].
    pub(crate) fn insert(&mut self, fact: Fact, slot: Slot) {
        let (segment, codebook) = self.segment_mut(fact.relation());
        segment.insert(fact, slot, codebook);
        self.fact_count += 1;
    }

    /// Removes a present fact.
    pub(crate) fn remove_fact(&mut self, fact: &Fact) {
        let removed = self.segment_mut(fact.relation()).0.remove_fact(fact);
        debug_assert!(removed, "callers remove only present facts");
        self.fact_count -= 1;
    }

    /// Removes the present block of `relation` with `key`.
    pub(crate) fn remove_block(&mut self, relation: RelationId, key: &[Value]) {
        self.fact_count -= self.segment_mut(relation).0.remove_block(key);
    }

    /// The relation segments, in relation order.
    pub fn segments(&self) -> &[Arc<RelationSegment>] {
        &self.segments
    }

    /// The segment of one relation.
    pub fn segment(&self, relation: RelationId) -> &Arc<RelationSegment> {
        &self.segments[relation.index()]
    }

    /// Number of relations whose segment `other` shares with this index
    /// (the same allocation, not merely equal contents).
    pub fn shared_segments(&self, other: &DatabaseIndex) -> usize {
        self.segments
            .iter()
            .zip(&other.segments)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of relations in the schema the index was built over.
    pub fn relation_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// The fact of `relation` with the given local id.
    pub fn fact(&self, relation: RelationId, id: u32) -> &Fact {
        self.segment(relation).fact(id)
    }

    /// Local ids of all facts of one relation: `0..n`, ascending.
    pub fn relation_fact_ids(&self, relation: RelationId) -> &[u32] {
        self.segment(relation).fact_ids()
    }

    /// The facts of one relation, by local id.
    pub fn relation_facts(&self, relation: RelationId) -> impl Iterator<Item = &Fact> {
        self.segment(relation).facts()
    }

    /// The sorted, deduplicated active domain, computed once per snapshot.
    pub fn active_domain(&self) -> &[Value] {
        self.active_domain.get_or_init(|| {
            cqa_obs::count!("data.active_domain.build");
            let distinct: FxHashSet<&Value> = self
                .segments
                .iter()
                .flat_map(|s| s.facts())
                .flat_map(|f| f.values())
                .collect();
            let mut domain: Vec<Value> = distinct.into_iter().cloned().collect();
            domain.sort_unstable();
            domain
        })
    }

    /// Per-relation statistics (cardinality, block count, distinct values
    /// per position), assembled once per snapshot from the segments.
    ///
    /// These are the inputs of the `cqa-exec` cost model: they are exact for
    /// the snapshot they were computed on and serve as *estimates* when a
    /// plan compiled against one snapshot is executed against another.
    pub fn statistics(&self) -> &Statistics {
        self.statistics.get_or_init(|| Statistics {
            relations: self
                .segments
                .iter()
                .map(|s| s.statistics().clone())
                .collect(),
        })
    }

    /// The hash index of `relation` on the given position subset, built on
    /// first use and cached on the relation's segment.
    ///
    /// An empty position set yields a single bucket (the empty key) holding
    /// every fact of the relation; callers with no bound positions should
    /// prefer [`DatabaseIndex::relation_fact_ids`].
    pub fn position_index(
        &self,
        relation: RelationId,
        positions: PositionSet,
    ) -> Arc<PositionIndex> {
        self.segment(relation).position_index(positions)
    }

    /// The dictionary-encoded columnar view, assembled on first use from
    /// the segments' code columns — the value arrays the vectorized
    /// executor scans.
    pub fn columnar(&self) -> &Columnar {
        self.columnar.get_or_init(|| {
            let relations = self
                .segments
                .iter()
                .map(|s| s.columns(&self.codebook).clone())
                .collect();
            // Taken after every segment is encoded, so it decodes them all.
            Columnar::new(self.codebook.view(), relations)
        })
    }

    /// The packed-code hash index of `relation` over one or two `positions`
    /// (ascending), built on first use and cached on the relation's
    /// segment — the vectorized counterpart of
    /// [`DatabaseIndex::position_index`].
    pub fn code_index(&self, relation: RelationId, positions: &[usize]) -> Arc<CodeIndex> {
        self.segment(relation).code_index(positions, &self.codebook)
    }
}

impl fmt::Debug for DatabaseIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatabaseIndex({} facts)", self.fact_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UncertainDatabase;

    fn figure1() -> UncertainDatabase {
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
    fn position_sets_behave_like_sets() {
        let s = PositionSet::from_positions([2, 0]);
        assert!(s.contains(0) && s.contains(2) && !s.contains(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(PositionSet::empty().is_empty());
        assert_eq!(PositionSet::single(3).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn index_lists_facts_per_relation_with_local_ids() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(index.fact_count(), 6);
        assert_eq!(index.relation_fact_ids(c), &[0, 1, 2]);
        assert_eq!(index.relation_fact_ids(r), &[0, 1, 2]);
        assert_eq!(index.segment(c).block_count(), 2);
        assert_eq!(index.segment(r).block_count(), 2);
        for &fid in index.relation_fact_ids(c) {
            let fact = index.fact(c, fid);
            assert_eq!(fact.relation(), c);
            assert!(db.block_of(fact).unwrap().contains(fact));
        }
    }

    #[test]
    fn position_probes_find_exactly_the_matching_facts() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        // Index C on its third column (the city).
        let city = index.position_index(c, PositionSet::single(2));
        assert_eq!(city.candidates(&[Value::str("Rome")]).len(), 2);
        assert_eq!(city.candidates(&[Value::str("Paris")]).len(), 1);
        assert_eq!(city.candidates(&[Value::str("Tokyo")]).len(), 0);
        assert_eq!(city.key_count(), 2);
        // Index C on (conference, city).
        let pair = index.position_index(c, PositionSet::from_positions([0, 2]));
        assert_eq!(pair.positions(), &[0, 2]);
        let hits = pair.candidates(&[Value::str("PODS"), Value::str("Rome")]);
        assert_eq!(hits.len(), 1);
        assert_eq!(index.fact(c, hits[0]).value(1), &Value::str("2016"));
        // The same subset is served from the cache (same Arc).
        let again = index.position_index(c, PositionSet::from_positions([0, 2]));
        assert!(Arc::ptr_eq(&pair, &again));
    }

    #[test]
    fn empty_position_set_buckets_everything_under_the_empty_key() {
        let db = figure1();
        let index = db.index();
        let r = db.schema().relation_id("R").unwrap();
        let all = index.position_index(r, PositionSet::empty());
        assert_eq!(all.candidates(&[]).len(), 3);
    }

    #[test]
    fn statistics_report_cardinalities_and_distinct_counts() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let stats = index.statistics();
        assert_eq!(stats.relation(c).fact_count(), 3);
        assert_eq!(stats.relation(c).block_count(), 2);
        // C columns: {PODS, KDD}, {2016, 2017}, {Rome, Paris}.
        assert_eq!(stats.relation(c).distinct_counts(), &[2, 2, 2]);
        assert_eq!(stats.relation(r).distinct_count(0), Some(2));
        assert_eq!(stats.relation(r).distinct_count(1), Some(2));
        assert_eq!(stats.relation(r).distinct_count(7), None);
        assert_eq!(stats.iter().count(), 2);
        // Served from the cache: same allocation on repeated calls.
        assert!(std::ptr::eq(stats, index.statistics()));
    }

    #[test]
    fn active_domain_is_sorted_and_complete() {
        let db = figure1();
        let index = db.index();
        let dom = index.active_domain();
        assert_eq!(dom.len(), 8);
        assert!(dom.windows(2).all(|w| w[0] < w[1]));
        let reference: Vec<Value> = db.active_domain().into_iter().collect();
        assert_eq!(dom, reference.as_slice());
    }

    #[test]
    fn writes_copy_only_the_touched_segment() {
        let mut db = figure1();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let a = db.index();
        assert!(Arc::ptr_eq(&a, &db.index()));
        db.insert_values("R", ["VLDB", "A"]).unwrap();
        let b = db.index();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.fact_count(), 7);
        assert!(Arc::ptr_eq(a.segment(c), b.segment(c)));
        assert!(!Arc::ptr_eq(a.segment(r), b.segment(r)));
        assert_eq!(b.shared_segments(&a), 1);
        // Removal too; the old index keeps its contents.
        db.remove_fact(&Fact::new(r, vec![Value::str("VLDB"), Value::str("A")]));
        assert_eq!(db.index().fact_count(), 6);
        assert_eq!(b.relation_facts(r).count(), 4);
        // A clone shares the index until either side writes.
        let clone = db.clone();
        assert!(Arc::ptr_eq(&clone.index(), &db.index()));
    }

    #[test]
    fn writes_patch_the_indexes_of_the_written_segment() {
        let mut db = figure1();
        let r = db.schema().relation_id("R").unwrap();
        let old = db.snapshot();
        let by_rank = old.index().position_index(r, PositionSet::single(1));
        let _ = old.index().statistics();
        let _ = old.index().code_index(r, &[1]);
        // R's facts by id: 0 (PODS, A), 1 (KDD, A), 2 (KDD, B).
        db.insert_values("R", ["VLDB", "A"]).unwrap();
        assert!(db.remove_fact(&Fact::new(r, vec![Value::str("PODS"), Value::str("A")])));
        // The last fact, (VLDB, A), took over id 0.
        let new = db.snapshot();
        let index = new.index();
        assert_eq!(index.fact(r, 0).value(0), &Value::str("VLDB"));
        let patched = index.position_index(r, PositionSet::single(1));
        assert!(!Arc::ptr_eq(&patched, &by_rank));
        assert_eq!(patched.candidates(&[Value::str("A")]), &[0, 1]);
        assert_eq!(by_rank.candidates(&[Value::str("A")]), &[0, 1]);
        assert_eq!(index.statistics().relation(r).fact_count(), 3);
        assert_eq!(index.statistics().relation(r).distinct_counts(), &[2, 2]);
        let dict = index.columnar().dictionary();
        let a = dict.code_of(&Value::str("A")).unwrap();
        assert_eq!(
            index.code_index(r, &[1]).candidates(CodeIndex::pack(&[a])),
            &[0, 1]
        );
        let block = db.block_with_key(r, &[Value::str("VLDB")]).unwrap();
        assert_eq!(block.len(), 1);
    }
}
