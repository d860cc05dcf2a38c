//! Relation segments: the facts of one relation and everything derived
//! from them.
//!
//! A block (Section 3: a maximal set of key-equal facts) never spans two
//! relations, so an [`UncertainDatabase`] is stored as one
//! [`RelationSegment`] per relation behind an `Arc`. A segment holds its
//! relation's blocks, key map and facts and, built lazily on first use,
//! its statistics, position indexes, code columns and code indexes.
//!
//! Facts carry **relation-local ids** in insertion order: an insert takes
//! the next id, a removal gives the removed fact's id to the relation's
//! last fact. A write therefore changes a handful of entries of each
//! derived structure, which it patches in place. Every container is kept in
//! small copy-on-write pieces ([`crate::cow`]), so when a snapshot still
//! shares the segment, the write copies the segment's piece handles and the
//! few pieces it changes — not the relation.
//!
//! [`UncertainDatabase`]: crate::UncertainDatabase

use crate::columnar::{CodeIndex, Codebook, RelationColumns};
use crate::cow::{Buckets, ChunkedVec, ShardedMap};
use crate::{Block, Fact, FxHashMap, PositionSet, RelationId, Value};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A hash index of one relation on one position subset: maps the tuple of
/// values at those positions (in ascending position order) to the local
/// ids of the facts carrying them, ascending.
#[derive(Clone)]
pub struct PositionIndex {
    positions: Vec<usize>,
    buckets: Buckets<Vec<Value>>,
    empty: Arc<[u32]>,
}

impl PositionIndex {
    fn build<'a>(facts: impl Iterator<Item = &'a Fact>, positions: PositionSet) -> Self {
        let positions: Vec<usize> = positions.iter().collect();
        let key = |fact: &Fact| positions.iter().map(|&p| fact.value(p).clone()).collect();
        let buckets = Buckets::group(facts.enumerate().map(|(id, f)| (key(f), id as u32)));
        PositionIndex {
            positions,
            buckets,
            empty: Arc::from(&[][..]),
        }
    }

    fn key(&self, fact: &Fact) -> Vec<Value> {
        self.positions
            .iter()
            .map(|&p| fact.value(p).clone())
            .collect()
    }

    /// The indexed positions, ascending.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The fact ids whose values at the indexed positions equal `key`
    /// (values in ascending position order). Missing keys give `&[]`.
    pub fn candidates(&self, key: &[Value]) -> &[u32] {
        self.buckets.get(key).map_or(&[], |ids| ids)
    }

    /// Like [`PositionIndex::candidates`], but returns a shared handle, so a
    /// caller can resolve the bucket once and keep it without re-hashing the
    /// key (the join engine's per-node pattern).
    pub fn candidates_shared(&self, key: &[Value]) -> Arc<[u32]> {
        self.buckets.get(key).unwrap_or(&self.empty).clone()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over the distinct keys (arbitrary order).
    ///
    /// For a single-position index this enumerates the distinct values of
    /// that column — the candidate set the first-order model checker uses to
    /// restrict quantifier ranges.
    pub fn keys(&self) -> impl Iterator<Item = &[Value]> {
        self.buckets.iter().map(|(key, _)| key.as_slice())
    }
}

/// Summary statistics of one relation.
///
/// These feed the cost model of the `cqa-exec` physical planner: the number
/// of facts bounds the output of a full scan, and the distinct counts per
/// position estimate the selectivity of an index probe on that position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationStatistics {
    fact_count: usize,
    block_count: usize,
    distinct: Vec<usize>,
}

impl RelationStatistics {
    /// Number of facts of the relation.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Number of blocks (distinct keys) of the relation.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Number of distinct values at one attribute position (`None` when the
    /// position is out of range for the relation's arity).
    pub fn distinct_count(&self, position: usize) -> Option<usize> {
        self.distinct.get(position).copied()
    }

    /// Distinct counts for every position, in position order.
    pub fn distinct_counts(&self) -> &[usize] {
        &self.distinct
    }
}

/// Per position, how often each value occurs — what keeps the distinct
/// counts exact under removals — and the statistics they summarize.
#[derive(Clone)]
struct Counts {
    occurrences: Vec<ShardedMap<Value, u32>>,
    summary: Arc<RelationStatistics>,
}

impl Counts {
    fn add(&mut self, fact: &Fact) {
        for (counts, value) in self.occurrences.iter_mut().zip(fact.values()) {
            match counts.get_mut(value) {
                Some(count) => *count += 1,
                None => {
                    counts.insert(value.clone(), 1);
                }
            }
        }
    }

    fn subtract(&mut self, fact: &Fact) {
        for (counts, value) in self.occurrences.iter_mut().zip(fact.values()) {
            let count = counts
                .get_mut(value)
                .expect("a removed fact's values were counted");
            *count -= 1;
            if *count == 0 {
                counts.remove(value);
            }
        }
    }

    fn summarize(&mut self, fact_count: usize, block_count: usize) {
        self.summary = Arc::new(RelationStatistics {
            fact_count,
            block_count,
            distinct: self.occurrences.iter().map(ShardedMap::len).collect(),
        });
    }
}

/// Everything derived from a segment's facts, each part built on first
/// use and patched by every later write. Position and code index caches
/// only ever grow and hold immutable entries between writes, so a panic
/// elsewhere cannot leave them inconsistent — every lock recovers from
/// poisoning.
#[derive(Default)]
struct Derived {
    counts: OnceLock<Counts>,
    positions: Mutex<FxHashMap<PositionSet, Arc<PositionIndex>>>,
    columns: OnceLock<Arc<RelationColumns>>,
    codes: Mutex<FxHashMap<Vec<usize>, Arc<CodeIndex>>>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        let positions = self
            .positions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let codes = self.codes.lock().unwrap_or_else(PoisonError::into_inner);
        Derived {
            counts: self.counts.clone(),
            positions: Mutex::new(positions.clone()),
            columns: self.columns.clone(),
            codes: Mutex::new(codes.clone()),
        }
    }
}

/// Where a fact goes in a segment: nowhere (it is stored already), into an
/// existing block, or into a new one.
pub(crate) enum Slot {
    Stored,
    Block(usize),
    NewBlock,
}

/// The facts of one relation: its blocks, key map and facts by local id,
/// and — built lazily, then patched by writes — its statistics and
/// indexes. See the module documentation.
#[derive(Clone)]
pub struct RelationSegment {
    relation: RelationId,
    arity: usize,
    key_len: usize,
    blocks: ChunkedVec<Block>,
    /// Maps a key to the index of its block in `blocks`.
    keys: ShardedMap<Vec<Value>, u32>,
    /// The facts by local id.
    facts: ChunkedVec<Fact>,
    /// Every local id, ascending: `0..facts.len()`.
    ids: Vec<u32>,
    derived: Derived,
}

impl RelationSegment {
    pub(crate) fn new(relation: RelationId, arity: usize, key_len: usize) -> Self {
        RelationSegment {
            relation,
            arity,
            key_len,
            blocks: ChunkedVec::new(),
            keys: ShardedMap::new(),
            facts: ChunkedVec::new(),
            ids: Vec::new(),
            derived: Derived::default(),
        }
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, in segment order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// The block with the given key, if any.
    pub fn block_with_key(&self, key: &[Value]) -> Option<&Block> {
        Some(self.blocks.get(*self.keys.get(key)? as usize))
    }

    /// True iff the fact is stored here.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.block_with_key(&fact.values()[..self.key_len])
            .is_some_and(|block| block.contains(fact))
    }

    /// The facts by local id.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> {
        self.facts.iter()
    }

    /// The fact with the given local id.
    pub fn fact(&self, id: u32) -> &Fact {
        self.facts.get(id as usize)
    }

    /// Every local fact id, ascending (`0..fact_count()`).
    pub fn fact_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Where `fact` (of this relation, with the right arity) would go.
    pub(crate) fn slot(&self, fact: &Fact) -> Slot {
        match self.keys.get(&fact.values()[..self.key_len]) {
            None => Slot::NewBlock,
            Some(&block) if self.blocks.get(block as usize).contains(fact) => Slot::Stored,
            Some(&block) => Slot::Block(block as usize),
        }
    }

    /// Inserts a fact that is not stored yet at its [`Slot`] (found on
    /// this segment or on the one it was copied from); it takes the next
    /// local id.
    pub(crate) fn insert(&mut self, fact: Fact, slot: Slot, codebook: &Codebook) {
        let id = self.facts.len() as u32;
        let block = match slot {
            Slot::Block(block) => block,
            Slot::NewBlock => {
                let key = fact.values()[..self.key_len].to_vec();
                self.keys.insert(key.clone(), self.blocks.len() as u32);
                self.blocks.push(Block::new(self.relation, key));
                self.blocks.len() - 1
            }
            Slot::Stored => unreachable!("callers insert only absent facts"),
        };
        self.blocks.get_mut(block).push(fact.clone(), id);
        self.facts.push(fact.clone());
        self.ids.push(id);
        self.derived.insert(&fact, id, codebook);
        self.summarize();
    }

    /// Removes one fact; an emptied block disappears. The relation's last
    /// fact takes over the removed fact's id. Returns whether the fact was
    /// present.
    pub(crate) fn remove_fact(&mut self, fact: &Fact) -> bool {
        let Some(&block) = self.keys.get(&fact.values()[..self.key_len]) else {
            return false;
        };
        let block = block as usize;
        if !self.blocks.get(block).contains(fact) {
            return false;
        }
        let id = self
            .blocks
            .get_mut(block)
            .remove(fact)
            .expect("presence checked above");
        if self.blocks.get(block).is_empty() {
            self.detach_block(block);
        }
        let last = self.facts.len() as u32 - 1;
        self.facts.swap_remove(id as usize);
        self.ids.pop();
        let moved = (id != last).then(|| {
            let moved = self.facts.get(id as usize).clone();
            let home = self.keys.get(&moved.values()[..self.key_len]);
            let home = *home.expect("every stored fact's block is keyed") as usize;
            self.blocks.get_mut(home).renumber(last, id);
            moved
        });
        self.derived
            .remove(fact, id, moved.as_ref().map(|m| (m, last)));
        self.summarize();
        true
    }

    /// Removes the block with `key`, returning how many facts it held.
    pub(crate) fn remove_block(&mut self, key: &[Value]) -> usize {
        let Some(block) = self.block_with_key(key) else {
            return 0;
        };
        let doomed = block.facts().to_vec();
        for fact in &doomed {
            self.remove_fact(fact);
        }
        doomed.len()
    }

    /// Detaches the block at `index` by `swap_remove`: the segment's last
    /// block takes over the slot.
    fn detach_block(&mut self, index: usize) {
        let removed = self.blocks.swap_remove(index);
        self.keys.remove(removed.key());
        if index < self.blocks.len() {
            let moved = self.blocks.get(index).key().to_vec();
            *self.keys.get_mut(&moved).expect("every block is keyed") = index as u32;
        }
    }

    /// Refreshes the statistics summary, if statistics were built.
    fn summarize(&mut self) {
        let (facts, blocks) = (self.facts.len(), self.blocks.len());
        if let Some(counts) = self.derived.counts.get_mut() {
            counts.summarize(facts, blocks);
        }
    }

    /// Fact and block counts and distinct values per position, computed
    /// on first use and maintained by writes from then on.
    pub fn statistics(&self) -> &Arc<RelationStatistics> {
        &self
            .derived
            .counts
            .get_or_init(|| {
                cqa_obs::count!("data.statistics.build");
                let mut occurrences: Vec<FxHashMap<Value, u32>> =
                    vec![FxHashMap::default(); self.arity];
                for fact in self.facts.iter() {
                    for (counts, value) in occurrences.iter_mut().zip(fact.values()) {
                        *counts.entry(value.clone()).or_insert(0) += 1;
                    }
                }
                let mut counts = Counts {
                    occurrences: occurrences.into_iter().map(ShardedMap::from_map).collect(),
                    summary: Arc::default(),
                };
                counts.summarize(self.facts.len(), self.blocks.len());
                counts
            })
            .summary
    }

    /// The hash index on the given position subset, built on first use and
    /// maintained by writes from then on.
    ///
    /// An empty position set yields a single bucket (the empty key) holding
    /// every fact; callers with no bound positions should prefer
    /// [`RelationSegment::fact_ids`].
    pub fn position_index(&self, positions: PositionSet) -> Arc<PositionIndex> {
        if let Some(existing) = self
            .derived
            .positions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&positions)
        {
            cqa_obs::count!("data.position_index.hit");
            return existing.clone();
        }
        cqa_obs::count!("data.position_index.miss");
        // Build outside the lock: concurrent builders may race, in which
        // case one result wins and the duplicates are dropped — harmless.
        let started = std::time::Instant::now();
        let built = Arc::new(PositionIndex::build(self.facts.iter(), positions));
        cqa_obs::observe_duration!("data.position_index.build_nanos", started.elapsed());
        self.derived
            .positions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(positions)
            .or_insert(built)
            .clone()
    }

    /// The code columns, encoded with the lineage's `codebook` on first use
    /// and maintained by writes from then on.
    pub(crate) fn columns(&self, codebook: &Codebook) -> &Arc<RelationColumns> {
        // The pre-check races benignly: two first callers may both count a
        // miss, but `get_or_init` still builds exactly once.
        if self.derived.columns.get().is_some() {
            cqa_obs::count!("data.columnar.hit");
        } else {
            cqa_obs::count!("data.columnar.miss");
        }
        self.derived.columns.get_or_init(|| {
            let started = std::time::Instant::now();
            let rows = codebook.encode(self.facts.iter());
            let built = RelationColumns::from_rows(rows, self.arity);
            cqa_obs::observe_duration!("data.columnar.build_nanos", started.elapsed());
            Arc::new(built)
        })
    }

    /// The packed-code hash index over one or two `positions` (ascending),
    /// built on first use and maintained by writes from then on.
    pub(crate) fn code_index(&self, positions: &[usize], codebook: &Codebook) -> Arc<CodeIndex> {
        if let Some(existing) = self
            .derived
            .codes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(positions)
        {
            cqa_obs::count!("data.code_index.hit");
            return existing.clone();
        }
        cqa_obs::count!("data.code_index.miss");
        // Same build-outside-the-lock pattern as `position_index`.
        let columns = self.columns(codebook);
        let started = std::time::Instant::now();
        let built = Arc::new(CodeIndex::build(columns, positions));
        cqa_obs::observe_duration!("data.code_index.build_nanos", started.elapsed());
        self.derived
            .codes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(positions.to_vec())
            .or_insert(built)
            .clone()
    }
}

impl Derived {
    /// Patches every built structure for `fact`, inserted with local id
    /// `id` (larger than every id present).
    fn insert(&mut self, fact: &Fact, id: u32, codebook: &Codebook) {
        if let Some(counts) = self.counts.get_mut() {
            counts.add(fact);
        }
        let positions = self
            .positions
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for index in positions.values_mut() {
            let index = Arc::make_mut(index);
            let key = index.key(fact);
            index.buckets.push_id(key, id);
        }
        if let Some(columns) = self.columns.get_mut() {
            let row = codebook.encode([fact]).pop().expect("one fact, one row");
            Arc::make_mut(columns).push(&row);
            let codes = self.codes.get_mut().unwrap_or_else(PoisonError::into_inner);
            for index in codes.values_mut() {
                let index = Arc::make_mut(index);
                let key = index.key(&row);
                index.buckets_mut().push_id(key, id);
            }
        }
    }

    /// Patches every built structure for the removal of `fact` (local id
    /// `id`), after which `moved` — the relation's fact with local id
    /// `last`, if any other — took over `id`.
    fn remove(&mut self, fact: &Fact, id: u32, moved: Option<(&Fact, u32)>) {
        if let Some(counts) = self.counts.get_mut() {
            counts.subtract(fact);
        }
        let positions = self
            .positions
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for index in positions.values_mut() {
            let index = Arc::make_mut(index);
            index.buckets.remove_id(&index.key(fact)[..], id);
            if let Some((moved, last)) = moved {
                index.buckets.renumber(&index.key(moved)[..], last, id);
            }
        }
        if let Some(columns) = self.columns.get_mut() {
            let removed = columns.row(id as usize);
            let moved = moved.map(|(_, last)| (columns.row(last as usize), last));
            Arc::make_mut(columns).swap_remove(id as usize);
            let codes = self.codes.get_mut().unwrap_or_else(PoisonError::into_inner);
            for index in codes.values_mut() {
                let index = Arc::make_mut(index);
                let key = index.key(&removed);
                index.buckets_mut().remove_id(&key, id);
                if let Some((row, last)) = &moved {
                    let key = index.key(row);
                    index.buckets_mut().renumber(&key, *last, id);
                }
            }
        }
    }
}

impl fmt::Debug for RelationSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelationSegment({}: {} facts in {} blocks)",
            self.relation,
            self.facts.len(),
            self.blocks.len()
        )
    }
}
