//! Blocks: maximal sets of key-equal facts.
//!
//! Section 3: *"A block of `db` is a maximal set of key-equal facts of `db`.
//! [...] An uncertain database `db` is consistent if it does not contain two
//! distinct facts that are key-equal (i.e., if every block of `db` is a
//! singleton)."*
//!
//! Probabilistically (Section 7), the facts of one block are *disjoint*
//! (exclusive) events, while facts of distinct blocks are independent.

use crate::{Fact, RelationId, Value};

/// A maximal set of key-equal facts.
#[derive(Clone, Debug)]
pub struct Block {
    relation: RelationId,
    key: Vec<Value>,
    facts: Vec<Fact>,
    /// The relation-local fact id of each fact, in step with `facts`.
    ids: Vec<u32>,
}

impl Block {
    pub(crate) fn new(relation: RelationId, key: Vec<Value>) -> Self {
        Block {
            relation,
            key,
            facts: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Adds a fact with local id `id`, unless present.
    pub(crate) fn push(&mut self, fact: Fact, id: u32) -> bool {
        if self.facts.contains(&fact) {
            false
        } else {
            self.facts.push(fact);
            self.ids.push(id);
            true
        }
    }

    /// Removes a fact, returning its local id if it was present.
    pub(crate) fn remove(&mut self, fact: &Fact) -> Option<u32> {
        let pos = self.facts.iter().position(|f| f == fact)?;
        self.facts.remove(pos);
        Some(self.ids.remove(pos))
    }

    /// Renumbers the fact with local id `from` to `to`.
    pub(crate) fn renumber(&mut self, from: u32, to: u32) {
        let slot = self
            .ids
            .iter_mut()
            .find(|id| **id == from)
            .expect("the renumbered fact is in this block");
        *slot = to;
    }

    /// The relation all facts of this block belong to.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The shared primary-key value of the block.
    pub fn key(&self) -> &[Value] {
        &self.key
    }

    /// The facts of the block (at least one; more than one iff the block
    /// witnesses a primary-key violation).
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Number of facts in the block.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True iff the block is empty (only transiently, during removal).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// True iff the block is a singleton, i.e. consistent.
    pub fn is_singleton(&self) -> bool {
        self.facts.len() == 1
    }

    /// True iff the block contains the given fact.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }
}

/// Blocks are equal when they hold the same facts under the same key;
/// the facts' ids in their database do not matter.
impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.relation == other.relation && self.key == other.key && self.facts == other.facts
    }
}

impl Eq for Block {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn blocks_deduplicate_facts() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap();
        let r = schema.relation_id("R").unwrap();
        let mut block = Block::new(r, vec![Value::str("a")]);
        let f = Fact::new(r, vec![Value::str("a"), Value::str("b")]);
        assert!(block.push(f.clone(), 0));
        assert!(!block.push(f.clone(), 1));
        assert_eq!(block.len(), 1);
        assert!(block.is_singleton());
        assert!(block.contains(&f));
    }

    #[test]
    fn removal_empties_the_block() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap();
        let r = schema.relation_id("R").unwrap();
        let mut block = Block::new(r, vec![Value::str("a")]);
        let f = Fact::new(r, vec![Value::str("a"), Value::str("b")]);
        block.push(f.clone(), 7);
        assert_eq!(block.remove(&f), Some(7));
        assert_eq!(block.remove(&f), None);
        assert!(block.is_empty());
    }
}
