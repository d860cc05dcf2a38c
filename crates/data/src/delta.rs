//! Mutation deltas: the change log incremental consumers repair from.
//!
//! A writer that keeps derived state in step with an [`UncertainDatabase`]
//! — the materialized views of `cqa-stream`, maintained by the server's
//! writer — records every mutation that actually changed the fact set as a
//! [`Delta`] in a [`ChangeSet`] and hands the net effect to the consumer.
//! The database itself needs no log: a write copies only the segment of the
//! relation it touches (see [`DatabaseIndex`]).
//!
//! [`UncertainDatabase`]: crate::UncertainDatabase
//! [`DatabaseIndex`]: crate::DatabaseIndex

use crate::Fact;

/// One recorded mutation of an [`UncertainDatabase`].
///
/// [`UncertainDatabase`]: crate::UncertainDatabase
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// A fact that was not present was inserted.
    Inserted(Fact),
    /// A present fact was removed.
    Removed {
        /// The removed fact.
        fact: Fact,
        /// True iff the removal emptied (and so removed) the fact's block.
        emptied_block: bool,
    },
}

/// The net effect of the mutations recorded since some base state: which
/// facts were inserted and which were removed.
///
/// Recording *nets out* transient facts: removing a fact that was itself
/// inserted after the base state cancels the insertion instead of growing
/// the log. A base fact that is removed and later re-inserted stays in
/// **both** lists.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    inserted: Vec<Fact>,
    removed: Vec<Fact>,
}

impl ChangeSet {
    /// An empty changeset.
    pub fn new() -> Self {
        ChangeSet::default()
    }

    /// Records one mutation.
    pub fn record(&mut self, delta: Delta) {
        match delta {
            Delta::Inserted(fact) => self.inserted.push(fact),
            Delta::Removed { fact, .. } => {
                // A fact inserted after the base state and removed again
                // nets out entirely: the base state never held it.
                if let Some(pos) = self.inserted.iter().position(|f| *f == fact) {
                    self.inserted.swap_remove(pos);
                } else {
                    self.removed.push(fact);
                }
            }
        }
    }

    /// Facts inserted since the base state (absent from it).
    pub fn inserted(&self) -> &[Fact] {
        &self.inserted
    }

    /// Facts removed since the base state (present in it).
    pub fn removed(&self) -> &[Fact] {
        &self.removed
    }

    /// The delta volume: number of recorded insertions plus removals.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// True iff nothing was recorded (the base state is current).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    /// Forgets all recorded mutations.
    pub fn clear(&mut self) {
        self.inserted.clear();
        self.removed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelationId, Value};

    fn fact(a: &str, b: &str) -> Fact {
        Fact::new(
            RelationId::from_index(0),
            vec![Value::str(a), Value::str(b)],
        )
    }

    #[test]
    fn insert_then_remove_nets_out() {
        let mut cs = ChangeSet::new();
        cs.record(Delta::Inserted(fact("a", "b")));
        assert_eq!(cs.len(), 1);
        cs.record(Delta::Removed {
            fact: fact("a", "b"),
            emptied_block: false,
        });
        assert!(cs.is_empty());
        assert!(cs.inserted().is_empty() && cs.removed().is_empty());
    }

    #[test]
    fn remove_then_reinsert_keeps_both_sides() {
        let mut cs = ChangeSet::new();
        cs.record(Delta::Removed {
            fact: fact("a", "b"),
            emptied_block: true,
        });
        cs.record(Delta::Inserted(fact("a", "b")));
        assert_eq!(cs.removed().len(), 1);
        assert_eq!(cs.inserted().len(), 1);
        assert_eq!(cs.len(), 2);
        cs.clear();
        assert!(cs.is_empty());
    }
}
