//! Shareable point-in-time snapshots of an uncertain database.
//!
//! The parallel evaluation layer (`cqa-par`) executes many independent
//! subproblems against *one* immutable state of the data: candidate-answer
//! checks, root-scan shards, and whole query batches must all see the same
//! facts, the same blocks, and the same [`DatabaseIndex`] — and they run on
//! worker threads that outlive any `&UncertainDatabase` borrow a caller
//! could offer. A [`Snapshot`] packages an owned copy of the database
//! together with its index behind `Arc`s: taking or cloning one costs a
//! few reference counts, the contents can never change, and every clone is
//! `Send + Sync`.

use crate::{DatabaseIndex, Schema, UncertainDatabase};
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply cloneable point-in-time view of an
/// [`UncertainDatabase`] plus its [`DatabaseIndex`].
///
/// Obtained from [`UncertainDatabase::snapshot`]. The snapshot *owns* its
/// copy of the database, so later mutations of the original are invisible
/// to it — the property that makes "answer this batch of queries against
/// one consistent state" meaningful while the writer moves on.
///
/// ```
/// use cqa_data::{Schema, UncertainDatabase};
///
/// let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
/// let mut db = UncertainDatabase::new(schema);
/// db.insert_values("R", ["a", "1"]).unwrap();
/// let snapshot = db.snapshot();
/// db.insert_values("R", ["b", "2"]).unwrap();
/// assert_eq!(snapshot.database().fact_count(), 1); // the snapshot is frozen
/// assert_eq!(db.fact_count(), 2);
/// ```
#[derive(Clone)]
pub struct Snapshot {
    db: Arc<UncertainDatabase>,
    index: Arc<DatabaseIndex>,
    epoch: u64,
}

impl Snapshot {
    /// Freezes `db` into a snapshot, sharing its storage.
    pub fn new(db: &UncertainDatabase) -> Snapshot {
        Snapshot {
            // The clone shares the index, so `self.db.index()` and
            // `self.index` are the same allocation.
            db: Arc::new(db.clone()),
            index: db.index(),
            epoch: db.epoch(),
        }
    }

    /// The mutation epoch of the source database at freeze time
    /// ([`UncertainDatabase::epoch`]). Comparing this against the live
    /// database's current epoch detects staleness with one integer compare —
    /// the check `cqa-par`'s batch engine and the serve loop run per batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True iff `db` has been effectively mutated since this snapshot was
    /// frozen from it. Only meaningful for the same database lineage.
    pub fn is_stale_for(&self, db: &UncertainDatabase) -> bool {
        self.epoch != db.epoch()
    }

    /// The frozen database contents.
    pub fn database(&self) -> &UncertainDatabase {
        &self.db
    }

    /// The schema of the frozen database.
    pub fn schema(&self) -> &Arc<Schema> {
        self.db.schema()
    }

    /// The secondary-index snapshot of the frozen contents.
    pub fn index(&self) -> &Arc<DatabaseIndex> {
        &self.index
    }

    /// Number of facts in the snapshot.
    pub fn fact_count(&self) -> usize {
        self.index.fact_count()
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Snapshot({} facts)", self.fact_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn snapshots_freeze_contents_and_share_the_index() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        let snapshot = db.snapshot();
        assert!(Arc::ptr_eq(snapshot.index(), &snapshot.database().index()));
        db.insert_values("R", ["a", "2"]).unwrap();
        assert_eq!(snapshot.fact_count(), 1);
        assert_eq!(db.fact_count(), 2);
        // Clones are cheap handles onto the same frozen state.
        let other = snapshot.clone();
        assert!(Arc::ptr_eq(other.index(), snapshot.index()));
        assert_eq!(
            other.database().active_domain().into_iter().next(),
            Some(Value::str("1"))
        );
        assert!(format!("{snapshot:?}").contains("1 facts"));
    }

    #[test]
    fn snapshots_move_across_threads() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        let snapshot = db.snapshot();
        let handle = {
            let snapshot = snapshot.clone();
            std::thread::spawn(move || snapshot.fact_count())
        };
        assert_eq!(handle.join().unwrap(), 1);
    }
}
