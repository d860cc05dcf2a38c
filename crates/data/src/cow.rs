//! Copy-on-write containers in small pieces.
//!
//! A relation segment is shared by every snapshot taken since its last
//! write. Its large containers are split into `Arc`-shared pieces so that
//! a write copies the few pieces it changes, not the container:
//!
//! * [`ChunkedVec`] — a vector in fixed-size chunks;
//! * [`ShardedMap`] — a hash map in hash-selected shards (one shard while
//!   small, [`SHARDS`] once it grows past [`SPLIT_AT`] entries).
//!
//! Cloning either copies only the piece handles.

use crate::FxHashMap;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Elements per chunk of a [`ChunkedVec`].
const CHUNK: usize = 512;
/// Shards of a grown [`ShardedMap`].
const SHARDS: usize = 64;
/// Entries past which a single-shard [`ShardedMap`] splits.
const SPLIT_AT: usize = 2048;

/// A vector stored as `Arc`-shared chunks of [`CHUNK`] elements.
#[derive(Clone)]
pub(crate) struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T: Clone> ChunkedVec<T> {
    pub(crate) fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// Mutable access, copying the element's chunk if it is shared.
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK]
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::new()));
        }
        let last = self.chunks.last_mut().expect("a chunk has room");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    /// Removes the element at `index`; the last element takes its place.
    pub(crate) fn swap_remove(&mut self, index: usize) -> T {
        let last = self.chunks.last_mut().expect("index is in bounds");
        let mut removed = Arc::make_mut(last).pop().expect("chunks are never empty");
        if last.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        if index < self.len {
            std::mem::swap(self.get_mut(index), &mut removed);
        }
        removed
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

/// A hash map stored as `Arc`-shared shards selected by key hash.
#[derive(Clone)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Arc<FxHashMap<K, V>>>,
    len: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    pub(crate) fn new() -> Self {
        ShardedMap {
            shards: vec![Arc::default()],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The shard of a key. Uses hash bits the shard's own table does not
    /// lean on (its bucket index takes the low bits, its tags the top).
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut hasher = rustc_hash::FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() >> 32) as usize % self.shards.len()
    }

    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard(key)].get(key)
    }

    /// Mutable access to a present key's value, copying its shard if
    /// shared (absent keys copy nothing).
    pub(crate) fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = self.shard(key);
        if !self.shards[shard].contains_key(key) {
            return None;
        }
        Arc::make_mut(&mut self.shards[shard]).get_mut(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let shard = self.shard(&key);
        let old = Arc::make_mut(&mut self.shards[shard]).insert(key, value);
        if old.is_none() {
            self.len += 1;
            if self.shards.len() == 1 && self.len > SPLIT_AT {
                self.split();
            }
        }
        old
    }

    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = self.shard(key);
        if !self.shards[shard].contains_key(key) {
            return None;
        }
        self.len -= 1;
        Arc::make_mut(&mut self.shards[shard]).remove(key)
    }

    /// The entries of `map`, sharded for its size.
    pub(crate) fn from_map(map: FxHashMap<K, V>) -> Self {
        let mut sharded = ShardedMap::new();
        if map.len() > SPLIT_AT {
            sharded.shards = vec![Arc::default(); SHARDS];
        }
        for (key, value) in map {
            sharded.insert(key, value);
        }
        sharded
    }

    fn split(&mut self) {
        let entries: Vec<(K, V)> = self
            .shards
            .drain(..)
            .flat_map(|shard| Arc::unwrap_or_clone(shard).into_iter())
            .collect();
        self.shards = vec![Arc::default(); SHARDS];
        for (key, value) in entries {
            let shard = self.shard(&key);
            Arc::make_mut(&mut self.shards[shard]).insert(key, value);
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }
}

/// Id lists keyed by `K`: the buckets of a hash index, each ascending.
pub(crate) type Buckets<K> = ShardedMap<K, Arc<[u32]>>;

impl<K: Hash + Eq + Clone> Buckets<K> {
    /// Groups `(key, id)` pairs given in ascending id order.
    pub(crate) fn group(pairs: impl IntoIterator<Item = (K, u32)>) -> Self {
        let mut grouped: FxHashMap<K, Vec<u32>> = FxHashMap::default();
        for (key, id) in pairs {
            grouped.entry(key).or_default().push(id);
        }
        ShardedMap::from_map(
            grouped
                .into_iter()
                .map(|(k, ids)| (k, ids.into()))
                .collect(),
        )
    }

    /// Adds `id`, larger than every id present, under `key`.
    pub(crate) fn push_id(&mut self, key: K, id: u32) {
        match self.get_mut(&key) {
            Some(ids) => *ids = ids.iter().copied().chain([id]).collect(),
            None => {
                self.insert(key, Arc::from([id]));
            }
        }
    }

    /// Removes `id` from under `key`, dropping the key when it empties.
    pub(crate) fn remove_id<Q>(&mut self, key: &Q, id: u32)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(ids) = self.get_mut(key) else {
            return;
        };
        if ids.len() > 1 {
            *ids = ids.iter().copied().filter(|&i| i != id).collect();
        } else {
            self.remove(key);
        }
    }

    /// Renumbers `from` to `to` under `key`, keeping the list ascending.
    pub(crate) fn renumber<Q>(&mut self, key: &Q, from: u32, to: u32)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(ids) = self.get_mut(key) {
            let mut renumbered: Vec<u32> = ids
                .iter()
                .map(|&i| if i == from { to } else { i })
                .collect();
            renumbered.sort_unstable();
            *ids = renumbered.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_vec_copies_only_the_chunk_it_writes() {
        let mut a = ChunkedVec::new();
        for i in 0..(3 * CHUNK) {
            a.push(i);
        }
        let mut b = a.clone();
        *b.get_mut(5) = 99;
        assert_eq!(*a.get(5), 5);
        assert_eq!(*b.get(5), 99);
        assert!(Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert!(!Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert_eq!(b.swap_remove(1), 1);
        assert_eq!(*b.get(1), 3 * CHUNK - 1);
        assert_eq!(b.len(), 3 * CHUNK - 1);
        assert_eq!(b.chunks.len(), 3);
        let last = b.len() - 1;
        b.swap_remove(last);
        assert_eq!(b.iter().count(), 3 * CHUNK - 2);
        assert_eq!(a.iter().copied().sum::<usize>(), (0..3 * CHUNK).sum());
    }

    #[test]
    fn sharded_map_splits_and_shares_untouched_shards() {
        let mut a: ShardedMap<u64, u64> = ShardedMap::new();
        for i in 0..(SPLIT_AT as u64 * 2) {
            a.insert(i, i);
        }
        assert_eq!(a.shards.len(), SHARDS);
        assert_eq!(a.len(), SPLIT_AT * 2);
        let mut b = a.clone();
        *b.get_mut(&7).unwrap() = 70;
        assert_eq!(b.remove(&8), Some(8));
        assert_eq!(b.remove(&8), None);
        assert_eq!(a.get(&7), Some(&7));
        assert_eq!(b.get(&7), Some(&70));
        let shared = a
            .shards
            .iter()
            .zip(&b.shards)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert!(shared >= SHARDS - 2);
        assert_eq!(b.iter().count(), SPLIT_AT * 2 - 1);
    }

    #[test]
    fn buckets_stay_ascending() {
        let mut buckets = Buckets::group([("a", 0), ("b", 1), ("a", 2)]);
        buckets.push_id("a", 3);
        assert_eq!(&buckets.get(&"a").unwrap()[..], &[0, 2, 3]);
        buckets.remove_id(&"a", 0);
        buckets.renumber(&"a", 3, 1);
        assert_eq!(&buckets.get(&"a").unwrap()[..], &[1, 2]);
        buckets.remove_id(&"b", 1);
        assert!(buckets.get(&"b").is_none());
    }
}
