//! A bounded least-recently-used map: the eviction policy behind every
//! cache tier.
//!
//! The PR 2/4 result caches grew without bound — fine for a single
//! search, fatal for a long-lived serving process under open-loop
//! traffic where every request may carry fresh `(program, schedule)`
//! keys. [`LruMap`] is the shared building block that bounds them: a
//! `HashMap` index over an intrusive doubly-linked recency list held in
//! one slab `Vec`, so `get`/`insert` are O(1) and eviction reuses the
//! tail slot instead of reallocating.
//!
//! Eviction and the determinism contract: cached **values** are pure per
//! key (the wrapped evaluator returns the same score for the same key,
//! always), so evicting and later recomputing an entry yields the exact
//! same value — scores stay bit-identical under any capacity. What
//! eviction *does* perturb is hit/miss accounting: a key that fell out
//! is a miss where an unbounded cache had a hit. Callers that assert
//! exact hit/miss counts size the capacity above their working set (the
//! defaults do).

use std::collections::HashMap;
use std::hash::Hash;

/// Slot index standing in for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A hash map bounded to `capacity` entries, evicting the
/// least-recently-used entry on overflow.
///
/// `get` counts as a use (it refreshes the entry's recency); `insert` of
/// an existing key updates the value in place and refreshes it too.
///
/// # Examples
///
/// ```
/// use dlcm_eval::LruMap;
///
/// let mut lru: LruMap<u32, &str> = LruMap::with_capacity(2);
/// lru.insert(1, "one");
/// lru.insert(2, "two");
/// lru.get(&1); // 1 is now the most recent
/// let evicted = lru.insert(3, "three"); // over capacity: 2 falls out
/// assert_eq!(evicted, Some((2, "two")));
/// assert_eq!(lru.get(&1), Some(&"one"));
/// assert_eq!(lru.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LruMap<K, V> {
    capacity: usize,
    index: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used node, or [`NIL`] when empty.
    head: usize,
    /// Least recently used node (the eviction candidate), or [`NIL`].
    tail: usize,
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// An empty map that will hold at most `capacity` entries
    /// (`capacity` is clamped to at least 1 — a cache that can hold
    /// nothing would silently turn every probe into a miss).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (always `<=` [`LruMap::capacity`]).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.nodes[i].value)
    }

    /// Looks up `key` without touching recency (a *peek*): for
    /// observability paths that must not perturb the eviction order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Inserts (or updates) `key`, returning the entry evicted to make
    /// room, if any. An update never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        if self.index.len() == self.capacity {
            // Reuse the least-recently-used slot for the new entry.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "capacity >= 1 and the map is full");
            self.unlink(lru);
            let old_key = std::mem::replace(&mut self.nodes[lru].key, key.clone());
            let old_value = std::mem::replace(&mut self.nodes[lru].value, value);
            self.index.remove(&old_key);
            self.index.insert(key, lru);
            self.push_front(lru);
            return Some((old_key, old_value));
        }
        let i = self.nodes.len();
        self.nodes.push(Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.index.insert(key, i);
        self.push_front(i);
        None
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_recency_including_get_touches() {
        let mut lru: LruMap<u32, u32> = LruMap::with_capacity(3);
        assert!(lru.is_empty());
        for k in 0..3 {
            assert_eq!(lru.insert(k, k * 10), None);
        }
        // Touch 0 so 1 becomes the eviction candidate.
        assert_eq!(lru.get(&0), Some(&0));
        assert_eq!(lru.insert(3, 30), Some((1, 10)));
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.peek(&0), Some(&0));
        assert_eq!(lru.peek(&2), Some(&20));
        assert_eq!(lru.peek(&3), Some(&30));
    }

    #[test]
    fn update_refreshes_without_evicting() {
        let mut lru: LruMap<u32, u32> = LruMap::with_capacity(2);
        lru.insert(1, 1);
        lru.insert(2, 2);
        assert_eq!(lru.insert(1, 11), None, "update of a live key");
        assert_eq!(lru.insert(3, 3), Some((2, 2)), "2 was least recent");
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn peek_does_not_perturb_recency() {
        let mut lru: LruMap<u32, u32> = LruMap::with_capacity(2);
        lru.insert(1, 1);
        lru.insert(2, 2);
        assert_eq!(lru.peek(&1), Some(&1));
        // 1 is still the LRU despite the peek.
        assert_eq!(lru.insert(3, 3), Some((1, 1)));
    }

    #[test]
    fn slots_are_reused_under_churn() {
        let mut lru: LruMap<u64, u64> = LruMap::with_capacity(8);
        for k in 0..10_000u64 {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 8);
        assert_eq!(lru.nodes.len(), 8, "churn must reuse slots, not grow");
        for k in 9_992..10_000 {
            assert_eq!(lru.get(&k), Some(&k));
        }
    }

    #[test]
    fn capacity_one_still_caches_the_last_key() {
        let mut lru: LruMap<u32, u32> = LruMap::with_capacity(0);
        assert_eq!(lru.capacity(), 1, "capacity clamps to 1");
        lru.insert(1, 1);
        assert_eq!(lru.insert(2, 2), Some((1, 1)));
        assert_eq!(lru.get(&2), Some(&2));
        assert_eq!(lru.get(&2), Some(&2), "repeated touches of the only key");
    }
}
