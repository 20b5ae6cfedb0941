//! Content-addressed result cache: bounded LRU with per-entry checksums
//! and key-to-request binding.
//!
//! Simulation is bit-deterministic, so a response body is fully determined
//! by its request's canonical encoding
//! ([`crate::request::SimRequest::canonical`]). Entries are indexed by the
//! 64-bit [`crate::request::SimRequest::cache_key`] hash of that encoding,
//! but the hash is *not* trusted as identity: FNV is not
//! collision-resistant, and the cache is shared across tenants, so a
//! tenant could craft a request whose key collides with someone else's.
//! Each entry therefore stores the canonical encoding itself and a hit
//! compares it byte-for-byte; a collision reports a miss and the service
//! re-simulates. Each entry also stores an FNV checksum of the body taken
//! at insert; a hit re-checksums before serving, so a corrupted body
//! (memory corruption, or the service-chaos fault injector) is evicted
//! and re-simulated. Either defense can cost latency, never correctness.

use crate::request::body_checksum;
use std::collections::HashMap;

/// What a lookup found.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Verified hit: the stored body.
    Hit(String),
    /// No entry.
    Miss,
    /// Entry present but its checksum no longer matched; it was evicted.
    Corrupt,
}

struct Entry {
    /// Canonical request encoding this entry answers — verified on hit.
    canon: String,
    body: String,
    checksum: u64,
    /// Monotonic touch counter for LRU ordering.
    last_used: u64,
}

/// A bounded LRU keyed by content address.
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    corruptions: u64,
    collisions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` bodies (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            corruptions: 0,
            collisions: 0,
        }
    }

    /// Look up a key for the request canonically encoded as `canon`,
    /// verifying both the key→request binding and the stored body
    /// checksum on a hit. A key collision (entry for a *different*
    /// request) is a miss: the resident entry stays, the caller
    /// re-simulates.
    pub fn lookup(&mut self, key: u64, canon: &str) -> Lookup {
        self.clock += 1;
        let Some(e) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return Lookup::Miss;
        };
        if e.canon != canon {
            self.collisions += 1;
            self.misses += 1;
            return Lookup::Miss;
        }
        if body_checksum(&e.body) != e.checksum {
            self.entries.remove(&key);
            self.corruptions += 1;
            self.misses += 1;
            return Lookup::Corrupt;
        }
        e.last_used = self.clock;
        self.hits += 1;
        Lookup::Hit(e.body.clone())
    }

    /// Insert a body for the request canonically encoded as `canon`,
    /// evicting the least-recently-used entry when full. On a key
    /// collision the newer result replaces the resident entry.
    pub fn insert(&mut self, key: u64, canon: String, body: String) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&lru);
            }
        }
        let checksum = body_checksum(&body);
        self.entries.insert(
            key,
            Entry {
                canon,
                body,
                checksum,
                last_used: self.clock,
            },
        );
    }

    /// Flip one byte of a stored body *without* updating its checksum —
    /// the service-chaos cache-corruption fault. Returns true if an entry
    /// existed to corrupt.
    pub fn corrupt_for_chaos(&mut self, key: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) if !e.body.is_empty() => {
                // Flip the low bit of a digit-heavy position; stay ASCII so
                // the String stays valid UTF-8.
                let mid = e.body.len() / 2;
                let mut bytes = std::mem::take(&mut e.body).into_bytes();
                bytes[mid] = match bytes[mid] {
                    b'0' => b'1',
                    c => c ^ 0x01,
                };
                e.body = String::from_utf8(bytes).unwrap_or_default();
                true
            }
            _ => false,
        }
    }

    /// `(hits, misses, corruptions_detected, key_collisions, entries)`
    /// counters.
    pub fn stats(&self) -> (u64, u64, u64, u64, usize) {
        (
            self.hits,
            self.misses,
            self.corruptions,
            self.collisions,
            self.entries.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_insert_hit() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.lookup(1, "q1"), Lookup::Miss);
        c.insert(1, "q1".into(), "body".into());
        assert_eq!(c.lookup(1, "q1"), Lookup::Hit("body".into()));
        let (h, m, k, x, n) = c.stats();
        assert_eq!((h, m, k, x, n), (1, 1, 0, 0, 1));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let mut c = ResultCache::new(2);
        c.insert(1, "q1".into(), "a".into());
        c.insert(2, "q2".into(), "b".into());
        assert_eq!(c.lookup(1, "q1"), Lookup::Hit("a".into())); // touch 1
        c.insert(3, "q3".into(), "c".into()); // evicts 2
        assert_eq!(c.lookup(2, "q2"), Lookup::Miss);
        assert_eq!(c.lookup(1, "q1"), Lookup::Hit("a".into()));
        assert_eq!(c.lookup(3, "q3"), Lookup::Hit("c".into()));
    }

    #[test]
    fn corruption_is_detected_and_evicted() {
        let mut c = ResultCache::new(2);
        c.insert(1, "q1".into(), "{\"cycles\":12345}".into());
        assert!(c.corrupt_for_chaos(1));
        assert_eq!(
            c.lookup(1, "q1"),
            Lookup::Corrupt,
            "checksum must catch the flip"
        );
        assert_eq!(c.lookup(1, "q1"), Lookup::Miss, "corrupt entry was evicted");
        let (_, _, corruptions, _, _) = c.stats();
        assert_eq!(corruptions, 1);
    }

    #[test]
    fn key_collision_is_a_miss_not_a_wrong_body() {
        // Two *different* requests whose 64-bit keys collide (as a hostile
        // tenant could arrange): the resident body must never serve for
        // the other request.
        let mut c = ResultCache::new(4);
        c.insert(7, "victim request".into(), "victim body".into());
        assert_eq!(c.lookup(7, "attacker request"), Lookup::Miss);
        // The victim's entry is untouched and still serves correctly.
        assert_eq!(
            c.lookup(7, "victim request"),
            Lookup::Hit("victim body".into())
        );
        let (_, _, _, collisions, _) = c.stats();
        assert_eq!(collisions, 1);
        // Inserting under the colliding key replaces the resident entry;
        // each canon only ever sees its own body.
        c.insert(7, "attacker request".into(), "attacker body".into());
        assert_eq!(c.lookup(7, "victim request"), Lookup::Miss);
        assert_eq!(
            c.lookup(7, "attacker request"),
            Lookup::Hit("attacker body".into())
        );
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = ResultCache::new(0);
        c.insert(1, "q1".into(), "a".into());
        assert_eq!(c.lookup(1, "q1"), Lookup::Miss);
    }
}
