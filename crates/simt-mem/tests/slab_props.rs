//! Property-style tests for the slab structures that back the hot path:
//! [`TagSlab`] (pending-memory state) and [`ProbeMap`] (line-keyed lock and
//! park tables). Each is driven through randomized insert/lookup/remove
//! churn against a `BTreeMap` reference model, and mid-flight states — with
//! non-trivial free lists and probe displacement — are round-tripped through
//! the snapshot format to prove the layout survives verbatim.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use simt_mem::{ProbeMap, TagSlab};
use simt_snap::{Snap, SnapReader, SnapWriter};
use std::collections::BTreeMap;

/// Deterministic splitmix64 generator for test-case construction.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Drive a `TagSlab` and a `BTreeMap` model through the same churn and
/// return both, so callers can keep asserting on the final state.
fn churned_slab(seed: u64, ops: usize) -> (TagSlab<u64>, BTreeMap<u64, u64>) {
    let mut rng = Rng::new(seed);
    let mut slab: TagSlab<u64> = TagSlab::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut live: Vec<u64> = Vec::new();
    let mut next_val = 0u64;
    for _ in 0..ops {
        match rng.range(0, 10) {
            // Insert-heavy so slots recycle and generations advance.
            0..=4 => {
                let v = next_val;
                next_val += 1;
                let tag = slab.insert(v);
                assert!(
                    model.insert(tag, v).is_none(),
                    "slab reissued live tag {tag:#x}"
                );
                live.push(tag);
            }
            5..=7 if !live.is_empty() => {
                let i = rng.range(0, live.len() as u64) as usize;
                let tag = live.swap_remove(i);
                let expect = model.remove(&tag);
                assert_eq!(slab.remove(tag), expect);
                // A removed tag must be dead: its generation was retired.
                assert_eq!(slab.get(tag), None);
                assert_eq!(slab.remove(tag), None);
            }
            _ if !live.is_empty() => {
                let i = rng.range(0, live.len() as u64) as usize;
                let tag = live[i];
                assert_eq!(slab.get(tag), model.get(&tag));
                if let Some(v) = slab.get_mut(tag) {
                    *v = v.wrapping_add(1);
                    *model.get_mut(&tag).unwrap() += 1;
                }
            }
            _ => {}
        }
        assert_eq!(slab.len(), model.len());
        assert_eq!(slab.is_empty(), model.is_empty());
    }
    (slab, model)
}

/// The slab agrees with a `BTreeMap` model on every lookup, length and
/// removal across randomized churn, and never reissues a live tag.
#[test]
fn tag_slab_matches_model() {
    for seed in 0..48 {
        let (slab, model) = churned_slab(seed, 400);
        let from_iter: BTreeMap<u64, u64> = slab.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(from_iter, model);
    }
}

/// Slab iteration is in slot order: the same op sequence always yields the
/// same sequence, and the order is a pure function of the structure (two
/// instances built identically iterate identically).
#[test]
fn tag_slab_iteration_deterministic() {
    for seed in 0..16 {
        let (a, _) = churned_slab(seed, 300);
        let (b, _) = churned_slab(seed, 300);
        let seq_a: Vec<(u64, u64)> = a.iter().map(|(t, &v)| (t, v)).collect();
        let seq_b: Vec<(u64, u64)> = b.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(seq_a, seq_b);
        // Slot order == ascending (generation-stripped) slot index.
        let slots: Vec<u64> = seq_a.iter().map(|&(t, _)| t & 0xffff_ffff).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(slots, sorted, "seed {seed}: iteration not in slot order");
    }
}

/// A mid-flight slab — holes in the slot array, a populated free list —
/// survives a snapshot round-trip verbatim: same lookups, same iteration
/// order, byte-identical re-serialization, and bit-identical future tag
/// assignment (the free-list order is part of the contract).
#[test]
fn tag_slab_snapshot_round_trip() {
    for seed in 100..116 {
        let (mut slab, model) = churned_slab(seed, 500);
        let bytes = simt_snap::assert_snap_laws(&slab);

        let mut r = SnapReader::new(&bytes);
        let mut restored: TagSlab<u64> = TagSlab::load(&mut r).unwrap();
        r.expect_exhausted().unwrap();

        assert_eq!(restored.len(), slab.len());
        let orig: Vec<(u64, u64)> = slab.iter().map(|(t, &v)| (t, v)).collect();
        let back: Vec<(u64, u64)> = restored.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(orig, back, "seed {seed}: iteration changed across restore");
        for (&tag, &v) in &model {
            assert_eq!(restored.get(tag), Some(&v));
        }

        // Re-serializing the restored slab reproduces the bytes exactly.
        let mut w2 = SnapWriter::new();
        restored.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "seed {seed}: snapshot not verbatim");

        // Tag assignment after restore matches the original trajectory.
        for i in 0..8 {
            assert_eq!(
                slab.insert(i),
                restored.insert(i),
                "seed {seed}: tag divergence"
            );
        }
    }
}

/// Drive a `ProbeMap` and a `BTreeMap` model through the same churn. Keys
/// mimic the simulator's line addresses (small multiples of the line size)
/// so probe chains actually collide and backward-shift deletion runs.
fn churned_probe(seed: u64, ops: usize) -> (ProbeMap<u64>, BTreeMap<u64, u64>) {
    let mut rng = Rng::new(seed);
    let mut map: ProbeMap<u64> = ProbeMap::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..ops {
        let key = rng.range(0, 96) * 128;
        match rng.range(0, 10) {
            0..=4 => {
                let v = rng.next();
                map.insert(key, v);
                model.insert(key, v);
            }
            5..=6 => {
                assert_eq!(map.remove(key), model.remove(&key));
            }
            7 => {
                let v = *map.get_or_insert_with(key, || key ^ 0x5a5a);
                let mv = *model.entry(key).or_insert(key ^ 0x5a5a);
                assert_eq!(v, mv);
            }
            _ => {
                assert_eq!(map.get(key), model.get(&key));
                assert_eq!(map.contains_key(key), model.contains_key(&key));
                if let Some(v) = map.get_mut(key) {
                    *v = v.wrapping_mul(3);
                    *model.get_mut(&key).unwrap() = *v;
                }
            }
        }
        assert_eq!(map.len(), model.len());
        assert_eq!(map.is_empty(), model.is_empty());
    }
    (map, model)
}

/// The probe map agrees with a `BTreeMap` model on get/insert/remove/
/// contains across randomized churn with real collisions.
#[test]
fn probe_map_matches_model() {
    for seed in 0..48 {
        let (map, model) = churned_probe(seed, 500);
        let from_iter: BTreeMap<u64, u64> = map.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(from_iter, model);
        let values: Vec<u64> = map.values().copied().collect();
        assert_eq!(values.len(), model.len());
    }
}

/// Probe-map iteration is a pure function of the insertion/removal history:
/// replaying the same ops yields the same slot order.
#[test]
fn probe_map_iteration_deterministic() {
    for seed in 0..16 {
        let (a, _) = churned_probe(seed, 400);
        let (b, _) = churned_probe(seed, 400);
        let seq_a: Vec<(u64, u64)> = a.iter().map(|(k, &v)| (k, v)).collect();
        let seq_b: Vec<(u64, u64)> = b.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(seq_a, seq_b);
    }
}

/// A mid-flight probe map — displaced keys, post-deletion shifts, grown
/// capacity — survives a snapshot round-trip verbatim: same lookups, same
/// slot order, byte-identical re-serialization.
#[test]
fn probe_map_snapshot_round_trip() {
    for seed in 200..216 {
        let (map, model) = churned_probe(seed, 600);
        let bytes = simt_snap::assert_snap_laws(&map);

        let mut r = SnapReader::new(&bytes);
        let mut restored: ProbeMap<u64> = ProbeMap::load(&mut r).unwrap();
        r.expect_exhausted().unwrap();

        assert_eq!(restored.len(), map.len());
        let orig: Vec<(u64, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
        let back: Vec<(u64, u64)> = restored.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(orig, back, "seed {seed}: slot order changed across restore");
        for (&k, &v) in &model {
            assert_eq!(restored.get(k), Some(&v));
        }

        let mut w2 = SnapWriter::new();
        restored.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "seed {seed}: snapshot not verbatim");

        // The restored table keeps probing correctly under further churn.
        restored.insert(96 * 128, 1);
        assert_eq!(restored.get(96 * 128), Some(&1));
    }
}

/// An empty map snapshots and restores with zero capacity (no allocation).
#[test]
fn probe_map_empty_round_trip() {
    let map: ProbeMap<u64> = ProbeMap::new();
    let bytes = simt_snap::assert_snap_laws(&map);
    simt_snap::assert_snap_laws(&TagSlab::<u64>::new());
    let mut r = SnapReader::new(&bytes);
    let restored: ProbeMap<u64> = ProbeMap::load(&mut r).unwrap();
    assert!(restored.is_empty());
    assert_eq!(restored.iter().count(), 0);
}
