//! Dense hot-path containers replacing the simulator's per-event HashMaps.
//!
//! Both structures are deterministic *by construction*: iteration visits
//! slots in index order, so snapshot encoders write them verbatim with no
//! sort-before-write pass, and a restored container is byte-for-byte the
//! container that was saved — including its internal layout (free-list
//! order, probe positions), which later snapshots of a resumed run depend
//! on for bit-exact resume invariance.
//!
//! * [`TagSlab`] keys in-flight entries by a generational handle the slab
//!   itself issues (slot index + generation), replacing
//!   `HashMap<u64, PendingMem>` + a tag counter: insert/lookup/remove are
//!   array indexing, and stale or forged tags miss by generation.
//! * [`ProbeMap`] is a u64-keyed open-addressing table (Fibonacci hashing,
//!   linear probing, backward-shift deletion) for address-keyed state such
//!   as lock owners and parked lock-acquire queues, replacing
//!   `HashMap<Addr, _>` without per-access SipHash.

use simt_snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Generational slab issuing `u64` tags: low 32 bits slot index, high 32
/// bits the slot's generation at insert. A tag stays valid until its entry
/// is removed; the generation bump on removal makes stale tags miss instead
/// of aliasing a later entry.
#[derive(Debug, Clone, Default)]
pub struct TagSlab<T> {
    /// `(generation, occupant)` per slot.
    slots: Vec<(u32, Option<T>)>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    len: usize,
}

impl<T> TagSlab<T> {
    /// An empty slab.
    pub fn new() -> TagSlab<T> {
        TagSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value`, returning its tag.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                let (generation, occ) = &mut self.slots[slot as usize];
                debug_assert!(occ.is_none(), "free list pointed at a live slot");
                *occ = Some(value);
                ((*generation as u64) << 32) | slot as u64
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push((0, Some(value)));
                slot as u64
            }
        }
    }

    #[inline]
    fn index_of(&self, tag: u64) -> Option<usize> {
        let slot = (tag & 0xffff_ffff) as usize;
        let generation = (tag >> 32) as u32;
        match self.slots.get(slot) {
            Some((g, Some(_))) if *g == generation => Some(slot),
            _ => None,
        }
    }

    /// Look up a live entry by tag.
    #[inline]
    pub fn get(&self, tag: u64) -> Option<&T> {
        self.index_of(tag).and_then(|i| self.slots[i].1.as_ref())
    }

    /// Mutable lookup by tag.
    #[inline]
    pub fn get_mut(&mut self, tag: u64) -> Option<&mut T> {
        self.index_of(tag).and_then(|i| self.slots[i].1.as_mut())
    }

    /// Remove and return the entry for `tag`, invalidating the tag.
    pub fn remove(&mut self, tag: u64) -> Option<T> {
        let i = self.index_of(tag)?;
        let (generation, occ) = &mut self.slots[i];
        let value = occ.take();
        *generation = generation.wrapping_add(1);
        self.free.push(i as u32);
        self.len -= 1;
        value
    }

    /// Live `(tag, entry)` pairs in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (g, occ))| occ.as_ref().map(|v| (((*g as u64) << 32) | i as u64, v)))
    }
}

/// The slab verbatim — slot layout, generations and free-list order all
/// survive, so tags issued before the snapshot stay valid after restore and
/// future tag assignment is bit-identical. Decoding validates the
/// structural invariants (the free list covers exactly the vacant slots, no
/// duplicates) so a corrupted snapshot fails structured instead of
/// corrupting tag assignment.
impl<T: Snap> Snap for TagSlab<T> {
    const MIN_BYTES: usize = 16;

    fn save(&self, w: &mut SnapWriter) {
        self.slots.save(w);
        self.free.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<TagSlab<T>, SnapshotError> {
        let slots: Vec<(u32, Option<T>)> = Snap::load(r)?;
        let free: Vec<u32> = Snap::load(r)?;
        let len = slots.iter().filter(|(_, occ)| occ.is_some()).count();
        if free.len() != slots.len() - len {
            return Err(SnapshotError::malformed(format!(
                "tag slab free list has {} entries for {} vacant slots",
                free.len(),
                slots.len() - len
            )));
        }
        let mut seen = vec![false; slots.len()];
        for &slot in &free {
            let Some((_, occ)) = slots.get(slot as usize) else {
                return Err(SnapshotError::malformed(format!(
                    "tag slab free list names slot {slot} of {}",
                    slots.len()
                )));
            };
            if occ.is_some() || seen[slot as usize] {
                return Err(SnapshotError::malformed(format!(
                    "tag slab free list entry {slot} is live or duplicated"
                )));
            }
            seen[slot as usize] = true;
        }
        Ok(TagSlab { slots, free, len })
    }
}

/// Multiplicative (Fibonacci) hash constant: 2^64 / φ.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial capacity on first insert; must be a power of two.
const PROBE_MIN_CAP: usize = 8;

/// Open-addressing `u64 -> V` map with linear probing and backward-shift
/// deletion (no tombstones). Capacity is always zero or a power of two and
/// load is kept at or under 3/4, so probe chains stay short and lookups
/// terminate. Iteration is in slot order — deterministic for a given
/// insertion/removal history, which snapshots preserve verbatim.
#[derive(Debug, Clone, Default)]
pub struct ProbeMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> ProbeMap<V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> ProbeMap<V> {
        ProbeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // slots.len() is a power of two >= 8 whenever this is called.
        let shift = 64 - self.slots.len().trailing_zeros();
        (key.wrapping_mul(FIB) >> shift) as usize
    }

    #[inline]
    fn find_slot(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find_slot(key)
            .and_then(|i| self.slots[i].as_ref().map(|(_, v)| v))
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find_slot(key)
            .and_then(|i| self.slots[i].as_mut().map(|(_, v)| v))
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find_slot(key).is_some()
    }

    /// Insert or replace, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.grow_for_one();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value for `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if self.find_slot(key).is_none() {
            self.insert(key, default());
        }
        let i = self.find_slot(key).expect("key just inserted");
        self.slots[i]
            .as_mut()
            .map(|(_, v)| v)
            .expect("slot is live")
    }

    /// Remove `key`, closing the probe chain by backward-shifting any
    /// displaced entries so future lookups never cross a hole.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find_slot(key)?;
        let (_, value) = self.slots[hole].take().expect("found slot is live");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else {
                break;
            };
            let h = self.home(*k);
            // The entry at j may move into the hole iff its home lies at or
            // cyclically before the hole (probe distance reaches the hole).
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
        Some(value)
    }

    /// Live `(key, value)` pairs in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Live values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }

    fn grow_for_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = (0..PROBE_MIN_CAP).map(|_| None).collect();
            return;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, (0..doubled).map(|_| None).collect());
            self.len = 0;
            for (k, v) in old.into_iter().flatten() {
                self.insert(k, v);
            }
        }
    }
}

/// The table verbatim — capacity and slot positions included — so a
/// restored map probes, grows and iterates exactly like the saved one. The
/// wire carries capacity, live count, then every slot; decoding validates
/// shape (power-of-two capacity, load bound) and the probe invariant (every
/// stored key is reachable from its home slot) so a corrupted snapshot
/// cannot produce a map that loses entries.
impl<V: Snap> Snap for ProbeMap<V> {
    const MIN_BYTES: usize = 16;

    fn save(&self, w: &mut SnapWriter) {
        (self.slots.len(), self.len).save(w);
        for slot in &self.slots {
            slot.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<ProbeMap<V>, SnapshotError> {
        let (cap, len) = <(usize, usize)>::load(r)?;
        if cap == 0 {
            if len != 0 {
                return Err(SnapshotError::malformed(
                    "probe map claims entries with zero capacity",
                ));
            }
            return Ok(ProbeMap::new());
        }
        if !cap.is_power_of_two()
            || cap < PROBE_MIN_CAP
            || cap > r.remaining() / Option::<(u64, V)>::MIN_BYTES
            || len > cap / 4 * 3
        {
            return Err(SnapshotError::malformed(format!(
                "probe map shape invalid: {len} entries in capacity {cap}"
            )));
        }
        let mut slots: Vec<Option<(u64, V)>> = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Snap::load(r)?);
        }
        let occupied = slots.iter().flatten().count();
        if occupied != len {
            return Err(SnapshotError::malformed(format!(
                "probe map has {occupied} occupied slots, header says {len}"
            )));
        }
        let map = ProbeMap { slots, len };
        for (i, slot) in map.slots.iter().enumerate() {
            if let Some((k, _)) = slot {
                if map.find_slot(*k) != Some(i) {
                    return Err(SnapshotError::malformed(format!(
                        "probe map key {k:#x} unreachable from its home slot"
                    )));
                }
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_slab_insert_get_remove() {
        let mut s: TagSlab<u32> = TagSlab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        *s.get_mut(b).unwrap() = 21;
        assert_eq!(s.remove(b), Some(21));
        assert_eq!(s.get(b), None, "removed tag is dead");
        assert_eq!(s.remove(b), None, "double remove misses");
        // Reuse bumps the generation: old tag still misses.
        let c = s.insert(30);
        assert_ne!(b, c);
        assert_eq!(b & 0xffff_ffff, c & 0xffff_ffff, "slot reused LIFO");
        assert_eq!(s.get(b), None);
        assert_eq!(s.get(c), Some(&30));
    }

    #[test]
    fn tag_slab_iterates_in_slot_order() {
        let mut s: TagSlab<u32> = TagSlab::new();
        let tags: Vec<u64> = (0..5).map(|i| s.insert(i)).collect();
        s.remove(tags[1]);
        let got: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![0, 2, 3, 4]);
    }

    #[test]
    fn probe_map_basic_ops() {
        let mut m: ProbeMap<u32> = ProbeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(0x1000, 1), None);
        assert_eq!(m.insert(0x1000, 2), Some(1));
        assert_eq!(m.get(0x1000), Some(&2));
        assert_eq!(m.remove(0x1000), Some(2));
        assert_eq!(m.remove(0x1000), None);
        assert!(m.is_empty());
    }

    #[test]
    fn probe_map_survives_growth_and_collisions() {
        let mut m: ProbeMap<u64> = ProbeMap::new();
        for i in 0..1000u64 {
            m.insert(i * 128, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 128), Some(&i), "key {i}");
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(i * 128), Some(i));
        }
        for i in 0..1000u64 {
            let want = (i % 2 == 1).then_some(i);
            assert_eq!(m.get(i * 128).copied(), want, "key {i} after removals");
        }
    }

    #[test]
    fn probe_map_get_or_insert_with() {
        let mut m: ProbeMap<Vec<u32>> = ProbeMap::new();
        m.get_or_insert_with(7, Vec::new).push(1);
        m.get_or_insert_with(7, Vec::new).push(2);
        assert_eq!(m.get(7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }
}
