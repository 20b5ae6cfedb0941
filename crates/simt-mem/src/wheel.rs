//! The memory system's pending response events as a timing wheel.
//!
//! Every event is scheduled a bounded number of cycles after the cycle that
//! schedules it ([`crate::MemConfig::max_event_offset`]), and the run loop
//! visits every cycle an event is due at, so the pending events always lie
//! within fewer cycles of the earliest than the wheel has slots: slot
//! `at % slots` holds the events due at exactly one cycle, in a FIFO. The
//! earliest time is kept exactly; when its slot empties, the occupancy
//! bitmap, scanned on from that slot, finds the next. This replaces a
//! binary heap of `(time, key)` pairs and pops in exactly its order: by
//! time, then by key (`seq << 32 | body slot`, so scheduling order until
//! `seq` wraps, and key order after).
//!
//! The wheel holds times, keys and FIFO links only, indexed by the event's
//! body slot in the memory system's `event_bodies` slab; the bodies stay
//! there.

use crate::MAX_EVENT_OFFSET;

/// End of a FIFO.
const NIL: u32 = u32::MAX;

/// One pending event: its time, its key, and the next event of its slot.
#[derive(Debug, Clone, Copy)]
struct Link {
    at: u64,
    key: u64,
    next: u32,
}

/// Pending events by due cycle: a timing wheel that pops `(time, key)`
/// pairs in ascending order, as a min-heap of them would (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Per wheel slot, the first and last body slot of its FIFO.
    fifos: Vec<(u32, u32)>,
    /// One bit per wheel slot: its FIFO is non-empty.
    occupied: Vec<u64>,
    /// Per body slot: the event's time, key and successor (meaningful only
    /// while the event is pending).
    links: Vec<Link>,
    len: usize,
    /// The earliest pending time (meaningful while `len > 0`).
    earliest: u64,
}

/// The body slot a key names.
pub(crate) fn body_slot(key: u64) -> usize {
    (key & 0xffff_ffff) as usize
}

impl EventWheel {
    /// A wheel for events scheduled at most `max_offset` cycles ahead: the
    /// smallest power of two of slots above it (an event due now and one
    /// scheduled now at the largest offset are pending together). Offsets
    /// past [`MAX_EVENT_OFFSET`] are clamped; `GpuConfig::validate`
    /// refuses such configurations before a run.
    pub fn new(max_offset: u64) -> EventWheel {
        let slots = (max_offset.min(MAX_EVENT_OFFSET) + 1).next_power_of_two() as usize;
        EventWheel {
            fifos: vec![(NIL, NIL); slots],
            occupied: vec![0; slots.div_ceil(64)],
            links: Vec::new(),
            len: 0,
            earliest: 0,
        }
    }

    /// Wheel slots: pending times must lie within this many cycles of the
    /// earliest.
    pub fn slots(&self) -> usize {
        self.fifos.len()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest pending event's time.
    pub fn earliest(&self) -> Option<u64> {
        (self.len > 0).then_some(self.earliest)
    }

    /// Schedule an event at `at` under `key`, whose low 32 bits name the
    /// event's body slot: at most one pending event per body slot, and
    /// every pending time within [`EventWheel::slots`] cycles of the
    /// earliest.
    pub fn push(&mut self, at: u64, key: u64) {
        let body = body_slot(key);
        if self.links.len() <= body {
            let vacant = Link {
                at: 0,
                key: 0,
                next: NIL,
            };
            self.links.resize(body + 1, vacant);
        }
        self.links[body] = Link { at, key, next: NIL };
        if self.len == 0 || at < self.earliest {
            self.earliest = at;
        }
        self.len += 1;
        let s = at as usize & (self.slots() - 1);
        let (head, tail) = self.fifos[s];
        let body = body as u32;
        if head == NIL {
            self.fifos[s] = (body, body);
            self.occupied[s / 64] |= 1 << (s % 64);
        } else if self.links[tail as usize].key < key {
            self.links[tail as usize].next = body;
            self.fifos[s].1 = body;
        } else {
            // `seq` wrapped: the key sorts before the tail's; walk to its place.
            let mut prev = NIL;
            let mut cur = head;
            while cur != NIL && self.links[cur as usize].key < key {
                prev = cur;
                cur = self.links[cur as usize].next;
            }
            self.links[body as usize].next = cur;
            match prev {
                NIL => self.fifos[s].0 = body,
                p => self.links[p as usize].next = body,
            }
        }
    }

    /// Remove and return the body slot of the next event in `(time, key)`
    /// order if it is due by `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<usize> {
        if self.len == 0 || self.earliest > now {
            return None;
        }
        let s = self.earliest as usize & (self.slots() - 1);
        let head = self.fifos[s].0;
        let next = self.links[head as usize].next;
        self.len -= 1;
        if next != NIL {
            // The rest of the slot is due at the same cycle.
            self.fifos[s].0 = next;
        } else {
            self.fifos[s] = (NIL, NIL);
            self.occupied[s / 64] &= !(1 << (s % 64));
            if let Some(t) = self.first_occupied_after(s) {
                self.earliest = self.links[self.fifos[t].0 as usize].at;
            }
        }
        Some(head as usize)
    }

    /// The first non-empty wheel slot after slot `s`, circularly: with every
    /// pending time within one wheel span, the one due soonest.
    fn first_occupied_after(&self, s: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (word, bit) = (s / 64, s % 64);
        let ahead = self.occupied[word] & (u64::MAX << bit);
        if ahead != 0 {
            return Some(word * 64 + ahead.trailing_zeros() as usize);
        }
        // A power of two of words, like the slots.
        let words = self.occupied.len();
        (1..=words).find_map(|i| {
            let w = (word + i) & (words - 1);
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Every pending `(time, key)`, sorted: the heap's snapshot encoding.
    pub fn sorted_keys(&self) -> Vec<(u64, u64)> {
        let mut keys = Vec::with_capacity(self.len);
        for &(head, _) in &self.fifos {
            let mut cur = head;
            while cur != NIL {
                let link = self.links[cur as usize];
                keys.push((link.at, link.key));
                cur = link.next;
            }
        }
        keys.sort_unstable();
        keys
    }

    /// Debug-build oracle, after the cycle `now` drained: the earliest time
    /// is the minimum over every pending event, the count agrees, and the
    /// pending times lie after `now` and within the wheel's span of it.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_consistent(&self, now: u64) {
        let (mut n, mut lo, mut hi) = (0, u64::MAX, 0);
        for &(head, _) in &self.fifos {
            let mut cur = head;
            while cur != NIL {
                let link = self.links[cur as usize];
                (n, lo, hi) = (n + 1, lo.min(link.at), hi.max(link.at));
                cur = link.next;
            }
        }
        assert_eq!(n, self.len, "wheel: pending count");
        assert_eq!(self.earliest(), (n > 0).then_some(lo), "wheel: earliest");
        assert!(
            n == 0 || (now < lo && hi - now < self.slots() as u64),
            "wheel: pending times {lo}..={hi} at cycle {now} overrun {} slots",
            self.slots()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_a_power_of_two_above_the_offset() {
        assert_eq!(EventWheel::new(0).slots(), 1);
        assert_eq!(EventWheel::new(160).slots(), 256);
        assert_eq!(EventWheel::new(255).slots(), 256);
        assert_eq!(EventWheel::new(256).slots(), 512);
        assert_eq!(EventWheel::new(u64::MAX).slots(), 65_536);
    }

    #[test]
    fn equal_times_pop_in_key_order_even_after_seq_wraps() {
        let mut w = EventWheel::new(16);
        let key = |seq: u64, slot: u64| (seq << 32) | slot;
        w.push(5, key(u64::MAX >> 32, 0));
        w.push(3, key(7, 1));
        // Wrapped seq: sorts before the first event due at 5.
        w.push(5, key(1, 2));
        w.push(5, key(2, 3));
        assert_eq!(w.earliest(), Some(3));
        assert_eq!(w.pop_due(2), None);
        let popped: Vec<usize> = std::iter::from_fn(|| w.pop_due(5)).collect();
        assert_eq!(popped, [1, 2, 3, 0]);
        assert!(w.is_empty());
        assert_eq!(w.earliest(), None);
    }

    #[test]
    fn earliest_wraps_around_the_wheel() {
        // Eight slots.
        let mut w = EventWheel::new(7);
        w.push(14, 1);
        w.push(9, 2);
        assert_eq!(w.sorted_keys(), [(9, 2), (14, 1)]);
        assert_eq!(w.pop_due(9), Some(2));
        assert_eq!(w.pop_due(9), None);
        // Slot 0 (cycle 16) lies after slot 6 (cycle 14).
        w.push(16, 3);
        assert_eq!(w.earliest(), Some(14));
        assert_eq!(w.pop_due(14), Some(1));
        assert_eq!(w.earliest(), Some(16));
        assert_eq!(w.pop_due(16), Some(3));
        assert_eq!(w.len(), 0);
    }
}
