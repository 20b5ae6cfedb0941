//! The one snapshot codec: the [`Snap`] trait, its impls for primitives and
//! std containers, and the field-list macros that derive both directions of
//! a struct's or enum's encoding from a single declaration.
//!
//! Encoding rules (format version 2 — every rule here is load-bearing for
//! existing snapshot files):
//!
//! * integers are little-endian at their declared width; `usize` travels as
//!   `u64`; `bool` is one byte, 0 or 1; `f64` is its bit pattern;
//! * `Option<T>` is a `bool` tag followed by the value when the tag is 1;
//! * `Vec<T>` / `VecDeque<T>` are a `u64` length followed by the elements,
//!   and the decoder caps the length at `remaining / T::MIN_BYTES` *before*
//!   allocating;
//! * tuples and `[T; N]` are their elements back to back, no framing;
//! * a struct is its listed fields back to back in list order
//!   ([`snap_struct!`](crate::snap_struct)); an enum is a `u8` tag followed
//!   by the chosen variant's fields ([`snap_enum!`](crate::snap_enum)).

use crate::{SnapReader, SnapWriter, SnapshotError};
use std::collections::VecDeque;

/// A value with one fixed binary encoding, written by [`Snap::save`] and
/// read back by [`Snap::load`].
pub trait Snap: Sized {
    /// A lower bound on the encoded size of any value of this type.
    /// Collection decoders divide the bytes remaining by it to cap an
    /// embedded length, so a hostile length can never reserve more memory
    /// than the input it arrived in. It must never exceed the size of the
    /// smallest valid encoding ([`assert_snap_laws`] checks this), or the
    /// cap would reject valid snapshots.
    const MIN_BYTES: usize;

    /// Append this value's encoding.
    fn save(&self, w: &mut SnapWriter);

    /// Decode one value, consuming exactly the bytes [`Snap::save`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`]; never a
    /// panic, whatever the input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snap_primitive {
    ($($t:ident: $n:literal),+) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = $n;
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<$t, SnapshotError> {
                r.$t()
            }
        }
    )+};
}

snap_primitive!(u8: 1, bool: 1, u16: 2, u32: 4, u64: 8, usize: 8, f64: 8);

impl<T: Snap> Snap for Option<T> {
    const MIN_BYTES: usize = 1;
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapshotError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapshotError> {
        let n = r.len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<VecDeque<T>, SnapshotError> {
        Vec::load(r).map(VecDeque::from)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<(A, B), SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<[T; N], SnapshotError> {
        // `array::try_from_fn` is unstable: decode every slot, keep the
        // first error, and unwrap the slots only when there was none.
        let mut err = None;
        let slots = std::array::from_fn(|_| {
            if err.is_some() {
                return None;
            }
            T::load(r).map_err(|e| err = Some(e)).ok()
        });
        match err {
            Some(e) => Err(e),
            None => Ok(slots.map(|v| v.expect("no decode error recorded"))),
        }
    }
}

/// Smallest element of a non-empty slice, usable in `const` context
/// ([`snap_enum!`](crate::snap_enum) sizes an enum by its smallest variant).
#[doc(hidden)]
pub const fn min_of(xs: &[usize]) -> usize {
    let mut min = xs[0];
    let mut i = 1;
    while i < xs.len() {
        if xs[i] < min {
            min = xs[i];
        }
        i += 1;
    }
    min
}

/// Derive a struct's snapshot encoding from one field list.
///
/// The list names each serialized field once, with its type, in wire
/// order; `save`, `load` and `MIN_BYTES` (the sum of the fields'
/// `MIN_BYTES`) are all generated from it, so the two directions cannot
/// drift apart and a reordered line is the only way to reorder the format.
/// Tuple structs list their fields by index (`Reg { 0: u8 }`).
///
/// ```
/// # use simt_snap::{snap_struct, Snap, SnapshotError};
/// struct Span { start: u64, len: u32 }
/// snap_struct!(Span { start: u64, len: u32 } check |s: &Span| {
///     if s.len == 0 { Err(SnapshotError::malformed("empty span")) } else { Ok(()) }
/// });
/// assert_eq!(Span::MIN_BYTES, 12);
/// ```
///
/// **`check`** runs on the decoded value before `load` returns it: the
/// place for every condition that can be judged from the value alone
/// (bookkeeping that must add up, lengths that must agree). Conditions that
/// need outside context — the kernel's instruction count, the number of
/// SMs — belong to the owner's explicit pass after decoding.
///
/// **`state`** form: `snap_struct!(state T { .. })` is for a struct whose
/// remaining fields are fixed at construction (capacities, hash widths,
/// configuration). It implements no trait; it generates inherent
/// `save_fields(&self, w)` and `load_fields(&mut self, r)`, the latter
/// overwriting the listed fields of an already constructed value in place
/// and then running `check` against the whole value, configuration
/// included. On error the value is partly restored and must be discarded,
/// as every restore target in this workspace already is.
#[macro_export]
macro_rules! snap_struct {
    (state $t:ty { $($f:tt : $ft:ty),+ $(,)? } $(check $check:expr)?) => {
        impl $t {
            /// Append the snapshot field list, in list order.
            pub(crate) fn save_fields(&self, w: &mut $crate::SnapWriter) {
                $(<$ft as $crate::Snap>::save(&self.$f, w);)+
            }

            /// Overwrite the snapshot field list in place, in list order,
            /// then validate. On error `self` must be discarded.
            pub(crate) fn load_fields(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapshotError> {
                $(self.$f = <$ft as $crate::Snap>::load(r)?;)+
                $(($check)(&*self)?;)?
                Ok(())
            }
        }
    };
    ($t:ty { $($f:tt : $ft:ty),+ $(,)? } $(check $check:expr)?) => {
        impl $crate::Snap for $t {
            const MIN_BYTES: usize = 0 $(+ <$ft as $crate::Snap>::MIN_BYTES)+;

            fn save(&self, w: &mut $crate::SnapWriter) {
                $(<$ft as $crate::Snap>::save(&self.$f, w);)+
            }

            fn load(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapshotError> {
                let v = Self { $($f: <$ft as $crate::Snap>::load(r)?),+ };
                $(($check)(&v)?;)?
                Ok(v)
            }
        }
    };
}

/// Derive an enum's snapshot encoding: a `u8` tag, then the variant's
/// fields in list order. Unit variants are written `Name {}`. An unknown
/// tag decodes to [`SnapshotError::Malformed`] naming `$what`.
///
/// ```
/// # use simt_snap::{snap_enum, Snap};
/// enum Kind { Load { bypass: bool }, Store }
/// snap_enum!(Kind, "request kind" { 0 => Load { bypass: bool }, 1 => Store {} });
/// assert_eq!(Kind::MIN_BYTES, 1);
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($t:ty, $what:literal {
        $($tag:literal => $v:ident { $($f:ident : $ft:ty),* $(,)? }),+ $(,)?
    }) => {
        impl $crate::Snap for $t {
            const MIN_BYTES: usize = 1 + $crate::min_of(
                &[$(0 $(+ <$ft as $crate::Snap>::MIN_BYTES)*),+],
            );

            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$v { $($f),* } => {
                        w.u8($tag);
                        $(<$ft as $crate::Snap>::save($f, w);)*
                    })+
                }
            }

            fn load(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapshotError> {
                match r.u8()? {
                    $($tag => Ok(Self::$v { $($f: <$ft as $crate::Snap>::load(r)?),* }),)+
                    b => Err($crate::SnapshotError::malformed(format!(
                        concat!($what, " byte {}"),
                        b
                    ))),
                }
            }
        }
    };
}

/// Declare a struct of `u64` event counters from one list. The list is the
/// struct declaration itself; from it come the element-wise `add` and
/// `delta`, the [`Snap`] impl (counters in declaration order), and the
/// inherent `save_snap` / `load_snap` that callers outside the codec use.
#[macro_export]
macro_rules! snap_counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $f:ident : u64),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $f: u64),+
        }

        impl $name {
            /// Element-wise accumulate.
            pub fn add(&mut self, o: &$name) {
                $(self.$f += o.$f;)+
            }

            /// Element-wise `self - before`: what accrued since `before`
            /// was sampled. `None` if any counter ran backwards.
            pub fn delta(&self, before: &$name) -> Option<$name> {
                Some($name { $($f: self.$f.checked_sub(before.$f)?),+ })
            }

            /// Serialize every counter in declaration order.
            pub fn save_snap(&self, w: &mut $crate::SnapWriter) {
                $crate::Snap::save(self, w);
            }

            /// Restore counters written by `save_snap`.
            pub fn load_snap(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<$name, $crate::SnapshotError> {
                $crate::Snap::load(r)
            }
        }

        $crate::snap_struct!($name { $($f: u64),+ });
    };
}

/// Encode one value into a fresh body.
pub fn encode<T: Snap>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    w.into_bytes()
}

/// Test support: assert the laws every [`Snap`] impl owes the codec, on
/// `v`, and return its encoding.
///
/// * `MIN_BYTES` does not exceed the encoded size (call this with each
///   type's smallest value — empty collections, `None` — and the allocation
///   guard provably never rejects a valid snapshot);
/// * decoding consumes the encoding exactly and re-encodes to the same
///   bytes;
/// * every strict prefix of the encoding fails to decode with a structured
///   `Truncated`/`Malformed` error, never a panic.
///
/// # Panics
///
/// Panics, naming the broken law, if `T`'s impl violates one.
pub fn assert_snap_laws<T: Snap>(v: &T) -> Vec<u8> {
    let ty = std::any::type_name::<T>();
    let bytes = encode(v);
    assert!(
        T::MIN_BYTES <= bytes.len(),
        "{ty}: MIN_BYTES {} exceeds a {}-byte encoding",
        T::MIN_BYTES,
        bytes.len()
    );
    let mut r = SnapReader::new(&bytes);
    let back = T::load(&mut r).unwrap_or_else(|e| panic!("{ty}: own encoding rejected: {e}"));
    assert!(r.is_exhausted(), "{ty}: load left {} bytes", r.remaining());
    assert_eq!(encode(&back), bytes, "{ty}: re-encoding differs");
    for cut in 0..bytes.len() {
        match T::load(&mut SnapReader::new(&bytes[..cut])) {
            Err(SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }) => {}
            Err(e) => panic!("{ty}: prefix {cut} gave unstructured error {e}"),
            Ok(_) => panic!("{ty}: prefix {cut} of {} decoded", bytes.len()),
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Inner {
        id: usize,
        tags: Vec<u16>,
    }
    snap_struct!(Inner { id: usize, tags: Vec<u16> });

    #[derive(Debug, PartialEq)]
    struct Outer {
        flag: bool,
        inner: Option<Inner>,
        queue: VecDeque<(u8, u32)>,
        masks: [u64; 4],
        ratio: f64,
    }
    snap_struct!(Outer {
        flag: bool,
        inner: Option<Inner>,
        queue: VecDeque<(u8, u32)>,
        masks: [u64; 4],
        ratio: f64,
    } check |o: &Outer| {
        if o.ratio.is_nan() {
            Err(SnapshotError::malformed("ratio is NaN"))
        } else {
            Ok(())
        }
    });

    #[derive(Debug, PartialEq)]
    struct Newtype(u8);
    snap_struct!(Newtype { 0: u8 });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Dot { at: u32 },
        Path { points: Vec<Inner>, closed: bool },
    }
    snap_enum!(Shape, "shape" {
        0 => Empty {},
        1 => Dot { at: u32 },
        2 => Path { points: Vec<Inner>, closed: bool },
    });

    /// Construction-time `cap`, dynamic `items`: the `state` form.
    struct Bounded {
        cap: usize,
        items: Vec<u32>,
        cursor: u64,
    }
    snap_struct!(state Bounded { items: Vec<u32>, cursor: u64 } check |b: &Bounded| {
        if b.items.len() > b.cap {
            Err(SnapshotError::malformed("over capacity"))
        } else {
            Ok(())
        }
    });

    snap_counters! {
        /// Two counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Tally {
            /// Hits.
            pub hits: u64,
            /// Misses.
            pub misses: u64,
        }
    }

    /// The laws, plus value equality through a round trip.
    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) -> Vec<u8> {
        let bytes = assert_snap_laws(&v);
        assert_eq!(T::load(&mut SnapReader::new(&bytes)).unwrap(), v);
        bytes
    }

    fn outer() -> Outer {
        Outer {
            flag: true,
            inner: Some(Inner {
                id: 7,
                tags: vec![1, 2, 3],
            }),
            queue: VecDeque::from([(1, 10), (2, 20)]),
            masks: [1, 0, u64::MAX, 4],
            ratio: -0.5,
        }
    }

    #[test]
    fn every_impl_round_trips_and_survives_truncation() {
        roundtrip(0xabu8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xbeefu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX - 3);
        roundtrip(123_456usize);
        roundtrip(-0.5f64);
        roundtrip(None::<u32>);
        roundtrip(Some(9u32));
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(VecDeque::<u8>::new());
        roundtrip(VecDeque::from([5u8, 6]));
        roundtrip((7u8, 8u64));
        roundtrip([1u16, 2, 3]);
        roundtrip(vec![Some(vec![(1u8, 2u32)]), None]);
        roundtrip(Newtype(3));
        roundtrip(Inner {
            id: 0,
            tags: Vec::new(),
        });
        roundtrip(outer());
        roundtrip(Shape::Empty);
        roundtrip(Shape::Dot { at: 4 });
        roundtrip(Shape::Path {
            points: vec![Inner {
                id: 1,
                tags: vec![9],
            }],
            closed: true,
        });
        roundtrip(Tally { hits: 3, misses: 4 });
        roundtrip(Tally::default());
    }

    #[test]
    fn encodings_are_the_documented_bytes() {
        assert_eq!(encode(&Some(0x0102u16)), [1, 0x02, 0x01]);
        assert_eq!(encode(&None::<u16>), [0]);
        assert_eq!(encode(&vec![7u8, 8]), [2, 0, 0, 0, 0, 0, 0, 0, 7, 8]);
        assert_eq!(encode(&(1u8, [2u8, 3])), [1, 2, 3]);
        assert_eq!(encode(&Shape::Dot { at: 5 }), [1, 5, 0, 0, 0]);
        assert_eq!(
            encode(&Inner {
                id: 1,
                tags: vec![]
            })
            .len(),
            16
        );
    }

    #[test]
    fn min_bytes_are_sums_and_minima() {
        assert_eq!(Inner::MIN_BYTES, 16);
        assert_eq!(Outer::MIN_BYTES, 1 + 1 + 8 + 32 + 8);
        assert_eq!(<(u8, u32)>::MIN_BYTES, 5);
        assert_eq!(Shape::MIN_BYTES, 1, "tag plus the empty variant");
        assert_eq!(Tally::MIN_BYTES, 16);
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        // 2^60 elements claimed, 16 bytes of input behind the claim: the
        // cap (16 / 16 = 1 element) fails first; reserving 2^60 `Inner`s
        // would abort the process instead of returning.
        let mut w = SnapWriter::new();
        w.u64(1 << 60);
        w.u64(0);
        w.u64(0);
        let body = w.into_bytes();
        let err = Vec::<Inner>::load(&mut SnapReader::new(&body)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        let err = VecDeque::<u8>::load(&mut SnapReader::new(&body)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        // The cap is exact: three 8-byte elements fit in 24 bytes, four do not.
        for (claimed, ok) in [(3u64, true), (4, false)] {
            let mut w = SnapWriter::new();
            w.u64(claimed);
            for _ in 0..3 {
                w.u64(9);
            }
            let body = w.into_bytes();
            assert_eq!(Vec::<u64>::load(&mut SnapReader::new(&body)).is_ok(), ok);
        }
    }

    #[test]
    fn bad_tags_and_failed_checks_are_malformed() {
        let err = Shape::load(&mut SnapReader::new(&[9])).unwrap_err();
        assert!(err.to_string().contains("shape byte 9"), "{err}");
        let err = Option::<u8>::load(&mut SnapReader::new(&[2, 0])).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        let mut bad = outer();
        bad.ratio = f64::NAN;
        let err = Outer::load(&mut SnapReader::new(&encode(&bad))).unwrap_err();
        assert!(err.to_string().contains("ratio is NaN"), "{err}");
    }

    #[test]
    fn array_reports_the_first_error() {
        // Second of three bools is invalid; the third would be truncated.
        let err = <[bool; 3]>::load(&mut SnapReader::new(&[1, 7])).unwrap_err();
        assert!(err.to_string().contains("bool byte 7"), "{err}");
    }

    #[test]
    fn state_form_restores_in_place_and_checks_against_config() {
        let src = Bounded {
            cap: 4,
            items: vec![1, 2, 3],
            cursor: 99,
        };
        let mut w = SnapWriter::new();
        src.save_fields(&mut w);
        let body = w.into_bytes();
        let mut dst = Bounded {
            cap: 4,
            items: Vec::new(),
            cursor: 0,
        };
        dst.load_fields(&mut SnapReader::new(&body)).unwrap();
        assert_eq!(
            (dst.cap, &dst.items[..], dst.cursor),
            (4, &[1, 2, 3][..], 99)
        );
        let mut small = Bounded {
            cap: 2,
            items: Vec::new(),
            cursor: 0,
        };
        let err = small.load_fields(&mut SnapReader::new(&body)).unwrap_err();
        assert!(err.to_string().contains("over capacity"), "{err}");
        for cut in 0..body.len() {
            let mut d = Bounded {
                cap: 4,
                items: Vec::new(),
                cursor: 0,
            };
            assert!(
                d.load_fields(&mut SnapReader::new(&body[..cut])).is_err(),
                "prefix {cut}"
            );
        }
    }

    #[test]
    fn counters_add_delta_and_inherent_codec() {
        let mut a = Tally { hits: 5, misses: 1 };
        a.add(&Tally { hits: 2, misses: 2 });
        assert_eq!(a, Tally { hits: 7, misses: 3 });
        assert_eq!(
            a.delta(&Tally { hits: 5, misses: 3 }),
            Some(Tally { hits: 2, misses: 0 })
        );
        assert_eq!(
            a.delta(&Tally { hits: 8, misses: 0 }),
            None,
            "a counter ran backwards"
        );
        let mut w = SnapWriter::new();
        a.save_snap(&mut w);
        let body = w.into_bytes();
        assert_eq!(body, encode(&a));
        assert_eq!(Tally::load_snap(&mut SnapReader::new(&body)).unwrap(), a);
    }
}
