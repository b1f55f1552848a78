//! Runtime-selected semirings over typed value lanes.
//!
//! The kernels in this crate are generic over [`Semiring`], which
//! monomorphizes one copy of every kernel per semiring — the right call for
//! a single hot multiply, but it forces any *batch* API to fix one semiring
//! type for the whole batch. The engine's operation-descriptor API instead
//! describes each multiply with two runtime values:
//!
//! * a [`ValueKind`] — the **lane**: which scalar type the multiply runs on
//!   (`bool`, `i64`, or `f64`). Each lane is a real monomorphized kernel
//!   instantiation, so a boolean BFS step runs on `bool` arithmetic (`&&`,
//!   `||`) and an integer shortest-path relaxation on exact `i64` — not on
//!   an everything-is-`f64` encoding;
//! * a [`SemiringKind`] — which semiring of that lane to evaluate.
//!
//! Within one lane, [`DynLane<T>`] erases the semiring choice: one
//! monomorphized kernel instance per lane serves a batch that mixes, say,
//! `plus_times` BC sweeps with `plus_pair` triangle ops. The price is a
//! branch on the kind at every `mul` and `add`, and `plus_pair` still
//! loading operand values the typed [`sparse::PlusPair`] never reads:
//! single-thread kernels on R-MAT inputs ran 2-9% slower than the typed
//! semirings. The engine therefore reads the kind once per op and runs
//! `DynLane`'s operations with the kind fixed at compile time.
//!
//! Counting semirings on the `f64` lane accumulate exact integers up to
//! 2⁵³, far beyond any mask population this crate can represent (indices
//! are `u32`).

use std::marker::PhantomData;
use std::ops::{Add, Mul};

use sparse::Semiring;

/// The scalar type a runtime-described operation runs on — its **value
/// lane**. Each lane selects a monomorphized kernel instantiation at
/// runtime.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// `bool` — reachability / BFS frontiers (`&&`, `||`).
    Bool,
    /// `i64` — exact integer counting and tropical distances.
    I64,
    /// `f64` — the historical default lane.
    F64,
}

impl ValueKind {
    /// Every lane, for exhaustive tests.
    pub const ALL: [ValueKind; 3] = [ValueKind::Bool, ValueKind::I64, ValueKind::F64];

    /// Lowercase type name (`bool`, `i64`, `f64`).
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Bool => "bool",
            ValueKind::I64 => "i64",
            ValueKind::F64 => "f64",
        }
    }

    /// Bytes one stored value of this lane occupies — what byte-budgeted
    /// registries charge per nonzero, so a natively-`bool` matrix is
    /// billed at 1 byte/nnz rather than `f64` width.
    pub fn value_bytes(self) -> usize {
        match self {
            ValueKind::Bool => std::mem::size_of::<bool>(),
            ValueKind::I64 => std::mem::size_of::<i64>(),
            ValueKind::F64 => std::mem::size_of::<f64>(),
        }
    }
}

/// A scalar type usable as a runtime-selected value lane.
///
/// The associated operations define what the [`SemiringKind`]s mean on this
/// lane: `lane_add`/`lane_mul` are the lane's notion of `+`/`×` (`||`/`&&`
/// on `bool`), `lane_min` its meet, `lane_one` its multiplicative identity.
///
/// On `i64`, `lane_add` and `lane_mul` wrap on overflow (two's
/// complement) in debug and release builds alike, so a product's bits do
/// not depend on the build profile. That includes [`SemiringKind::MinPlus`],
/// whose `+` wraps rather than saturating at a tropical infinity.
///
/// # Lane cast rules
///
/// Matrices are stored natively on one lane and *cast* to another on
/// demand; every cross-lane cast factors through `f64`
/// ([`LaneValue::to_f64`] then [`LaneValue::from_f64`], fused by
/// [`LaneValue::cast_from`]):
///
/// * `bool → i64/f64`: `true → 1`, `false → 0`;
/// * `i64 → f64`: exact up to 2⁵³ (beyond any `u32`-indexed nnz count);
/// * `f64 → i64`: truncation (the historical `i64` view semantics);
/// * `i64/f64 → bool`: `v != 0` (structural presence).
pub trait LaneValue: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// The [`ValueKind`] tag of this lane.
    const KIND: ValueKind;

    /// Convert from an `f64` value (used to build typed operand casts;
    /// `i64` truncates, `bool` is `v != 0.0`).
    fn from_f64(v: f64) -> Self;

    /// Convert to `f64` (`true → 1.0`) — the other half of the cast rules.
    fn to_f64(self) -> f64;

    /// Cast a value from another lane (see the trait-level cast rules).
    #[inline(always)]
    fn cast_from<U: LaneValue>(v: U) -> Self {
        Self::from_f64(v.to_f64())
    }

    /// Lane addition (`||` on `bool`).
    fn lane_add(a: Self, b: Self) -> Self;

    /// Lane multiplication (`&&` on `bool`).
    fn lane_mul(a: Self, b: Self) -> Self;

    /// Lane minimum, with the same tie convention as [`sparse::MinPlus`]
    /// (`if b < a { b } else { a }`); `&&` on `bool`.
    fn lane_min(a: Self, b: Self) -> Self;

    /// Multiplicative identity (`true` on `bool`).
    fn lane_one() -> Self;

    /// Whether `a` and `b` are the same value bit for bit: `==` on `bool`
    /// and `i64`; on `f64` the bit patterns are compared, so `-0.0`
    /// differs from `0.0` and a NaN equals a NaN with the same bits. An
    /// accumulation counts an entry as changed when this is `false`.
    #[inline(always)]
    fn same_bits(a: Self, b: Self) -> bool {
        a == b
    }
}

impl LaneValue for bool {
    const KIND: ValueKind = ValueKind::Bool;

    #[inline(always)]
    fn from_f64(v: f64) -> bool {
        v != 0.0
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn lane_add(a: bool, b: bool) -> bool {
        a || b
    }

    #[inline(always)]
    fn lane_mul(a: bool, b: bool) -> bool {
        a && b
    }

    #[inline(always)]
    fn lane_min(a: bool, b: bool) -> bool {
        a && b
    }

    #[inline(always)]
    fn lane_one() -> bool {
        true
    }
}

macro_rules! impl_numeric_lane {
    ($t:ty, $kind:expr, $one:expr, $from:expr, $add:ident, $mul:ident) => {
        impl LaneValue for $t {
            const KIND: ValueKind = $kind;

            #[inline(always)]
            fn from_f64(v: f64) -> $t {
                $from(v)
            }

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline(always)]
            fn lane_add(a: $t, b: $t) -> $t {
                a.$add(b)
            }

            #[inline(always)]
            fn lane_mul(a: $t, b: $t) -> $t {
                a.$mul(b)
            }

            #[inline(always)]
            fn lane_min(a: $t, b: $t) -> $t {
                if b < a {
                    b
                } else {
                    a
                }
            }

            #[inline(always)]
            fn lane_one() -> $t {
                $one
            }

            #[inline(always)]
            fn same_bits(a: $t, b: $t) -> bool {
                a.to_ne_bytes() == b.to_ne_bytes()
            }
        }
    };
}

impl_numeric_lane!(
    i64,
    ValueKind::I64,
    1i64,
    |v: f64| v as i64,
    wrapping_add,
    wrapping_mul
);
impl_numeric_lane!(f64, ValueKind::F64, 1.0f64, |v: f64| v, add, mul);

/// Which semiring a [`DynLane`] evaluates, mirroring the typed semirings of
/// [`sparse::semiring`] instantiated at the lane's scalar type.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// Arithmetic `(+, ×)` — [`sparse::PlusTimes`].
    PlusTimes,
    /// `mul = 1`, `add = +` (contribution counting) — [`sparse::PlusPair`].
    PlusPair,
    /// `mul(a, b) = a`, `add = +` — [`sparse::PlusFirst`].
    PlusFirst,
    /// `mul(a, b) = b`, `add = +` — [`sparse::PlusSecond`].
    PlusSecond,
    /// Tropical `(min, +)` — [`sparse::MinPlus`].
    MinPlus,
    /// Boolean `(or, and)` — [`sparse::BoolAndOr`]; the BFS frontier
    /// semiring. Only meaningful on the [`ValueKind::Bool`] lane.
    BoolAndOr,
}

impl SemiringKind {
    /// Every kind, for exhaustive tests.
    pub const ALL: [SemiringKind; 6] = [
        SemiringKind::PlusTimes,
        SemiringKind::PlusPair,
        SemiringKind::PlusFirst,
        SemiringKind::PlusSecond,
        SemiringKind::MinPlus,
        SemiringKind::BoolAndOr,
    ];

    /// GraphBLAS-style name (`plus_times`, `bool_and_or`, ...).
    pub fn name(self) -> &'static str {
        match self {
            SemiringKind::PlusTimes => "plus_times",
            SemiringKind::PlusPair => "plus_pair",
            SemiringKind::PlusFirst => "plus_first",
            SemiringKind::PlusSecond => "plus_second",
            SemiringKind::MinPlus => "min_plus",
            SemiringKind::BoolAndOr => "bool_and_or",
        }
    }

    /// Whether this semiring is defined on the given value lane.
    ///
    /// [`SemiringKind::BoolAndOr`] is the boolean lane's semiring; the
    /// additive kinds need numeric accumulation and run on `i64`/`f64`.
    pub fn supports_value(self, value: ValueKind) -> bool {
        match self {
            SemiringKind::BoolAndOr => value == ValueKind::Bool,
            _ => value != ValueKind::Bool,
        }
    }
}

/// A [`Semiring`] over one value lane `T` that dispatches on a
/// [`SemiringKind`] at runtime.
///
/// Results are bit-identical to the corresponding typed semiring at `T`:
/// the kernels fix the order in which products of one output entry are
/// combined, and `mul`/`add` here perform the same operations in the same
/// order.
///
/// ```
/// use masked_spgemm::{DynLane, SemiringKind};
/// use sparse::Semiring;
///
/// let tc = DynLane::<i64>::new(SemiringKind::PlusPair);
/// assert_eq!(tc.mul(35, -2), 1); // pair: every product counts 1
/// assert_eq!(tc.add(1, 1), 2);
///
/// let bfs = DynLane::<bool>::new(SemiringKind::BoolAndOr);
/// assert!(bfs.mul(true, true) && !bfs.mul(true, false));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DynLane<T> {
    kind: SemiringKind,
    _lane: PhantomData<T>,
}

impl<T: LaneValue> DynLane<T> {
    /// Erased semiring evaluating `kind` on lane `T`.
    pub fn new(kind: SemiringKind) -> Self {
        DynLane {
            kind,
            _lane: PhantomData,
        }
    }

    /// The kind this semiring evaluates.
    pub fn kind(self) -> SemiringKind {
        self.kind
    }
}

impl<T: LaneValue> From<SemiringKind> for DynLane<T> {
    fn from(kind: SemiringKind) -> Self {
        DynLane::new(kind)
    }
}

impl<T: LaneValue> Semiring for DynLane<T> {
    type A = T;
    type B = T;
    type C = T;

    #[inline(always)]
    fn mul(&self, a: T, b: T) -> T {
        match self.kind {
            SemiringKind::PlusTimes | SemiringKind::BoolAndOr => T::lane_mul(a, b),
            SemiringKind::PlusPair => T::lane_one(),
            SemiringKind::PlusFirst => a,
            SemiringKind::PlusSecond => b,
            SemiringKind::MinPlus => T::lane_add(a, b),
        }
    }

    #[inline(always)]
    fn add(&self, x: T, y: T) -> T {
        match self.kind {
            SemiringKind::MinPlus => T::lane_min(x, y),
            _ => T::lane_add(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{masked_spgemm, Algorithm, Phases};
    use crate::kernel::testutil::random_csr;
    use crate::spgevm::{masked_spgevm, masked_spgevm_csc};
    use sparse::{
        BoolAndOr, CscMatrix, CsrMatrix, MinPlus, PlusFirst, PlusPair, PlusSecond, PlusTimes,
        SparseVec,
    };
    use std::ops::{Add, Mul};

    #[test]
    fn scalar_ops_match_typed_semirings() {
        let (a, b) = (2.5f64, -4.0f64);
        let pt = PlusTimes::<f64>::new();
        let d = DynLane::<f64>::new(SemiringKind::PlusTimes);
        assert_eq!(d.mul(a, b), pt.mul(a, b));
        assert_eq!(d.add(a, b), pt.add(a, b));
        let pp = PlusPair::<f64, f64, f64>::new();
        let d = DynLane::<f64>::new(SemiringKind::PlusPair);
        assert_eq!(d.mul(a, b), pp.mul(a, b));
        let pf = PlusFirst::<f64, f64>::new();
        let d = DynLane::<f64>::new(SemiringKind::PlusFirst);
        assert_eq!(d.mul(a, b), pf.mul(a, b));
        let ps = PlusSecond::<f64, f64>::new();
        let d = DynLane::<f64>::new(SemiringKind::PlusSecond);
        assert_eq!(d.mul(a, b), ps.mul(a, b));
        let mp = MinPlus::<f64>::new();
        let d = DynLane::<f64>::new(SemiringKind::MinPlus);
        assert_eq!(d.mul(a, b), mp.mul(a, b));
        assert_eq!(d.add(a, b), mp.add(a, b));
        assert_eq!(d.add(b, a), mp.add(b, a));
    }

    #[test]
    fn integer_lane_matches_typed_semirings() {
        let (a, b) = (7i64, -3i64);
        let pt = PlusTimes::<i64>::new();
        let d = DynLane::<i64>::new(SemiringKind::PlusTimes);
        assert_eq!(d.mul(a, b), pt.mul(a, b));
        assert_eq!(d.add(a, b), pt.add(a, b));
        let mp = MinPlus::<i64>::new();
        let d = DynLane::<i64>::new(SemiringKind::MinPlus);
        assert_eq!(d.mul(a, b), mp.mul(a, b));
        assert_eq!(d.add(a, b), mp.add(a, b));
        assert_eq!(d.add(b, a), mp.add(b, a));
        let pp = PlusPair::<i64, i64, i64>::new();
        let d = DynLane::<i64>::new(SemiringKind::PlusPair);
        assert_eq!(d.mul(a, b), pp.mul(a, b));
    }

    #[test]
    fn bool_lane_matches_bool_and_or() {
        let sr = BoolAndOr;
        let d = DynLane::<bool>::new(SemiringKind::BoolAndOr);
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(d.mul(a, b), sr.mul(a, b));
                assert_eq!(d.add(a, b), sr.add(a, b));
            }
        }
    }

    #[test]
    fn lane_support_matrix() {
        for kind in SemiringKind::ALL {
            assert_eq!(
                kind.supports_value(ValueKind::Bool),
                kind == SemiringKind::BoolAndOr,
                "{kind:?} on bool"
            );
            for value in [ValueKind::I64, ValueKind::F64] {
                assert_eq!(
                    kind.supports_value(value),
                    kind != SemiringKind::BoolAndOr,
                    "{kind:?} on {value:?}"
                );
            }
        }
    }

    #[test]
    fn from_f64_conversions() {
        assert!(bool::from_f64(2.0) && !bool::from_f64(0.0));
        assert_eq!(i64::from_f64(3.9), 3);
        assert_eq!(f64::from_f64(3.9), 3.9);
        assert_eq!(<bool as LaneValue>::KIND, ValueKind::Bool);
        assert_eq!(<i64 as LaneValue>::KIND, ValueKind::I64);
        assert_eq!(<f64 as LaneValue>::KIND, ValueKind::F64);
    }

    /// Require the erased `DynLane` of `kind` to reproduce the typed
    /// semiring `typed` exactly — equal results, or equal errors where a
    /// polarity is unsupported — for every algorithm × phases × polarity,
    /// as a matrix product and as one vector product per row of `a`.
    fn assert_erased_matches_typed<T, S>(
        typed: S,
        kind: SemiringKind,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        m: &CsrMatrix<()>,
    ) where
        T: LaneValue,
        S: Semiring<A = T, B = T, C = T>,
    {
        let erased = DynLane::<T>::new(kind);
        let b_csc = CscMatrix::from_csr(b);
        let lane = T::KIND;
        for compl in [false, true] {
            for alg in Algorithm::ALL {
                for ph in Phases::ALL {
                    assert_eq!(
                        masked_spgemm(alg, ph, compl, typed, m, a, b),
                        masked_spgemm(alg, ph, compl, erased, m, a, b),
                        "{kind:?} on {lane:?}: {alg:?}-{ph:?} compl={compl}"
                    );
                }
                for i in 0..a.nrows() {
                    let (uc, uv) = a.row(i);
                    let u = SparseVec::try_new(a.ncols(), uc.to_vec(), uv.to_vec()).unwrap();
                    let mask =
                        SparseVec::try_new(m.ncols(), m.row(i).0.to_vec(), vec![(); m.row_nnz(i)])
                            .unwrap();
                    let (t, e) = if alg == Algorithm::Inner {
                        (
                            masked_spgevm_csc(compl, typed, &mask, &u, &b_csc),
                            masked_spgevm_csc(compl, erased, &mask, &u, &b_csc),
                        )
                    } else {
                        (
                            masked_spgevm(alg, compl, typed, &mask, &u, b),
                            masked_spgevm(alg, compl, erased, &mask, &u, b),
                        )
                    };
                    assert_eq!(t, e, "{kind:?} on {lane:?}: {alg:?} row {i} compl={compl}");
                }
            }
        }
    }

    /// [`assert_erased_matches_typed`] for every numeric semiring kind.
    fn assert_numeric_lane_matches_typed<T>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, m: &CsrMatrix<()>)
    where
        T: LaneValue + sparse::semiring::One + PartialOrd + Add<Output = T> + Mul<Output = T>,
    {
        assert_erased_matches_typed(PlusTimes::<T>::new(), SemiringKind::PlusTimes, a, b, m);
        assert_erased_matches_typed(PlusPair::<T, T, T>::new(), SemiringKind::PlusPair, a, b, m);
        assert_erased_matches_typed(PlusFirst::<T, T>::new(), SemiringKind::PlusFirst, a, b, m);
        assert_erased_matches_typed(PlusSecond::<T, T>::new(), SemiringKind::PlusSecond, a, b, m);
        assert_erased_matches_typed(MinPlus::<T>::new(), SemiringKind::MinPlus, a, b, m);
    }

    #[test]
    fn erased_products_are_bit_identical_to_typed() {
        let a = random_csr(24, 24, 11, 30);
        let b = random_csr(24, 24, 12, 30);
        let m = random_csr(24, 24, 13, 40).pattern();
        assert_numeric_lane_matches_typed(&a, &b, &m);
        // Reciprocals round, so a change in combine order would show.
        let recip = |x: &f64| 1.0 / x;
        assert_numeric_lane_matches_typed(&a.map(recip), &b.map(recip), &m);
        let int = |x: &f64| *x as i64;
        assert_numeric_lane_matches_typed(&a.map(int), &b.map(int), &m);
        // Odd values only, so the bool lane sees both `true` and `false`.
        let odd = |x: &f64| *x as i64 % 2 == 1;
        assert_erased_matches_typed(
            BoolAndOr,
            SemiringKind::BoolAndOr,
            &a.map(odd),
            &b.map(odd),
            &m,
        );
    }

    #[test]
    fn integer_lane_products_are_exact() {
        let a = random_csr(20, 20, 21, 35).map(|&v| v as i64);
        let b = random_csr(20, 20, 22, 35).map(|&v| v as i64);
        let m = random_csr(20, 20, 23, 40).pattern();
        let typed = masked_spgemm(
            Algorithm::Msa,
            Phases::One,
            false,
            PlusTimes::<i64>::new(),
            &m,
            &a,
            &b,
        )
        .unwrap();
        let erased = masked_spgemm(
            Algorithm::Msa,
            Phases::One,
            false,
            DynLane::<i64>::new(SemiringKind::PlusTimes),
            &m,
            &a,
            &b,
        )
        .unwrap();
        assert_eq!(typed, erased);
    }

    #[test]
    fn names_and_kind_roundtrip() {
        for kind in SemiringKind::ALL {
            assert_eq!(DynLane::<f64>::new(kind).kind(), kind);
            assert_eq!(DynLane::<f64>::from(kind).kind(), kind);
            assert!(!kind.name().is_empty());
        }
        for value in ValueKind::ALL {
            assert!(!value.name().is_empty());
        }
    }
}
