//! The crate-private lane abstraction: the one place that maps a value
//! lane (`bool`, `i64`, `f64`) to its registry variants, its output
//! variants, its custom accumulation monoid, its batch scratch, and its
//! typed matrix semirings.
//!
//! Engine code that must work on every lane is written once, generic over
//! [`Lane`]; [`with_lane!`] turns a runtime [`ValueKind`] into that type
//! parameter, and [`on_variant!`] applies one expression to whichever
//! lane variant a [`ValueMat`] / [`ValueVec`] holds.
//!
//! [`ValueKind`]: masked_spgemm::ValueKind

use std::sync::Arc;

use masked_spgemm::{DynLane, LaneValue, ScratchSet, SemiringKind};
use sparse::{
    BoolAndOr, CsrMatrix, MinPlus, PlusFirst, PlusPair, PlusSecond, PlusTimes, Semiring,
    SparseError, SparseVec,
};

use crate::context::{ValueMat, ValueVec};
use crate::op::{
    AccumMonoid, FromOpOutput, OpOutput, OUTPUT_KIND_MISMATCH, SEMIRING_LANE_UNSUPPORTED,
};

/// Evaluate `$body` with the type alias `$T` bound to the lane type of the
/// runtime [`masked_spgemm::ValueKind`] `$kind`.
macro_rules! with_lane {
    ($kind:expr, $T:ident => $body:expr) => {
        match $kind {
            masked_spgemm::ValueKind::Bool => {
                type $T = bool;
                $body
            }
            masked_spgemm::ValueKind::I64 => {
                type $T = i64;
                $body
            }
            masked_spgemm::ValueKind::F64 => {
                type $T = f64;
                $body
            }
        }
    };
}

/// Evaluate `$body` with `$x` bound to the payload of whichever lane
/// variant (`Bool`, `I64`, `F64`) the enum value `$value` holds.
macro_rules! on_variant {
    ($value:expr, $Enum:ident, $x:ident => $body:expr) => {
        match $value {
            $Enum::Bool($x) => $body,
            $Enum::I64($x) => $body,
            $Enum::F64($x) => $body,
        }
    };
}

pub(crate) use {on_variant, with_lane};

/// A matrix product that runs on any typed semiring of lane `T` —
/// [`Lane::typed_product`] picks the semiring, the implementor runs it.
pub(crate) trait TypedProduct<T> {
    /// What the product returns.
    type Out;
    /// Run with the monomorphized semiring `sr`.
    fn run<S: Semiring<A = T, B = T, C = T>>(self, sr: S) -> Self::Out;
}

/// One reusable erased-semiring kernel scratch set per value lane: what a
/// batch worker holds for its lifetime, and what the single-op vector path
/// reuses across calls. Lanes never touched stay empty (the kernels inside
/// a [`ScratchSet`] are built on first use per family).
#[derive(Default)]
pub(crate) struct LaneScratch {
    bool_: ScratchSet<DynLane<bool>>,
    i64_: ScratchSet<DynLane<i64>>,
    f64_: ScratchSet<DynLane<f64>>,
}

/// A value lane the engine stores, multiplies, and delivers.
pub(crate) trait Lane: LaneValue {
    /// The stored matrix, when `m` lives natively on this lane.
    fn native_mat(m: &ValueMat) -> Option<&Arc<CsrMatrix<Self>>>;
    /// The stored vector, when `v` lives on this lane.
    fn native_vec(v: &ValueVec) -> Option<&Arc<SparseVec<Self>>>;
    /// A registerable matrix on this lane.
    fn wrap_mat(m: Arc<CsrMatrix<Self>>) -> ValueMat;
    /// A registerable vector on this lane.
    fn wrap_vec(v: Arc<SparseVec<Self>>) -> ValueVec;
    /// This lane's matrix output variant.
    fn mat_output(m: CsrMatrix<Self>) -> OpOutput;
    /// This lane's vector output variant.
    fn vec_output(v: SparseVec<Self>) -> OpOutput;
    /// The matrix result, when `out` is this lane's matrix variant.
    fn take_mat(out: OpOutput) -> Option<CsrMatrix<Self>>;
    /// The vector result, when `out` is this lane's vector variant.
    fn take_vec(out: OpOutput) -> Option<SparseVec<Self>>;
    /// The custom monoid function, when `monoid` is this lane's custom one.
    fn custom_monoid(monoid: AccumMonoid) -> Option<fn(Self, Self) -> Self>;
    /// This lane's scratch set.
    fn scratch(s: &mut LaneScratch) -> &mut ScratchSet<DynLane<Self>>;
    /// Run `product` on the typed semiring `kind` names on this lane, or
    /// report [`SEMIRING_LANE_UNSUPPORTED`].
    fn typed_product<P: TypedProduct<Self>>(
        kind: SemiringKind,
        product: P,
    ) -> Result<P::Out, SparseError>;
}

/// The typed semirings of a numeric lane.
fn numeric_product<T, P>(kind: SemiringKind, p: P) -> Result<P::Out, SparseError>
where
    T: LaneValue
        + sparse::semiring::One
        + PartialOrd
        + std::ops::Add<Output = T>
        + std::ops::Mul<Output = T>,
    P: TypedProduct<T>,
{
    match kind {
        SemiringKind::PlusTimes => Ok(p.run(PlusTimes::<T>::new())),
        SemiringKind::PlusPair => Ok(p.run(PlusPair::<T, T, T>::new())),
        SemiringKind::PlusFirst => Ok(p.run(PlusFirst::<T>::new())),
        SemiringKind::PlusSecond => Ok(p.run(PlusSecond::<T, T>::new())),
        SemiringKind::MinPlus => Ok(p.run(MinPlus::<T>::new())),
        SemiringKind::BoolAndOr => Err(SparseError::Unsupported(SEMIRING_LANE_UNSUPPORTED)),
    }
}

/// The typed semiring of the `bool` lane.
fn bool_product<P: TypedProduct<bool>>(kind: SemiringKind, p: P) -> Result<P::Out, SparseError> {
    match kind {
        SemiringKind::BoolAndOr => Ok(p.run(BoolAndOr)),
        _ => Err(SparseError::Unsupported(SEMIRING_LANE_UNSUPPORTED)),
    }
}

macro_rules! impl_lane {
    ($t:ty, $variant:ident, $mat:ident, $vec:ident, $custom:ident, $scratch:ident, $product:ident) => {
        impl Lane for $t {
            fn native_mat(m: &ValueMat) -> Option<&Arc<CsrMatrix<$t>>> {
                match m {
                    ValueMat::$variant(m) => Some(m),
                    _ => None,
                }
            }
            fn native_vec(v: &ValueVec) -> Option<&Arc<SparseVec<$t>>> {
                match v {
                    ValueVec::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn wrap_mat(m: Arc<CsrMatrix<$t>>) -> ValueMat {
                ValueMat::$variant(m)
            }
            fn wrap_vec(v: Arc<SparseVec<$t>>) -> ValueVec {
                ValueVec::$variant(v)
            }
            fn mat_output(m: CsrMatrix<$t>) -> OpOutput {
                OpOutput::$mat(m)
            }
            fn vec_output(v: SparseVec<$t>) -> OpOutput {
                OpOutput::$vec(v)
            }
            fn take_mat(out: OpOutput) -> Option<CsrMatrix<$t>> {
                match out {
                    OpOutput::$mat(m) => Some(m),
                    _ => None,
                }
            }
            fn take_vec(out: OpOutput) -> Option<SparseVec<$t>> {
                match out {
                    OpOutput::$vec(v) => Some(v),
                    _ => None,
                }
            }
            fn custom_monoid(monoid: AccumMonoid) -> Option<fn($t, $t) -> $t> {
                match monoid {
                    AccumMonoid::$custom(f) => Some(f),
                    _ => None,
                }
            }
            fn scratch(s: &mut LaneScratch) -> &mut ScratchSet<DynLane<$t>> {
                &mut s.$scratch
            }
            fn typed_product<P: TypedProduct<$t>>(
                kind: SemiringKind,
                product: P,
            ) -> Result<P::Out, SparseError> {
                $product(kind, product)
            }
        }

        impl From<CsrMatrix<$t>> for ValueMat {
            fn from(m: CsrMatrix<$t>) -> Self {
                ValueMat::$variant(Arc::new(m))
            }
        }

        impl From<Arc<CsrMatrix<$t>>> for ValueMat {
            fn from(m: Arc<CsrMatrix<$t>>) -> Self {
                ValueMat::$variant(m)
            }
        }

        impl From<SparseVec<$t>> for ValueVec {
            fn from(v: SparseVec<$t>) -> Self {
                ValueVec::$variant(Arc::new(v))
            }
        }

        impl FromOpOutput for CsrMatrix<$t> {
            fn from_output(output: OpOutput) -> Result<Self, SparseError> {
                <$t as Lane>::take_mat(output).ok_or(SparseError::Unsupported(OUTPUT_KIND_MISMATCH))
            }
        }

        impl FromOpOutput for SparseVec<$t> {
            fn from_output(output: OpOutput) -> Result<Self, SparseError> {
                <$t as Lane>::take_vec(output).ok_or(SparseError::Unsupported(OUTPUT_KIND_MISMATCH))
            }
        }
    };
}

impl_lane!(
    bool,
    Bool,
    MatBool,
    VecBool,
    CustomBool,
    bool_,
    bool_product
);
impl_lane!(i64, I64, MatI64, VecI64, CustomI64, i64_, numeric_product);
impl_lane!(f64, F64, MatF64, VecF64, CustomF64, f64_, numeric_product);
