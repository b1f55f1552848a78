//! The crate-private lane abstraction: the one place that maps a value
//! lane (`bool`, `i64`, `f64`) to its registry variants, its output
//! variants, its custom accumulation monoid, and its resolved-op variant,
//! plus the semiring the kernels run on.
//!
//! Engine code that must work on every lane is written once, generic over
//! [`Lane`]; [`with_lane!`] turns a runtime [`ValueKind`] into that type
//! parameter, and [`on_variant!`] applies one expression to whichever
//! lane variant a [`ValueMat`] / [`ValueVec`] / [`Resolved`] holds. A
//! product on lane `T` runs the kernels on [`Fixed<T, K>`]: the op's
//! runtime [`SemiringKind`] is dispatched once per op, not once per flop.
//!
//! [`ValueKind`]: masked_spgemm::ValueKind

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use masked_spgemm::{DynLane, LaneValue, ScratchSet, SemiringKind, ValueKind};
use sparse::{CsrMatrix, Semiring, SparseError, SparseVec};

use crate::context::{ValueMat, ValueVec};
use crate::op::{AccumMonoid, FromOpOutput, OpOutput, Resolved, ResolvedOp, OUTPUT_KIND_MISMATCH};

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

/// [`DynLane<T>`] with its kind fixed at compile time to
/// `SemiringKind::ALL[K]`. The kernels are monomorphized per (lane, kind)
/// on it, so their inner loops carry no kind branch and `plus_pair` never
/// loads an operand value — the code the typed semirings compile to. Its
/// `mul`/`add` are `DynLane`'s with the kind folded to a constant, hence
/// bit-identical to it.
#[derive(Copy, Clone)]
pub(crate) struct Fixed<T, const K: usize>(PhantomData<T>);

// `Fixed::<T, { kind as usize }>` names `kind` only if `ALL` lists the
// kinds in declaration order.
const _: () = {
    let mut k = 0;
    while k < SemiringKind::ALL.len() {
        assert!(SemiringKind::ALL[k] as usize == k);
        k += 1;
    }
};

impl<T: LaneValue, const K: usize> Fixed<T, K> {
    pub(crate) fn new() -> Self {
        Fixed(PhantomData)
    }
}

impl<T: LaneValue, const K: usize> Semiring for Fixed<T, K> {
    type A = T;
    type B = T;
    type C = T;

    #[inline(always)]
    fn mul(&self, a: T, b: T) -> T {
        DynLane::<T>::new(SemiringKind::ALL[K]).mul(a, b)
    }

    #[inline(always)]
    fn add(&self, x: T, y: T) -> T {
        DynLane::<T>::new(SemiringKind::ALL[K]).add(x, y)
    }
}

/// Reusable kernel scratch, one [`ScratchSet`] per semiring run so far:
/// what a batch worker holds for its lifetime, and what serial single ops
/// reuse across calls. Sets are created on first use, and the kernels in
/// a set on first use per family; none is freed before its holder.
#[derive(Default)]
pub(crate) struct ScratchSets(Vec<Box<dyn Any + Send>>);

impl ScratchSets {
    /// The set for semiring `S`.
    pub(crate) fn get<S>(&mut self) -> &mut ScratchSet<S>
    where
        S: Semiring + Send + 'static,
        S::C: Default + Send,
    {
        let i = match self.0.iter().position(|s| s.is::<ScratchSet<S>>()) {
            Some(i) => i,
            None => {
                self.0.push(Box::new(ScratchSet::<S>::new()));
                self.0.len() - 1
            }
        };
        self.0[i]
            .downcast_mut()
            .expect("slot holds this semiring's set")
    }
}

/// A value lane the engine stores, multiplies, and delivers.
pub(crate) trait Lane: LaneValue {
    /// Whether this is the `bool` lane, whose only semiring is
    /// [`SemiringKind::BoolAndOr`].
    const BOOL: bool = matches!(Self::KIND, ValueKind::Bool);
    /// The stored matrix, when `m` lives natively on this lane.
    fn native_mat(m: &ValueMat) -> Option<&Arc<CsrMatrix<Self>>>;
    /// A registerable matrix on this lane.
    fn wrap_mat(m: Arc<CsrMatrix<Self>>) -> ValueMat;
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
}

macro_rules! impl_lane {
    ($t:ty, $variant:ident, $mat:ident, $vec:ident, $custom:ident) => {
        impl Lane for $t {
            fn native_mat(m: &ValueMat) -> Option<&Arc<CsrMatrix<$t>>> {
                match m {
                    ValueMat::$variant(m) => Some(m),
                    _ => None,
                }
            }
            fn wrap_mat(m: Arc<CsrMatrix<$t>>) -> ValueMat {
                ValueMat::$variant(m)
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
        }

        impl From<ResolvedOp<$t>> for Resolved {
            fn from(r: ResolvedOp<$t>) -> Self {
                Resolved::$variant(r)
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

impl_lane!(bool, Bool, MatBool, VecBool, CustomBool);
impl_lane!(i64, I64, MatI64, VecI64, CustomI64);
impl_lane!(f64, F64, MatF64, VecF64, CustomF64);
