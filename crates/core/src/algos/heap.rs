//! Heap row kernel (Section 5.5, paper Algorithms 4 and 5).
//!
//! A binary min-heap holds one iterator per nonzero of the `A` row, each
//! pointing into a row of `B` and ordered by current column id. Popping,
//! advancing, and reinserting iterators streams the multiset
//! `S = {B(k,j) | A(i,k) ≠ 0}` in sorted column order without materializing
//! it, and a two-way merge against the sorted mask row keeps only
//! `m ∩ S` (or `S \ m` for the complemented mask).
//!
//! `NINSPECT` controls how much of the mask is scanned *before* an iterator
//! is (re)inserted (Algorithm 5): `0` inserts blindly, `1` checks only the
//! current mask element (paper scheme **Heap**), `∞` merges until the next
//! guaranteed intersection (paper scheme **HeapDot**). Inspection trades
//! heap traffic (the `log₂ nnz(u)` factor) for mask scanning.
//!
//! Under a complemented mask the merge's mask cursor gallops
//! ([`skip_below`]) to each popped column instead of stepping one mask
//! entry at a time, so a row pays `O(log)` per run of mask entries it
//! skips, not `O(nnz(m))`.

use sparse::spvec::skip_below;
use sparse::{CsrMatrix, Idx, Semiring};

use crate::kernel::RowKernel;

/// `NInspect` parameter values (const-generic argument of [`HeapKernel`]).
pub mod ninspect {
    /// Insert without inspecting the mask (used for complemented masks).
    pub const ZERO: usize = 0;
    /// Inspect one mask element per insertion (paper scheme `Heap`).
    pub const ONE: usize = 1;
    /// Unbounded inspection (paper scheme `HeapDot`).
    pub const INF: usize = usize::MAX;
}

/// Convenience re-export of the `NInspect` constants as an enum for APIs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NInspect {
    /// No inspection before insertion.
    Zero,
    /// Inspect a single mask element.
    One,
    /// Merge against the mask until an intersection is found.
    Infinity,
}

/// One row iterator in the heap: the current column, the cursor into `B`'s
/// flat arrays, the row end, and the scaling value `A(i,k)`.
#[derive(Copy, Clone, Debug)]
struct Entry<A> {
    col: Idx,
    pos: usize,
    end: usize,
    aval: A,
}

/// Minimal binary min-heap over `Entry`, ordered by `col`. Kept as a plain
/// `Vec` so one allocation is reused across all rows of the multiply.
struct MinHeap<A> {
    items: Vec<Entry<A>>,
}

impl<A: Copy> MinHeap<A> {
    fn new() -> Self {
        MinHeap { items: Vec::new() }
    }

    #[inline]
    fn clear(&mut self) {
        self.items.clear();
    }

    #[cfg(test)]
    #[inline]
    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    fn push(&mut self, e: Entry<A>) {
        self.items.push(e);
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[parent].col <= self.items[i].col {
                break;
            }
            self.items.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry<A>> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let min = self.items.pop();
        let mut i = 0usize;
        let n = self.items.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.items[l].col < self.items[smallest].col {
                smallest = l;
            }
            if r < n && self.items[r].col < self.items[smallest].col {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
        min
    }
}

/// Heap-based row kernel. `NINSPECT` is one of the [`ninspect`] constants.
pub struct HeapKernel<S: Semiring, const NINSPECT: usize> {
    heap: MinHeap<S::A>,
}

impl<S: Semiring, const NINSPECT: usize> HeapKernel<S, NINSPECT> {
    /// Insert procedure of Algorithm 5: advance `pos` within the B row and a
    /// *local copy* of the mask cursor (`q`) for up to `NINSPECT` mask
    /// steps; push the iterator only if it may still intersect the mask.
    #[inline]
    fn insert_inspect(
        heap: &mut MinHeap<S::A>,
        bcols: &[Idx],
        mut pos: usize,
        end: usize,
        aval: S::A,
        mcols: &[Idx],
        mut q: usize,
    ) {
        if pos >= end {
            return;
        }
        if NINSPECT == 0 {
            heap.push(Entry {
                col: bcols[pos],
                pos,
                end,
                aval,
            });
            return;
        }
        let mut to_inspect = NINSPECT;
        while pos < end && q < mcols.len() {
            let c = bcols[pos];
            let m = mcols[q];
            if c == m {
                heap.push(Entry {
                    col: c,
                    pos,
                    end,
                    aval,
                });
                return;
            } else if c < m {
                pos += 1;
            } else {
                q += 1;
                to_inspect -= 1;
                if to_inspect == 0 {
                    heap.push(Entry {
                        col: bcols[pos],
                        pos,
                        end,
                        aval,
                    });
                    return;
                }
            }
        }
        // Row exhausted, or no mask entries remain: the iterator can never
        // produce an output entry — drop it.
    }

    /// Shared main loop of Algorithm 4, parameterized over what to do with
    /// each surviving product (`emit(col, pos, aval)` is called in
    /// non-decreasing column order).
    #[inline]
    fn merge_loop(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        complemented: bool,
        mut emit: impl FnMut(Idx, usize, S::A),
    ) {
        let heap = &mut self.heap;
        heap.clear();
        let bptr = b.rowptr();
        let bcols = b.colidx();
        let mut q = 0usize; // global mask cursor (mIter of Algorithm 4)
        for (&k, &av) in acols.iter().zip(avals) {
            let (s, e) = (bptr[k as usize], bptr[k as usize + 1]);
            if complemented {
                if s < e {
                    heap.push(Entry {
                        col: bcols[s],
                        pos: s,
                        end: e,
                        aval: av,
                    });
                }
            } else {
                Self::insert_inspect(heap, bcols, s, e, av, mcols, q);
            }
        }
        while let Some(mut min) = heap.pop() {
            if complemented {
                // The products skip most of a complemented mask row (a
                // frontier under a visited set): gallop over it.
                q = skip_below(mcols, q, min.col);
            } else {
                while q < mcols.len() && mcols[q] < min.col {
                    q += 1;
                }
            }
            let in_mask = q < mcols.len() && mcols[q] == min.col;
            if complemented {
                if !in_mask {
                    emit(min.col, min.pos, min.aval);
                }
            } else {
                if q >= mcols.len() {
                    break; // mask exhausted: nothing further can match
                }
                if in_mask {
                    emit(min.col, min.pos, min.aval);
                }
            }
            min.pos += 1;
            if complemented {
                if min.pos < min.end {
                    min.col = bcols[min.pos];
                    heap.push(min);
                }
            } else {
                Self::insert_inspect(heap, bcols, min.pos, min.end, min.aval, mcols, q);
            }
        }
    }
}

impl<S: Semiring, const NINSPECT: usize> RowKernel<S> for HeapKernel<S, NINSPECT> {
    const SUPPORTS_COMPLEMENT: bool = true;
    const SIZED_BY_MASK: bool = false;

    fn new(_ncols: usize, _max_mask_row_nnz: usize) -> Self {
        HeapKernel {
            heap: MinHeap::new(),
        }
    }

    fn compute_row(
        &mut self,
        sr: S,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        if mcols.is_empty() || acols.is_empty() {
            return;
        }
        let bvals = b.values();
        let mut prev: Option<Idx> = None;
        self.merge_loop(mcols, acols, avals, b, false, |col, pos, aval| {
            let v = sr.mul(aval, bvals[pos]);
            if prev == Some(col) {
                let last = out_vals.last_mut().expect("prev implies an entry");
                *last = sr.add(*last, v);
            } else {
                out_cols.push(col);
                out_vals.push(v);
                prev = Some(col);
            }
        });
    }

    fn count_row(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
    ) -> usize {
        if mcols.is_empty() || acols.is_empty() {
            return 0;
        }
        let mut prev: Option<Idx> = None;
        let mut count = 0usize;
        self.merge_loop(mcols, acols, avals, b, false, |col, _, _| {
            if prev != Some(col) {
                count += 1;
                prev = Some(col);
            }
        });
        count
    }

    fn compute_row_complemented(
        &mut self,
        sr: S,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        if acols.is_empty() {
            return;
        }
        let bvals = b.values();
        let mut prev: Option<Idx> = None;
        self.merge_loop(mcols, acols, avals, b, true, |col, pos, aval| {
            let v = sr.mul(aval, bvals[pos]);
            if prev == Some(col) {
                let last = out_vals.last_mut().expect("prev implies an entry");
                *last = sr.add(*last, v);
            } else {
                out_cols.push(col);
                out_vals.push(v);
                prev = Some(col);
            }
        });
    }

    fn count_row_complemented(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
    ) -> usize {
        if acols.is_empty() {
            return 0;
        }
        let mut prev: Option<Idx> = None;
        let mut count = 0usize;
        self.merge_loop(mcols, acols, avals, b, true, |col, _, _| {
            if prev != Some(col) {
                count += 1;
                prev = Some(col);
            }
        });
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::check_against_reference;
    use sparse::PlusTimes;

    type Heap1 = HeapKernel<PlusTimes<f64>, { ninspect::ONE }>;
    type HeapInf = HeapKernel<PlusTimes<f64>, { ninspect::INF }>;
    type Heap0 = HeapKernel<PlusTimes<f64>, { ninspect::ZERO }>;

    #[test]
    fn heap_ninspect_one_matches_reference() {
        check_against_reference::<Heap1>(false);
    }

    #[test]
    fn heap_ninspect_inf_matches_reference() {
        check_against_reference::<HeapInf>(false);
    }

    #[test]
    fn heap_ninspect_zero_matches_reference() {
        check_against_reference::<Heap0>(false);
    }

    // The paper always uses NInspect = 0 for complemented masks; our
    // complemented path ignores NINSPECT, so all three specializations
    // must agree with the reference.
    #[test]
    fn heap_complemented_matches_reference() {
        check_against_reference::<Heap0>(true);
        check_against_reference::<Heap1>(true);
    }

    #[test]
    fn minheap_pops_sorted() {
        let mut h = MinHeap::<f64>::new();
        for &c in &[5u32, 1, 9, 3, 3, 0, 7] {
            h.push(Entry {
                col: c,
                pos: 0,
                end: 1,
                aval: 0.0,
            });
        }
        let mut cols = Vec::new();
        while let Some(e) = h.pop() {
            cols.push(e.col);
        }
        assert_eq!(cols, vec![0, 1, 3, 3, 5, 7, 9]);
        assert!(h.is_empty());
    }

    #[test]
    fn minheap_clear_reuses_storage() {
        let mut h = MinHeap::<i32>::new();
        h.push(Entry {
            col: 2,
            pos: 0,
            end: 1,
            aval: 1,
        });
        h.clear();
        assert!(h.is_empty());
        assert!(h.pop().is_none());
    }
}
