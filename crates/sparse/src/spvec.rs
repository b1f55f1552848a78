//! Sparse vectors — the `u`, `m`, `v` of the paper's Masked SpGEVM framing
//! (Section 5 describes every algorithm as a masked sparse vector-matrix
//! product; `masked_spgemm::spgevm` exposes that operation directly, e.g.
//! for frontier-based traversals).

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::index::{Idx, MAX_DIM};

/// A sparse vector: sorted indices + values, with an explicit dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T> {
    dim: usize,
    idx: Vec<Idx>,
    vals: Vec<T>,
}

impl<T> SparseVec<T> {
    /// Construct from sorted parts, validating the invariants
    /// (strictly increasing, in-range indices; matching lengths).
    pub fn try_new(dim: usize, idx: Vec<Idx>, vals: Vec<T>) -> Result<Self, SparseError> {
        if dim > MAX_DIM {
            return Err(SparseError::DimensionTooLarge { dim });
        }
        if idx.len() != vals.len() {
            return Err(SparseError::ValueLength {
                expected: idx.len(),
                got: vals.len(),
            });
        }
        let mut prev: Option<Idx> = None;
        for &j in &idx {
            if (j as usize) >= dim {
                return Err(SparseError::IndexOutOfRange {
                    row: 0,
                    index: j,
                    dim,
                });
            }
            if let Some(p) = prev {
                if j <= p {
                    return Err(SparseError::UnsortedRow { row: 0 });
                }
            }
            prev = Some(j);
        }
        Ok(SparseVec { dim, idx, vals })
    }

    /// The empty vector of the given dimension.
    pub fn empty(dim: usize) -> Self {
        SparseVec {
            dim,
            idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Dimension (number of addressable positions).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Sorted indices of stored entries.
    #[inline]
    pub fn indices(&self) -> &[Idx] {
        &self.idx
    }

    /// Values of stored entries (parallel to [`SparseVec::indices`]).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Value at `j` via binary search.
    pub fn get(&self, j: Idx) -> Option<&T> {
        self.idx.binary_search(&j).ok().map(|p| &self.vals[p])
    }

    /// Iterate `(index, &value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, &T)> + '_ {
        self.idx.iter().copied().zip(self.vals.iter())
    }

    /// Pattern-only copy.
    pub fn pattern(&self) -> SparseVec<()> {
        SparseVec {
            dim: self.dim,
            idx: self.idx.clone(),
            vals: vec![(); self.idx.len()],
        }
    }

    /// Decompose into `(dim, indices, values)`.
    pub fn into_parts(self) -> (usize, Vec<Idx>, Vec<T>) {
        (self.dim, self.idx, self.vals)
    }

    /// Map values, keeping the pattern.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> SparseVec<U> {
        SparseVec {
            dim: self.dim,
            idx: self.idx.clone(),
            vals: self.vals.iter().map(f).collect(),
        }
    }

    /// This vector as the one row of a `1 × dim` matrix. The entries move,
    /// uncopied; [`SparseVec::from_row`] is the inverse.
    ///
    /// ```
    /// use sparse::SparseVec;
    /// let v = SparseVec::try_new(5, vec![1, 3], vec![2.0, 4.0]).unwrap();
    /// let row = v.clone().into_row();
    /// assert_eq!((row.shape(), row.get(0, 3)), ((1, 5), Some(&4.0)));
    /// assert_eq!(SparseVec::from_row(row).unwrap(), v);
    /// ```
    pub fn into_row(self) -> CsrMatrix<T> {
        let nnz = self.idx.len();
        CsrMatrix::from_parts_unchecked(1, self.dim, vec![0, nnz], self.idx, self.vals)
    }

    /// The one row of a `1 × n` matrix as a vector of dimension `n`, its
    /// entries moved uncopied. A matrix with another row count is a
    /// [`SparseError::DimMismatch`].
    pub fn from_row(row: CsrMatrix<T>) -> Result<Self, SparseError> {
        if row.nrows() != 1 {
            return Err(SparseError::DimMismatch {
                op: "SparseVec::from_row",
                lhs: row.shape(),
                rhs: (1, row.ncols()),
            });
        }
        let (_, dim, _, idx, vals) = row.into_parts();
        Ok(SparseVec { dim, idx, vals })
    }
}

impl<T: Copy> SparseVec<T> {
    /// Sorted-merge union: entries present in either input. Values present
    /// in both are combined with `both`; single-sided values are copied.
    /// This is the accumulation primitive frontier-style workloads use to
    /// fold a fresh product into a running vector (`visited`, distances).
    ///
    /// ```
    /// use sparse::SparseVec;
    /// let a = SparseVec::try_new(6, vec![0, 3], vec![5i64, 9]).unwrap();
    /// let b = SparseVec::try_new(6, vec![3, 4], vec![2i64, 7]).unwrap();
    /// let m = a.union_with(&b, |x, y| x.min(y));
    /// assert_eq!(m.indices(), &[0, 3, 4]);
    /// assert_eq!(m.values(), &[5, 2, 7]);
    /// ```
    pub fn union_with(&self, other: &SparseVec<T>, both: impl Fn(T, T) -> T) -> SparseVec<T> {
        assert_eq!(self.dim, other.dim, "union_with dimension mismatch");
        let mut idx = Vec::with_capacity(self.idx.len() + other.idx.len());
        let mut vals = Vec::with_capacity(self.idx.len() + other.idx.len());
        let (mut p, mut q) = (0usize, 0usize);
        while p < self.idx.len() || q < other.idx.len() {
            if q >= other.idx.len() || (p < self.idx.len() && self.idx[p] < other.idx[q]) {
                idx.push(self.idx[p]);
                vals.push(self.vals[p]);
                p += 1;
            } else if p >= self.idx.len() || other.idx[q] < self.idx[p] {
                idx.push(other.idx[q]);
                vals.push(other.vals[q]);
                q += 1;
            } else {
                idx.push(self.idx[p]);
                vals.push(both(self.vals[p], other.vals[q]));
                p += 1;
                q += 1;
            }
        }
        SparseVec {
            dim: self.dim,
            idx,
            vals,
        }
    }
}

impl<T: Clone> SparseVec<T> {
    /// Build from unsorted `(index, value)` pairs; duplicates combined with
    /// `combine`.
    pub fn from_pairs(
        dim: usize,
        mut pairs: Vec<(Idx, T)>,
        combine: impl Fn(&T, &T) -> T,
    ) -> Result<Self, SparseError> {
        pairs.sort_by_key(|&(j, _)| j);
        let mut idx: Vec<Idx> = Vec::with_capacity(pairs.len());
        let mut vals: Vec<T> = Vec::with_capacity(pairs.len());
        for (j, v) in pairs {
            if Some(&j) == idx.last() {
                let lv = vals.last_mut().expect("nonempty");
                *lv = combine(lv, &v);
            } else {
                idx.push(j);
                vals.push(v);
            }
        }
        SparseVec::try_new(dim, idx, vals)
    }
}

/// The first position at or after `p` whose index in the sorted list `ai`
/// is not below `j`. A galloping search: skipping a run of `r` entries
/// costs `O(log r)` and finding `j` at `p` itself costs two comparisons,
/// so a cursor walked up a long sorted list by a few sorted probes (a thin
/// frontier merged into a large visited set, a product row tested against
/// a complemented mask row) does not compare against every entry it skips.
///
/// ```
/// use sparse::spvec::skip_below;
/// let visited = [1, 4, 9, 16, 25, 36];
/// assert_eq!(skip_below(&visited, 0, 16), 3);
/// assert_eq!(skip_below(&visited, 3, 17), 4);
/// assert_eq!(skip_below(&visited, 4, 99), 6);
/// ```
pub fn skip_below(ai: &[Idx], p: usize, j: Idx) -> usize {
    let rest = &ai[p..];
    let mut hi = 1;
    while hi < rest.len() && rest[hi] < j {
        hi *= 2;
    }
    // Every entry before `hi / 2` is below `j`.
    let lo = hi / 2;
    p + lo + rest[lo..hi.min(rest.len())].partition_point(|&i| i < j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = SparseVec::try_new(10, vec![1, 4, 7], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(v.dim(), 10);
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(4), Some(&2.0));
        assert_eq!(v.get(5), None);
        let pairs: Vec<(Idx, f64)> = v.iter().map(|(j, &x)| (j, x)).collect();
        assert_eq!(pairs, vec![(1, 1.0), (4, 2.0), (7, 3.0)]);
    }

    #[test]
    fn one_row_conversions_round_trip() {
        let v = SparseVec::try_new(6, vec![0, 2, 5], vec![1i64, -3, 7]).unwrap();
        let row = v.clone().into_row();
        assert_eq!(row.shape(), (1, 6));
        assert_eq!(row.rowptr(), &[0, 3]);
        assert_eq!(row.colidx(), v.indices());
        assert_eq!(SparseVec::from_row(row).unwrap(), v);
        let empty = SparseVec::<bool>::empty(4).into_row();
        assert_eq!((empty.shape(), empty.nnz()), ((1, 4), 0));
        assert!(SparseVec::from_row(CsrMatrix::<f64>::empty(2, 4)).is_err());
    }

    #[test]
    fn validation() {
        assert!(SparseVec::try_new(3, vec![0, 5], vec![1, 2]).is_err()); // range
        assert!(SparseVec::try_new(5, vec![2, 1], vec![1, 2]).is_err()); // order
        assert!(SparseVec::try_new(5, vec![2, 2], vec![1, 2]).is_err()); // dup
        assert!(SparseVec::try_new(5, vec![2], vec![1, 2]).is_err()); // len
    }

    #[test]
    fn from_pairs_sorts_and_combines() {
        let v =
            SparseVec::from_pairs(8, vec![(5, 1.0), (2, 2.0), (5, 10.0)], |a, b| a + b).unwrap();
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 11.0]);
    }

    #[test]
    fn union_with_merges_and_combines() {
        let a = SparseVec::try_new(8, vec![1, 4, 6], vec![1.0, 2.0, 3.0]).unwrap();
        let b = SparseVec::try_new(8, vec![0, 4], vec![9.0, 5.0]).unwrap();
        let u = a.union_with(&b, |x, y| x + y);
        assert_eq!(u.indices(), &[0, 1, 4, 6]);
        assert_eq!(u.values(), &[9.0, 1.0, 7.0, 3.0]);
        let empty = SparseVec::<f64>::empty(8);
        assert_eq!(a.union_with(&empty, |x, _| x), a);
        assert_eq!(empty.union_with(&a, |x, _| x), a);
    }

    #[test]
    fn skip_below_matches_a_linear_scan() {
        let ai: Vec<Idx> = (0..40).map(|i| i * 3 + i % 2).collect();
        for p in 0..=ai.len() {
            for j in 0..130 {
                let linear = p + ai[p..].iter().take_while(|&&i| i < j).count();
                assert_eq!(skip_below(&ai, p, j), linear, "p={p} j={j}");
            }
        }
    }

    #[test]
    fn map_keeps_pattern() {
        let v = SparseVec::try_new(5, vec![1, 3], vec![2.0, -1.0]).unwrap();
        let m = v.map(|&x| x != 0.0);
        assert_eq!(m.indices(), v.indices());
        assert_eq!(m.values(), &[true, true]);
    }

    #[test]
    fn empty_and_pattern() {
        let e = SparseVec::<f64>::empty(4);
        assert!(e.is_empty());
        let v = SparseVec::try_new(4, vec![3], vec![9.0]).unwrap();
        assert_eq!(v.pattern().indices(), &[3]);
    }
}
