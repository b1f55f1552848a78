//! Property test of the complemented push kernels — MSA, Heap and Hash —
//! at one and two phases. Mask rows are empty, of one entry, nearly full
//! and full, under frontiers on both sides of the MSA's lazy-stamping
//! threshold ([`complemented_mask_cost`]). Every result equals the dense
//! reference bit for bit, and every kernel's symbolic count of a row equals
//! the length of the one-phase row.

use std::collections::BTreeSet;

use masked_spgemm::algos::{ninspect, HashKernel, HeapKernel, MsaKernel};
use masked_spgemm::hybrid::{complemented_mask_cost, row_flops};
use masked_spgemm::kernel::RowKernel;
use masked_spgemm::{masked_spgemm, Algorithm, Phases};
use proptest::prelude::*;
use sparse::dense::reference_masked_spgemm;
use sparse::{CsrMatrix, Idx, PlusTimes};

type Sr = PlusTimes<f64>;

const SIDE: usize = 16;
const N: usize = SIDE * SIDE;

/// A 16 × 16 grid whose values are multiples of 1/4, so every sum of
/// products is exact whatever order a kernel adds in.
fn weighted_grid() -> CsrMatrix<f64> {
    let g = graphs::grid2d(SIDE, SIDE);
    let vals = (0..g.nnz()).map(|e| 0.25 * (1 + e % 7) as f64).collect();
    CsrMatrix::try_new(N, N, g.rowptr().to_vec(), g.colidx().to_vec(), vals).unwrap()
}

/// One mask row: 0 empty, 1 one entry, 2 all but the holes, 3 full.
fn mask_row(kind: usize, holes: &BTreeSet<Idx>) -> Vec<Idx> {
    match kind {
        0 => Vec::new(),
        1 => vec![*holes.iter().next().expect("at least one hole")],
        2 => (0..N as Idx).filter(|j| !holes.contains(j)).collect(),
        _ => (0..N as Idx).collect(),
    }
}

fn csr_of_rows<T: Copy>(rows: &[Vec<Idx>], val: impl Fn(Idx) -> T) -> CsrMatrix<T> {
    let mut rowptr = vec![0];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for row in rows {
        cols.extend_from_slice(row);
        vals.extend(row.iter().map(|&j| val(j)));
        rowptr.push(cols.len());
    }
    CsrMatrix::try_new(rows.len(), N, rowptr, cols, vals).unwrap()
}

fn bits(m: &CsrMatrix<f64>) -> (Vec<usize>, Vec<Idx>, Vec<u64>) {
    let vals = m.values().iter().map(|v| v.to_bits()).collect();
    (m.rowptr().to_vec(), m.colidx().to_vec(), vals)
}

/// A kernel's complemented symbolic count of every row.
fn counts<K: RowKernel<Sr>>(
    mask: &CsrMatrix<()>,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
) -> Vec<usize> {
    let mut kernel = K::new(N, mask.max_row_nnz());
    (0..a.nrows())
        .map(|i| {
            let (ac, av) = a.row(i);
            kernel.count_row_complemented(mask.row(i).0, ac, av, b)
        })
        .collect()
}

/// Check every complemented push kernel on one `(frontier, mask row)` per
/// output row, and return how many rows the MSA stamps lazily.
fn check(rows: &[(Vec<Idx>, Vec<Idx>)]) -> usize {
    let (sr, b) = (Sr::new(), weighted_grid());
    let frontiers: Vec<Vec<Idx>> = rows.iter().map(|r| r.0.clone()).collect();
    let masks: Vec<Vec<Idx>> = rows.iter().map(|r| r.1.clone()).collect();
    let a = csr_of_rows(&frontiers, |j| 0.5 + 0.25 * f64::from(j % 5));
    let mask = csr_of_rows(&masks, |_| ());
    let expect = reference_masked_spgemm(sr, &mask, true, &a, &b);
    for alg in [Algorithm::Msa, Algorithm::Heap, Algorithm::Hash] {
        for ph in Phases::ALL {
            let got = masked_spgemm(alg, ph, true, sr, &mask, &a, &b).unwrap();
            assert_eq!(bits(&got), bits(&expect), "{alg:?}-{}", ph.suffix());
        }
    }
    let nnz: Vec<usize> = (0..a.nrows()).map(|i| expect.row_nnz(i)).collect();
    assert_eq!(counts::<MsaKernel<Sr>>(&mask, &a, &b), nnz, "MSA count");
    assert_eq!(
        counts::<HeapKernel<Sr, { ninspect::ONE }>>(&mask, &a, &b),
        nnz,
        "Heap count"
    );
    assert_eq!(counts::<HashKernel<Sr>>(&mask, &a, &b), nnz, "Hash count");
    rows.iter()
        .filter(|(frontier, mask)| {
            let f = row_flops(frontier, |k| b.row_nnz(k));
            complemented_mask_cost(mask.len(), f) < mask.len() as u64
        })
        .count()
}

/// Every mask kind under a one-vertex frontier (lazy under a long mask
/// row) and a 40-vertex one (eager): both sides of the threshold.
#[test]
fn both_sides_of_the_lazy_threshold() {
    let holes: BTreeSet<Idx> = [3, 17, 200].into();
    let wide: Vec<Idx> = (0..N as Idx).step_by(6).take(40).collect();
    let rows: Vec<(Vec<Idx>, Vec<Idx>)> = (0..4)
        .flat_map(|kind| [(vec![18], kind), (wide.clone(), kind)])
        .map(|(frontier, kind)| (frontier, mask_row(kind, &holes)))
        .collect();
    // Lazy: the one-vertex frontier under the nearly full and full rows.
    assert_eq!(check(&rows), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn complemented_kernels_match_the_reference(
        rows in proptest::collection::vec(
            (
                proptest::collection::btree_set(0u32..N as u32, 1..48),
                0usize..4,
                proptest::collection::btree_set(0u32..N as u32, 1..6),
            ),
            4..10,
        ),
    ) {
        let rows: Vec<(Vec<Idx>, Vec<Idx>)> = rows
            .iter()
            .map(|(frontier, kind, holes)| (frontier.iter().copied().collect(), mask_row(*kind, holes)))
            .collect();
        check(&rows);
    }
}
