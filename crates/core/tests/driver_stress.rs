//! Stress and corner-case tests for the parallel drivers: degenerate
//! shapes, pathological skew (one hub row), repeated-run determinism.

use masked_spgemm::{masked_spgemm, Algorithm, Phases};
use sparse::dense::reference_masked_spgemm;
use sparse::{CooMatrix, CsrMatrix, PlusTimes};

fn all_combos() -> Vec<(Algorithm, Phases, bool)> {
    let mut v = Vec::new();
    for alg in Algorithm::ALL {
        for ph in Phases::ALL {
            for compl in [false, true] {
                if compl && !alg.supports_complement() {
                    continue;
                }
                v.push((alg, ph, compl));
            }
        }
    }
    v
}

fn check_all(mask: &CsrMatrix<()>, a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, label: &str) {
    let sr = PlusTimes::<f64>::new();
    // The dense reference depends only on the polarity: compute it once
    // per polarity, not once per combo.
    let expect = [false, true].map(|compl| reference_masked_spgemm(sr, mask, compl, a, b));
    for (alg, ph, compl) in all_combos() {
        let got = masked_spgemm(alg, ph, compl, sr, mask, a, b).unwrap();
        assert_eq!(
            got, expect[compl as usize],
            "{label}: {alg:?} {ph:?} compl={compl}"
        );
    }
}

#[test]
fn zero_row_matrices() {
    let a = CsrMatrix::<f64>::empty(0, 5);
    let b = CsrMatrix::<f64>::empty(5, 3);
    let m = CsrMatrix::<()>::empty(0, 3);
    check_all(&m, &a, &b, "zero rows");
}

#[test]
fn zero_column_output() {
    let a = CsrMatrix::<f64>::empty(3, 5);
    let b = CsrMatrix::<f64>::empty(5, 0);
    let m = CsrMatrix::<()>::empty(3, 0);
    check_all(&m, &a, &b, "zero cols");
}

#[test]
fn single_hub_row_dominates() {
    // Row 0 of A has 512 entries; all others one entry. Exercises chunk
    // load imbalance and per-row accumulator sizing in one go.
    let n = 513;
    let mut a = CooMatrix::new(n, n);
    for j in 0..512u32 {
        a.push(0, j, (j + 1) as f64);
    }
    for i in 1..n as u32 {
        a.push(i, i - 1, 2.0);
    }
    let a = a.to_csr();
    let mut b = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        b.push(i, (i * 7) % n as u32, 3.0);
    }
    let b = b.to_csr();
    let mut m = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        for d in 0..4u32 {
            m.push(i, (i + d * 131) % n as u32, ());
        }
    }
    let m = m.to_csr();
    check_all(&m, &a, &b, "hub row");
}

#[test]
fn dense_single_column_b() {
    // Every row of B points at column 0: maximal accumulator collisions.
    let n = 64;
    let mut b = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        b.push(i, 0, 1.0 + i as f64);
    }
    let b = b.to_csr();
    let a = graphs::erdos_renyi(n, 8.0, 1);
    let mut m = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        m.push(i, 0, ());
        m.push(i, 1, ());
    }
    let m = m.to_csr();
    check_all(&m, &a, &b, "single column");
}

#[test]
fn full_mask_equals_plain_spgemm() {
    // A completely dense mask reduces Masked SpGEMM to plain SpGEMM.
    let n = 24;
    let a = graphs::erdos_renyi(n, 6.0, 2);
    let b = graphs::erdos_renyi(n, 6.0, 3);
    let mut m = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            m.push(i, j, ());
        }
    }
    let m = m.to_csr();
    let sr = PlusTimes::<f64>::new();
    let plain = baselines::plain_spgemm(sr, &a, &b);
    for alg in Algorithm::ALL {
        let got = masked_spgemm(alg, Phases::One, false, sr, &m, &a, &b).unwrap();
        assert_eq!(got, plain, "{alg:?} with full mask");
    }
    // Complement of a full mask is empty.
    let got = masked_spgemm(Algorithm::Msa, Phases::One, true, sr, &m, &a, &b).unwrap();
    assert_eq!(got.nnz(), 0);
}

#[test]
fn repeated_runs_are_bitwise_deterministic() {
    let a = graphs::erdos_renyi(200, 10.0, 4);
    let b = graphs::erdos_renyi(200, 10.0, 5);
    let m = graphs::erdos_renyi(200, 20.0, 6).pattern();
    let sr = PlusTimes::<f64>::new();
    for alg in Algorithm::ALL {
        let first = masked_spgemm(alg, Phases::One, false, sr, &m, &a, &b).unwrap();
        for _ in 0..3 {
            let again = masked_spgemm(alg, Phases::One, false, sr, &m, &a, &b).unwrap();
            assert_eq!(again, first, "{alg:?} nondeterministic");
        }
    }
}

#[test]
fn mask_wider_than_any_b_row() {
    // Mask rows denser than B rows: gather dominates; MCA rank arrays at
    // their maximum size.
    let n = 48;
    let a = graphs::erdos_renyi(n, 2.0, 7);
    let b = graphs::erdos_renyi(n, 2.0, 8);
    let mut m = CooMatrix::new(n, n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if (i + j) % 2 == 0 {
                m.push(i, j, ());
            }
        }
    }
    check_all(&m.to_csr(), &a, &b, "wide mask");
}
