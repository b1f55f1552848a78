//! Integration tests for the extension features: the adaptive hybrid
//! scheme, vector-level masked SpGEVM and direction-optimized BFS —
//! exercised together on generator output.

use graph_algos::{bfs, Direction, Scheme};
use masked_spgemm::{
    hybrid_choices, hybrid_masked_spgemm, masked_spgevm, Algorithm, HybridConfig, Phases,
};
use sparse::dense::reference_masked_spgemm;
use sparse::semiring::BoolAndOr;
use sparse::{CscMatrix, PlusTimes, SparseVec};

#[test]
fn hybrid_matches_fixed_schemes_across_density_grid() {
    let sr = PlusTimes::<f64>::new();
    let n = 256;
    for (deg_in, deg_m) in [(2.0, 64.0), (16.0, 16.0), (48.0, 2.0)] {
        let a = graphs::erdos_renyi(n, deg_in, 1);
        let b = graphs::erdos_renyi(n, deg_in, 2);
        let m = graphs::erdos_renyi(n, deg_m, 3).pattern();
        let bc = CscMatrix::from_csr(&b);
        let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
        for ph in Phases::ALL {
            let got =
                hybrid_masked_spgemm(ph, HybridConfig::default(), sr, &m, &a, &b, &bc).unwrap();
            assert_eq!(got, expect, "deg_in={deg_in} deg_m={deg_m} {ph:?}");
        }
    }
}

#[test]
fn hybrid_choice_distribution_tracks_regime() {
    let n = 512;
    let cfg = HybridConfig::default();
    // Dense inputs + near-empty mask: dots should dominate.
    let a = graphs::erdos_renyi(n, 48.0, 4);
    let m = graphs::erdos_renyi(n, 1.0, 5).pattern();
    let choices = hybrid_choices(cfg, &m, &a, &a);
    let dots = choices
        .iter()
        .filter(|c| matches!(c, masked_spgemm::hybrid::RowChoice::Inner))
        .count();
    let nonempty = choices
        .iter()
        .filter(|c| !matches!(c, masked_spgemm::hybrid::RowChoice::Empty))
        .count();
    assert!(
        dots * 2 > nonempty,
        "sparse mask regime picked only {dots}/{nonempty} dot rows"
    );
}

#[test]
fn spgevm_rows_compose_to_spgemm() {
    // Running masked SpGEVM row by row must reproduce masked SpGEMM —
    // the paper's Section 5 equivalence, verified literally.
    let sr = PlusTimes::<f64>::new();
    let a = graphs::erdos_renyi(40, 5.0, 6);
    let b = graphs::erdos_renyi(40, 5.0, 7);
    let m = graphs::erdos_renyi(40, 8.0, 8).pattern();
    let whole =
        masked_spgemm::masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &m, &a, &b).unwrap();
    for i in 0..a.nrows() {
        let (mc, _) = m.row(i);
        let (ac, av) = a.row(i);
        let u = SparseVec::try_new(40, ac.to_vec(), av.to_vec()).unwrap();
        let mv = SparseVec::try_new(40, mc.to_vec(), vec![(); mc.len()]).unwrap();
        let v = masked_spgevm(Algorithm::Msa, false, sr, &mv, &u, &b).unwrap();
        let (wc, wv) = whole.row(i);
        assert_eq!(v.indices(), wc, "row {i}");
        assert_eq!(v.values(), wv, "row {i}");
    }
}

#[test]
fn bfs_consistent_across_schemes_and_graph_families() {
    for g in graphs::suite().iter().filter(|g| g.nvertices() <= 1 << 10) {
        let adj = g.build();
        let expect = graph_algos::bfs::bfs_reference(&adj, 0);
        for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
            assert_eq!(bfs(&adj, 0, policy).levels, expect, "{} {policy:?}", g.name);
        }
    }
}

#[test]
fn bfs_visited_mask_uses_boolean_semiring() {
    // The frontier expansion with BoolAndOr never produces values other
    // than `true`; depth equals eccentricity on a star.
    let mut coo = sparse::CooMatrix::new(9, 9);
    for l in 1..9u32 {
        coo.push(0, l, 1.0);
        coo.push(l, 0, 1.0);
    }
    let star = coo.to_csr();
    let r = bfs(&star, 3, Direction::Auto);
    assert_eq!(r.depth, 2);
    assert_eq!(r.levels[0], 1);
    assert_eq!(r.levels[3], 0);
    assert!(r.levels.iter().filter(|&&l| l == 2).count() == 7);
    let _ = BoolAndOr; // semiring used inside bfs
}

#[test]
fn hybrid_in_applications() {
    // The hybrid scheme plugs into TC and k-truss like any fixed scheme.
    let adj = graphs::to_undirected_simple(&graphs::rmat(8, graphs::RmatParams::default(), 11));
    let l = graph_algos::prepare_triangle_input(&adj);
    let lc = CscMatrix::from_csr(&l);
    let expect = graph_algos::reference::triangle_count_reference(&adj);
    assert_eq!(
        graph_algos::triangle_count(Scheme::Hybrid, &l, &lc).unwrap(),
        expect
    );
    let kt_expect = graph_algos::reference::ktruss_reference(&adj, 5);
    let kt = graph_algos::ktruss(Scheme::Hybrid, &adj, 5).unwrap();
    assert_eq!(kt.truss.pattern(), kt_expect.pattern());
}
