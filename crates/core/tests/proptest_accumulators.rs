//! Model-based property tests: the MSA and Hash accumulators are driven by
//! random operation sequences and checked step-by-step against a simple
//! `BTreeMap` model of the paper's three-state automaton (Figures 3 and 5).

use std::collections::BTreeMap;

use masked_spgemm::accum::{HashAccum, Mca, Msa, MsaComplement};
use proptest::prelude::*;

/// Operations on a plain-mask accumulator.
#[derive(Clone, Debug)]
enum Op {
    SetAllowed(u32),
    Insert(u32, i64),
    Remove(u32),
    Reset,
}

fn op_strategy(key_space: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space).prop_map(Op::SetAllowed),
        ((0..key_space), -100i64..100).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space).prop_map(Op::Remove),
        Just(Op::Reset),
    ]
}

/// The model: ALLOWED keys with no value = `Some(None)`; SET keys =
/// `Some(Some(total))`; NOTALLOWED = absent.
#[derive(Default)]
struct Model {
    state: BTreeMap<u32, Option<i64>>,
}

impl Model {
    fn set_allowed(&mut self, k: u32) {
        self.state.entry(k).or_insert(None);
    }

    fn insert(&mut self, k: u32, v: i64) {
        if let Some(slot) = self.state.get_mut(&k) {
            *slot = Some(slot.unwrap_or(0) + v);
        }
    }

    fn remove(&self, k: u32) -> Option<i64> {
        self.state.get(&k).copied().flatten()
    }

    fn reset(&mut self) {
        self.state.clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn msa_matches_model(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        let mut acc = Msa::<i64>::new(24);
        acc.reset();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::SetAllowed(k) => {
                    // setAllowed must not clobber a SET value — the
                    // automaton has no SET -> ALLOWED edge (Figure 3).
                    model.set_allowed(k);
                    acc.set_allowed(k);
                }
                Op::Insert(k, v) => {
                    model.insert(k, v);
                    acc.insert_with(k, || v, |a, b| a + b);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(acc.remove(k), model.remove(k), "key {}", k);
                }
                Op::Reset => {
                    model.reset();
                    acc.reset();
                }
            }
        }
        for k in 0..24 {
            prop_assert_eq!(acc.remove(k), model.remove(k), "final key {}", k);
        }
    }

    #[test]
    fn hash_matches_model(ops in proptest::collection::vec(op_strategy(24), 1..120)) {
        // Table sized for up to 24 allowed keys per row.
        let mut acc = HashAccum::<i64>::new(24);
        acc.reset(24);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::SetAllowed(k) => {
                    model.set_allowed(k);
                    acc.set_allowed(k);
                }
                Op::Insert(k, v) => {
                    model.insert(k, v);
                    acc.insert_with(k, || v, |a, b| a + b);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(acc.remove(k), model.remove(k), "key {}", k);
                }
                Op::Reset => {
                    model.reset();
                    acc.reset(24);
                }
            }
        }
        for k in 0..24 {
            prop_assert_eq!(acc.remove(k), model.remove(k), "final key {}", k);
        }
    }

    #[test]
    fn msa_complement_matches_model(
        not_allowed in proptest::collection::btree_set(0u32..24, 0..12),
        inserts in proptest::collection::vec(((0u32..24), -100i64..100), 0..80),
    ) {
        // Model: everything except `not_allowed` is insertable.
        let mut model: BTreeMap<u32, i64> = BTreeMap::new();
        for &(k, v) in &inserts {
            if !not_allowed.contains(&k) {
                *model.entry(k).or_insert(0) += v;
            }
        }
        let model_keys: Vec<u32> = model.keys().copied().collect();
        // The mask stamped up front, or probed lazily per touched key.
        let mut acc = MsaComplement::<i64>::new(24);
        for lazy in [false, true] {
            acc.reset();
            if !lazy {
                for &k in &not_allowed {
                    acc.set_not_allowed(k);
                }
            }
            for &(k, v) in &inserts {
                acc.insert_with(k, || lazy && not_allowed.contains(&k), || v, |a, b| a + b);
            }
            let keys: Vec<u32> = acc.sorted_inserted().to_vec();
            prop_assert_eq!(&keys, &model_keys, "lazy {}", lazy);
            for k in keys {
                prop_assert_eq!(acc.value(k), model[&k]);
            }
        }
    }

    #[test]
    fn mca_matches_dense_slots(
        inserts in proptest::collection::vec(((0usize..16), -100i64..100), 0..64),
    ) {
        let mut acc = Mca::<i64>::new(16);
        acc.reset();
        let mut model = [None::<i64>; 16];
        for &(rank, v) in &inserts {
            model[rank] = Some(model[rank].unwrap_or(0) + v);
            acc.insert(rank, v, |a, b| a + b);
        }
        for (rank, expect) in model.iter().enumerate() {
            prop_assert_eq!(acc.remove(rank), *expect, "rank {}", rank);
        }
        // Reset invalidates everything in O(1).
        acc.reset();
        for rank in 0..16 {
            prop_assert_eq!(acc.remove(rank), None);
        }
    }
}
