//! Masked Sparse Accumulator (Section 5.2).
//!
//! Two dense arrays of length `ncols`: `values` and `states`. The state
//! automaton (paper Figure 3) is `NOTALLOWED → ALLOWED → SET`, with
//! `remove` resetting to `NOTALLOWED`. Here the reset is implicit: states
//! are generation-stamped, so advancing the generation invalidates every
//! entry at once.

use sparse::Idx;

/// State encoding: `states[j] == 2·gen` ⇒ ALLOWED, `2·gen + 1` ⇒ SET,
/// anything else ⇒ NOTALLOWED (for the current generation).
#[derive(Debug)]
pub struct Msa<V> {
    values: Vec<V>,
    states: Vec<u32>,
    gen: u32,
}

impl<V: Copy + Default> Msa<V> {
    /// Accumulator for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Msa {
            values: vec![V::default(); ncols],
            states: vec![0u32; ncols],
            gen: 0,
        }
    }

    /// Begin a new output row: `O(1)` except on generation wrap-around.
    #[inline]
    pub fn reset(&mut self) {
        if self.gen >= u32::MAX / 2 - 1 {
            self.states.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    #[inline(always)]
    fn allowed_stamp(&self) -> u32 {
        2 * self.gen
    }

    #[inline(always)]
    fn set_stamp(&self) -> u32 {
        2 * self.gen + 1
    }

    /// Mark `key` as permitted by the mask (NOTALLOWED → ALLOWED).
    /// A no-op on SET keys — the automaton has no SET → ALLOWED edge
    /// (Figure 3), so a repeated mask entry must not discard a value.
    #[inline(always)]
    pub fn set_allowed(&mut self, key: Idx) {
        let k = key as usize;
        if self.states[k] != self.set_stamp() {
            self.states[k] = self.allowed_stamp();
        }
    }

    /// Insert a product for `key`. The value is produced by `make` only if
    /// the key is allowed (the paper's lazy-lambda argument); subsequent
    /// inserts combine with `add`.
    #[inline(always)]
    pub fn insert_with(&mut self, key: Idx, make: impl FnOnce() -> V, add: impl FnOnce(V, V) -> V) {
        let k = key as usize;
        let s = self.states[k];
        if s == self.set_stamp() {
            self.values[k] = add(self.values[k], make());
        } else if s == self.allowed_stamp() {
            self.values[k] = make();
            self.states[k] = self.set_stamp();
        }
        // NOTALLOWED: discard without evaluating `make` further.
    }

    /// True if at least one product was inserted for `key` this row.
    #[inline(always)]
    pub fn is_set(&self, key: Idx) -> bool {
        self.states[key as usize] == self.set_stamp()
    }

    /// Pattern-only insert for the symbolic phase: transition
    /// ALLOWED → SET without touching values. Returns `true` on the first
    /// transition (i.e., this key contributes one output entry).
    #[inline(always)]
    pub fn mark_set(&mut self, key: Idx) -> bool {
        let k = key as usize;
        if self.states[k] == self.allowed_stamp() {
            self.states[k] = self.set_stamp();
            true
        } else {
            false
        }
    }

    /// Accumulated value for `key` if any product was inserted.
    /// (The generation reset makes the explicit per-key remove of the paper
    /// unnecessary; `reset` removes everything at once.)
    #[inline(always)]
    pub fn remove(&self, key: Idx) -> Option<V> {
        if self.is_set(key) {
            Some(self.values[key as usize])
        } else {
            None
        }
    }
}

/// Complemented-mask MSA (Section 5.2, last paragraph): the default state is
/// `ALLOWED`; `set_not_allowed` marks mask entries; an `inserted` list
/// records SET keys so the gather step visits only them.
///
/// Stamping every mask entry costs `O(nnz(m))` per row even when the row
/// touches a handful of keys. The `in_mask` probes of
/// [`MsaComplement::insert_with`] and [`MsaComplement::mark_set`] stamp the
/// mask lazily instead: a key with no state yet this row is looked up in
/// the mask once, on first touch, and stamped `NOTALLOWED` or `SET`; later
/// touches read the stamp. A masked key still never evaluates its product,
/// and allowed keys see the same products in the same order, so both ways
/// give the same bits.
#[derive(Debug)]
pub struct MsaComplement<V> {
    values: Vec<V>,
    states: Vec<u32>,
    gen: u32,
    inserted: Vec<Idx>,
}

impl<V: Copy + Default> MsaComplement<V> {
    /// Accumulator for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        MsaComplement {
            values: vec![V::default(); ncols],
            states: vec![0u32; ncols],
            gen: 0,
            inserted: Vec::new(),
        }
    }

    /// Begin a new output row.
    #[inline]
    pub fn reset(&mut self) {
        if self.gen >= u32::MAX / 2 - 1 {
            self.states.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.inserted.clear();
    }

    #[inline(always)]
    fn notallowed_stamp(&self) -> u32 {
        2 * self.gen
    }

    #[inline(always)]
    fn set_stamp(&self) -> u32 {
        2 * self.gen + 1
    }

    /// Mark `key` as masked out (mask entries forbid output under ¬M).
    #[inline(always)]
    pub fn set_not_allowed(&mut self, key: Idx) {
        self.states[key as usize] = self.notallowed_stamp();
    }

    /// Insert a product for `key` unless the key is masked out. A key with
    /// no state yet this row asks `in_mask` once, and is stamped
    /// `NOTALLOWED` (its product never made) if the mask names it; an
    /// eagerly stamped row passes `|| false`.
    #[inline(always)]
    pub fn insert_with(
        &mut self,
        key: Idx,
        in_mask: impl FnOnce() -> bool,
        make: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) {
        let k = key as usize;
        let s = self.states[k];
        if s == self.set_stamp() {
            self.values[k] = add(self.values[k], make());
        } else if s != self.notallowed_stamp() {
            if in_mask() {
                self.states[k] = self.notallowed_stamp();
            } else {
                self.values[k] = make();
                self.states[k] = self.set_stamp();
                self.inserted.push(key);
            }
        }
    }

    /// Pattern-only insert for the symbolic phase (complemented mask),
    /// asking `in_mask` as [`MsaComplement::insert_with`] does.
    #[inline(always)]
    pub fn mark_set(&mut self, key: Idx, in_mask: impl FnOnce() -> bool) {
        let k = key as usize;
        let s = self.states[k];
        if s != self.set_stamp() && s != self.notallowed_stamp() {
            if in_mask() {
                self.states[k] = self.notallowed_stamp();
            } else {
                self.states[k] = self.set_stamp();
                self.inserted.push(key);
            }
        }
    }

    /// Keys inserted this row, in insertion order (not sorted).
    #[inline]
    pub fn inserted(&self) -> &[Idx] {
        &self.inserted
    }

    /// Sort the inserted-key list (output rows must be emitted in column
    /// order) and return it.
    #[inline]
    pub fn sorted_inserted(&mut self) -> &[Idx] {
        self.inserted.sort_unstable();
        &self.inserted
    }

    /// Accumulated value for `key` (valid only for keys in `inserted`).
    #[inline(always)]
    pub fn value(&self, key: Idx) -> V {
        debug_assert_eq!(self.states[key as usize], self.set_stamp());
        self.values[key as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msa_state_machine() {
        let mut m = Msa::<f64>::new(8);
        m.reset();
        // NOTALLOWED by default: insert discarded, make not evaluated.
        let mut evaluated = false;
        m.insert_with(
            3,
            || {
                evaluated = true;
                1.0
            },
            |a, b| a + b,
        );
        assert!(
            !evaluated,
            "lazy value must not be evaluated when masked out"
        );
        assert_eq!(m.remove(3), None);

        m.set_allowed(3);
        assert_eq!(m.remove(3), None, "ALLOWED but nothing inserted yet");
        m.insert_with(3, || 2.0, |a, b| a + b);
        m.insert_with(3, || 5.0, |a, b| a + b);
        assert_eq!(m.remove(3), Some(7.0));
    }

    #[test]
    fn msa_reset_invalidates() {
        let mut m = Msa::<i64>::new(4);
        m.reset();
        m.set_allowed(0);
        m.insert_with(0, || 9, |a, b| a + b);
        assert_eq!(m.remove(0), Some(9));
        m.reset();
        assert_eq!(m.remove(0), None);
        // A stale SET stamp from the previous generation must not read as
        // ALLOWED in the new one.
        m.insert_with(0, || 1, |a, b| a + b);
        assert_eq!(m.remove(0), None);
    }

    #[test]
    fn msa_generation_wraparound() {
        let mut m = Msa::<i64>::new(2);
        m.gen = u32::MAX / 2 - 1; // force the wrap path
        m.reset();
        assert_eq!(m.gen, 1);
        m.set_allowed(1);
        m.insert_with(1, || 5, |a, b| a + b);
        assert_eq!(m.remove(1), Some(5));
    }

    #[test]
    fn complement_default_allowed() {
        let mut m = MsaComplement::<f64>::new(8);
        m.reset();
        m.set_not_allowed(2);
        m.insert_with(2, || false, || 1.0, |a, b| a + b);
        m.insert_with(5, || false, || 2.0, |a, b| a + b);
        m.insert_with(5, || false, || 3.0, |a, b| a + b);
        m.insert_with(0, || false, || 4.0, |a, b| a + b);
        assert_eq!(m.sorted_inserted(), &[0, 5]);
        assert_eq!(m.value(5), 5.0);
        assert_eq!(m.value(0), 4.0);
    }

    #[test]
    fn complement_lazy_probe_asks_once_per_key() {
        let mask = [2u32, 6];
        let mut asked = Vec::new();
        let mut m = MsaComplement::<f64>::new(8);
        m.reset();
        for (key, v) in [(2, 1.0), (5, 2.0), (2, 4.0), (5, 3.0), (0, 4.0)] {
            let mut made = false;
            m.insert_with(
                key,
                || {
                    asked.push(key);
                    mask.contains(&key)
                },
                || {
                    made = true;
                    v
                },
                |a, b| a + b,
            );
            assert_eq!(made, !mask.contains(&key), "key {key}");
        }
        assert_eq!(asked, vec![2, 5, 0], "one probe per distinct key");
        assert_eq!(m.sorted_inserted(), &[0, 5]);
        assert_eq!((m.value(5), m.value(0)), (5.0, 4.0));
        // The symbolic pass probes the same way.
        m.reset();
        for key in [6, 1, 6, 1] {
            m.mark_set(key, || mask.contains(&key));
        }
        assert_eq!(m.inserted(), &[1]);
    }

    #[test]
    fn complement_reset_clears_inserted() {
        let mut m = MsaComplement::<i32>::new(4);
        m.reset();
        m.insert_with(1, || false, || 1, |a, b| a + b);
        assert_eq!(m.inserted().len(), 1);
        m.reset();
        assert!(m.inserted().is_empty());
        // Stale NOTALLOWED stamps must not leak into the new row.
        m.insert_with(1, || false, || 2, |a, b| a + b);
        assert_eq!(m.value(1), 2);
    }
}
