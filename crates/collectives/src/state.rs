use std::fmt;
use std::hash::{Hash, Hasher};

use crate::bitset::{iter_word_ones, Bitset};

/// The state of one device: a `k × k` boolean matrix (paper Figure 7).
///
/// The data each device holds is treated as `k` chunks. Row `r` describes
/// chunk `r`: bit `(r, j)` is set when device `j`'s original chunk `r` has
/// been folded into the data this device currently holds. A row with no set
/// bit means the device currently holds no data for that chunk (e.g. after a
/// `ReduceScatter` gave the chunk to a different device).
///
/// The matrix is stored as a single contiguous word buffer — one allocation
/// per state, each row a word-aligned slice — with a cached bitmask of the
/// non-empty rows, so hashing, equality and the semantics pre-condition
/// checks are flat word loops instead of nested pointer chasing.
#[derive(Debug, Clone)]
pub struct State {
    k: usize,
    /// 64-bit words per row (`k.div_ceil(64)`).
    words_per_row: usize,
    /// Row-major word buffer of `k * words_per_row` words.
    words: Box<[u64]>,
    /// Cached non-empty-rows mask: bit `r` is set iff row `r` has a set bit.
    mask: Box<[u64]>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        // `mask` is a function of `words`, so comparing it would be redundant.
        self.k == other.k && self.words == other.words
    }
}

impl Eq for State {}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.k.hash(state);
        self.words.hash(state);
    }
}

impl State {
    /// The empty state (no data at all) for a scope of `k` devices.
    pub fn empty(k: usize) -> Self {
        let words_per_row = k.div_ceil(64);
        State {
            k,
            words_per_row,
            words: vec![0; k * words_per_row].into_boxed_slice(),
            mask: vec![0; words_per_row].into_boxed_slice(),
        }
    }

    /// The initial state of device `device`: it holds its own copy of every
    /// chunk and nothing else (column `device` is all ones).
    ///
    /// # Panics
    ///
    /// Panics if `device >= k`.
    pub fn initial(k: usize, device: usize) -> Self {
        assert!(device < k, "device {device} out of range {k}");
        let mut s = State::empty(k);
        for r in 0..k {
            s.set(r, device, true);
        }
        s
    }

    /// The goal state of a full reduction over all `k` devices: every chunk
    /// has been reduced over every device (the all-ones matrix).
    pub fn goal(k: usize) -> Self {
        let mut s = State::empty(k);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        for w in s.mask.iter_mut() {
            *w = u64::MAX;
        }
        s.clear_row_slack();
        s.clear_mask_slack();
        s
    }

    /// Zeroes the bits above `k` in every row's last word.
    fn clear_row_slack(&mut self) {
        if self.k.is_multiple_of(64) || self.words_per_row == 0 {
            return;
        }
        let keep = (1u64 << (self.k % 64)) - 1;
        for r in 0..self.k {
            self.words[(r + 1) * self.words_per_row - 1] &= keep;
        }
    }

    /// Zeroes the bits above `k` in the mask's last word.
    fn clear_mask_slack(&mut self) {
        if !self.k.is_multiple_of(64) {
            if let Some(last) = self.mask.last_mut() {
                *last &= (1u64 << (self.k % 64)) - 1;
            }
        }
    }

    /// Number of devices in the reduction scope (the matrix dimension).
    pub fn dim(&self) -> usize {
        self.k
    }

    /// The raw row-major word buffer (`k * k.div_ceil(64)` words, each row
    /// padded to a word boundary with clear slack bits). Together with
    /// [`dim`](State::dim) this is the state's entire identity — the table
    /// store serializes exactly these words.
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a state from [`dim`](State::dim) and the
    /// [`raw_words`](State::raw_words) buffer, the inverse of serialization.
    /// Slack bits above `k` are cleared and the non-empty-rows mask is
    /// recomputed, so a round-tripped state is bit-identical to the original
    /// even if the input words carried junk slack.
    ///
    /// Returns `None` when `words` is not exactly `k * k.div_ceil(64)` long,
    /// or when that length overflows `usize` (a corrupt dimension).
    pub fn from_raw_words(k: usize, words: Vec<u64>) -> Option<State> {
        let words_per_row = k.div_ceil(64);
        if words.len() != k.checked_mul(words_per_row)? {
            return None;
        }
        let mut state = State {
            k,
            words_per_row,
            words: words.into_boxed_slice(),
            mask: vec![0; words_per_row].into_boxed_slice(),
        };
        state.clear_row_slack();
        for r in 0..k {
            if !state.row_words(r).iter().all(|&w| w == 0) {
                state.mask[r / 64] |= 1 << (r % 64);
            }
        }
        Some(state)
    }

    /// A read-only view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= k`.
    pub fn row(&self, r: usize) -> Row<'_> {
        Row {
            len: self.k,
            words: self.row_words(r),
        }
    }

    /// The words of row `r`.
    pub(crate) fn row_words(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable access to the words of row `r`. The caller must keep the
    /// cached non-empty-rows mask consistent: only use this for edits that
    /// cannot empty a non-empty row or fill an empty one (e.g. OR-ing into a
    /// row already known non-empty).
    pub(crate) fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The cached non-empty-rows mask words.
    pub(crate) fn mask_words(&self) -> &[u64] {
        &self.mask
    }

    /// Sets a single bit of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.k, "row index {row} out of range {}", self.k);
        assert!(col < self.k, "column index {col} out of range {}", self.k);
        let word = row * self.words_per_row + col / 64;
        let bit = 1u64 << (col % 64);
        if value {
            self.words[word] |= bit;
            self.mask[row / 64] |= 1 << (row % 64);
        } else {
            self.words[word] &= !bit;
            if self.row_words(row).iter().all(|&w| w == 0) {
                self.mask[row / 64] &= !(1u64 << (row % 64));
            }
        }
    }

    /// Reads a single bit of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.k, "row index {row} out of range {}", self.k);
        assert!(col < self.k, "column index {col} out of range {}", self.k);
        (self.words[row * self.words_per_row + col / 64] >> (col % 64)) & 1 == 1
    }

    /// The indices of the non-empty rows — the chunks this device currently
    /// holds data for ("`rows`" in the paper's semantics).
    pub fn nonempty_rows(&self) -> Vec<usize> {
        iter_word_ones(&self.mask).collect()
    }

    /// The set of non-empty row indices as a bitset (a copy of the cached
    /// mask).
    pub fn rows_mask(&self) -> Bitset {
        Bitset::from_words(self.k, self.mask.to_vec())
    }

    /// The number of chunks this device currently holds data for (a popcount
    /// of the cached mask — no allocation).
    pub fn num_nonempty_rows(&self) -> usize {
        self.mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The fraction of the full per-device buffer this device currently
    /// holds: non-empty rows divided by `k`. Used by the cost models to size
    /// transfers.
    pub fn data_fraction(&self) -> f64 {
        if self.k == 0 {
            0.0
        } else {
            self.num_nonempty_rows() as f64 / self.k as f64
        }
    }

    /// Whether the device holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.mask.iter().all(|&w| w == 0)
    }

    /// Element-wise union with another state of the same dimension.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn union_with(&mut self, other: &State) {
        assert_eq!(self.k, other.k, "state dimension mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        for (a, b) in self.mask.iter_mut().zip(other.mask.iter()) {
            *a |= b;
        }
    }

    /// Whether `self` is element-wise less than or equal to `other`
    /// (every bit of `self` is also set in `other`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn le(&self, other: &State) -> bool {
        assert_eq!(self.k, other.k, "state dimension mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether `self` is element-wise strictly below `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn lt(&self, other: &State) -> bool {
        self.le(other) && self != other
    }

    /// Clears every row whose index is **not** in `keep`, returning the state a
    /// `ReduceScatter` leaves on one device.
    pub(crate) fn retain_rows(&self, keep: &[usize]) -> State {
        let mut out = State::empty(self.k);
        for &r in keep {
            out.row_words_mut(r).copy_from_slice(self.row_words(r));
            if !self.row_words(r).iter().all(|&w| w == 0) {
                out.mask[r / 64] |= 1 << (r % 64);
            }
        }
        out
    }
}

/// A read-only view of one row of a [`State`] matrix: which devices'
/// contributions to one chunk this device holds.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    len: usize,
    words: &'a [u64],
}

impl Row<'_> {
    /// The number of bits in the row (the matrix dimension `k`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has length zero.
    pub fn is_len_zero(&self) -> bool {
        self.len == 0
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the two rows share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_disjoint(&self, other: Row<'_>) -> bool {
        assert_eq!(self.len, other.len, "row length mismatch");
        self.words.iter().zip(other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn is_subset(&self, other: Row<'_>) -> bool {
        assert_eq!(self.len, other.len, "row length mismatch");
        self.words.iter().zip(other.words).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_word_ones(self.words)
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.k {
            for c in 0..self.k {
                write!(f, "{}", if self.get(r, c) { '1' } else { '.' })?;
            }
            if r + 1 < self.k {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_and_goal_shapes() {
        let s = State::initial(4, 2);
        assert_eq!(s.num_nonempty_rows(), 4);
        assert!(s.get(0, 2) && s.get(3, 2) && !s.get(0, 0));
        let g = State::goal(4);
        assert_eq!(g.num_nonempty_rows(), 4);
        assert!(s.le(&g) && s.lt(&g) && !g.lt(&g));
        assert!((s.data_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn union_and_rows() {
        let mut a = State::initial(3, 0);
        let b = State::initial(3, 1);
        a.union_with(&b);
        assert!(a.get(0, 0) && a.get(0, 1) && !a.get(0, 2));
        assert_eq!(a.rows_mask().count_ones(), 3);
    }

    #[test]
    fn retain_rows_keeps_only_requested_rows() {
        let s = State::goal(4);
        let kept = s.retain_rows(&[1, 3]);
        assert_eq!(kept.nonempty_rows(), vec![1, 3]);
        assert!((kept.data_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_state_properties() {
        let e = State::empty(3);
        assert!(e.is_empty());
        assert_eq!(e.data_fraction(), 0.0);
        assert!(e.le(&State::initial(3, 0)));
    }

    #[test]
    fn display_is_compact_grid() {
        let s = State::initial(2, 0);
        assert_eq!(s.to_string(), "1.\n1.");
    }

    #[test]
    fn mask_tracks_sets_and_clears() {
        let mut s = State::empty(3);
        assert_eq!(s.num_nonempty_rows(), 0);
        s.set(1, 2, true);
        s.set(1, 0, true);
        assert_eq!(s.nonempty_rows(), vec![1]);
        s.set(1, 2, false);
        assert_eq!(s.nonempty_rows(), vec![1]);
        s.set(1, 0, false);
        assert!(s.is_empty());
        assert_eq!(s.rows_mask().count_ones(), 0);
    }

    #[test]
    fn goal_beyond_one_word_is_all_ones() {
        let k = 70;
        let g = State::goal(k);
        assert_eq!(g.num_nonempty_rows(), k);
        for r in [0, 63, 64, 69] {
            assert_eq!(g.row(r).count_ones(), k);
            assert!(g.get(r, 69) && g.get(r, 0));
        }
        // Slack bits above `k` stay clear, so equality and hashing see only
        // real matrix bits.
        let mut built = State::empty(k);
        for r in 0..k {
            for c in 0..k {
                built.set(r, c, true);
            }
        }
        assert_eq!(g, built);
    }

    #[test]
    fn row_views_expose_bit_operations() {
        let s = State::initial(4, 2);
        let r = s.row(0);
        assert_eq!(r.len(), 4);
        assert!(!r.is_len_zero());
        assert!(r.get(2) && !r.get(0));
        assert_eq!(r.iter_ones().collect::<Vec<_>>(), vec![2]);
        assert!(r.is_disjoint(State::initial(4, 1).row(0)));
        assert!(r.is_subset(State::goal(4).row(0)));
        assert!(State::empty(4).row(3).is_empty());
    }

    #[test]
    fn raw_words_round_trip_bit_identically() {
        for k in [1, 3, 4, 63, 64, 70] {
            for state in [State::empty(k), State::initial(k, k - 1), State::goal(k)] {
                let back = State::from_raw_words(k, state.raw_words().to_vec()).unwrap();
                assert_eq!(back, state, "k={k}");
                assert_eq!(back.nonempty_rows(), state.nonempty_rows(), "k={k}");
            }
        }
        // Junk slack bits are scrubbed, restoring canonical equality/hashing.
        let original = State::initial(3, 1);
        let mut words = original.raw_words().to_vec();
        words[0] |= 1u64 << 63;
        let scrubbed = State::from_raw_words(3, words).unwrap();
        assert_eq!(scrubbed, original);
        // Wrong buffer length is rejected.
        assert!(State::from_raw_words(3, vec![0; 2]).is_none());
    }

    #[test]
    fn a_dimension_whose_buffer_length_overflows_is_rejected() {
        // k = 2^35 needs k * 2^29 words: 2^64, one past usize::MAX, which
        // an unchecked product wraps to 0, the empty buffer's length.
        assert!(State::from_raw_words(1 << 35, Vec::new()).is_none());
        assert!(State::from_raw_words(usize::MAX, Vec::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn initial_device_out_of_range_panics() {
        State::initial(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        State::empty(2).get(0, 2);
    }
}
