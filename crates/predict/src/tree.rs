//! Adaptive learning-tree predictor.

use fcdpm_units::Seconds;

use crate::Predictor;

/// Largest counter table [`AdaptiveLearningTree::new`] accepts: 2²⁰
/// counters (4 MiB). The shipped 6-bin, depth-3 tree uses 1,548.
const MAX_COUNTERS: usize = 1 << 20;

/// A quantized context-tree predictor (after Chung, Benini & De Micheli,
/// the paper's reference \[3\]).
///
/// Observed periods are quantized into bins by a set of edges. For every
/// suffix of the recent bin history (the "context"), saturating counters
/// track which bin followed that context. At prediction time the deepest
/// context whose winning counter is sufficiently confident decides the
/// predicted bin, whose representative value (the running mean of the
/// observations that fell in it) is returned. Shallow contexts act as
/// fallback, so the tree adapts quickly to pattern changes while exploiting
/// long patterns when they exist.
///
/// The counters live in one flat table allocated by [`new`](Self::new):
/// contexts of length `L` own a block of `bins^L` rows of `bins`
/// counters, and a context's row within its block is its base-`bins`
/// code (most recent bin least significant). A context never seen is an
/// all-zero row. [`observe`](Predictor::observe) and
/// [`predict`](Predictor::predict) are O(depth) index arithmetic and never
/// allocate.
///
/// # Examples
///
/// ```
/// use fcdpm_predict::{AdaptiveLearningTree, Predictor};
/// use fcdpm_units::Seconds;
///
/// // Bins: short (< 10 s) and long (≥ 10 s); alternating input.
/// let mut p = AdaptiveLearningTree::new(vec![10.0], 3);
/// for k in 0..20 {
///     p.observe(Seconds::new(if k % 2 == 0 { 5.0 } else { 15.0 }));
/// }
/// // After a long period, the tree expects a short one.
/// assert!(p.predict().unwrap().seconds() < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveLearningTree {
    /// Ascending bin edges; `edges.len() + 1` bins.
    edges: Vec<f64>,
    /// `(first row, rows)` of the block of length-`L` contexts at index
    /// `L - 1`; `rows` is `bins^L`.
    blocks: Vec<(usize, usize)>,
    /// The recent bin history as a base-`bins` number, most recent bin
    /// least significant; its last `L` bins are `context % bins^L`.
    context: usize,
    /// Bins in `context` (at most the depth).
    context_len: usize,
    /// Saturating counters: row `r`'s per-bin counts are
    /// `counters[r * bins..(r + 1) * bins]`.
    counters: Vec<u32>,
    /// Running mean of observations per bin (the bin's representative).
    bin_means: Vec<(f64, u64)>,
    /// Counter saturation limit.
    saturation: u32,
}

impl AdaptiveLearningTree {
    /// Creates a tree with the given ascending bin `edges` and context
    /// `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, holds more than 255 edges (bins are
    /// counted in a `u8`) or is not strictly ascending, if any edge is
    /// not finite and positive, if `depth` is zero, or if the counter
    /// table (`bins · Σ bins^L` for `L` in `1..=depth`) would exceed
    /// 2²⁰ counters (4 MiB).
    #[must_use]
    #[track_caller]
    pub fn new(edges: Vec<f64>, depth: usize) -> Self {
        assert!(!edges.is_empty(), "need at least one bin edge");
        assert!(edges.len() <= 255, "at most 255 bin edges (256 bins)");
        assert!(depth >= 1, "context depth must be at least 1");
        assert!(
            edges.iter().all(|e| e.is_finite() && *e > 0.0),
            "bin edges must be positive and finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly ascending"
        );
        let bins = edges.len() + 1;
        let max_rows = MAX_COUNTERS / bins;
        let mut blocks = Vec::with_capacity(depth);
        let (mut first, mut rows) = (0, 1);
        for _ in 0..depth {
            rows *= bins;
            assert!(
                first + rows <= max_rows,
                "learning-tree counter table exceeds {MAX_COUNTERS} counters"
            );
            blocks.push((first, rows));
            first += rows;
        }
        Self {
            edges,
            blocks,
            context: 0,
            context_len: 0,
            counters: vec![0; first * bins],
            bin_means: vec![(0.0, 0); bins],
            saturation: 16,
        }
    }

    /// Builds evenly spaced edges covering `[lo, hi]` with `bins` bins —
    /// a convenient constructor when the period range is known (e.g. the
    /// camcorder's 8–20 s idle range).
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2`, or `lo`/`hi` do not describe a positive
    /// ascending range, or as [`new`](Self::new) does.
    #[must_use]
    #[track_caller]
    pub fn with_uniform_bins(lo: f64, hi: f64, bins: usize, depth: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        assert!(lo > 0.0 && hi > lo, "range invalid");
        let step = (hi - lo) / bins as f64;
        let edges = (1..bins).map(|k| lo + step * k as f64).collect();
        Self::new(edges, depth)
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.edges.len() + 1
    }

    fn quantize(&self, value: f64) -> u8 {
        let mut bin = 0u8;
        for e in &self.edges {
            if value >= *e {
                bin += 1;
            } else {
                break;
            }
        }
        bin
    }

    /// Index of the first counter of the row of the context formed by
    /// the last `L` bins, where `(first, rows)` is length `L`'s block.
    fn row_start(&self, (first, rows): (usize, usize)) -> usize {
        (first + self.context % rows) * self.bins()
    }

    fn bin_representative(&self, bin: usize) -> Option<f64> {
        let (sum, n) = self.bin_means[bin];
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

impl Predictor for AdaptiveLearningTree {
    fn predict(&self) -> Option<Seconds> {
        if self.bin_means.iter().all(|(_, n)| *n == 0) {
            return None;
        }
        let bins = self.bins();
        // Deepest confident context wins.
        for &block in self.blocks[..self.context_len].iter().rev() {
            let start = self.row_start(block);
            let counts = &self.counters[start..start + bins];
            let total: u32 = counts.iter().sum();
            if total == 0 {
                continue;
            }
            let Some((best_bin, best)) = counts.iter().enumerate().max_by_key(|(_, c)| **c) else {
                continue;
            };
            // Confidence: strict majority of the context's mass.
            if *best * 2 > total {
                if let Some(v) = self.bin_representative(best_bin) {
                    return Some(Seconds::new(v));
                }
            }
        }
        // Fallback: global most populated bin.
        self.bin_means
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, n))| *n)
            .and_then(|(bin, _)| self.bin_representative(bin))
            .map(Seconds::new)
    }

    fn observe(&mut self, actual: Seconds) {
        assert!(
            !actual.is_negative(),
            "observed period must be non-negative"
        );
        let value = actual.seconds();
        let bin = usize::from(self.quantize(value));
        let bins = self.bins();
        // Update counters for every suffix context seen before this value.
        for &block in &self.blocks[..self.context_len] {
            let start = self.row_start(block);
            let counts = &mut self.counters[start..start + bins];
            if counts[bin] < self.saturation {
                counts[bin] += 1;
            } else {
                // Saturated: decay competitors so the tree can re-learn.
                for (i, other) in counts.iter_mut().enumerate() {
                    if i != bin && *other > 0 {
                        *other -= 1;
                    }
                }
            }
        }
        let (sum, n) = &mut self.bin_means[bin];
        *sum += value;
        *n += 1;
        let (_, deepest) = self.blocks[self.blocks.len() - 1];
        self.context = (self.context * bins + bin) % deepest;
        self.context_len = (self.context_len + 1).min(self.blocks.len());
    }

    fn reset(&mut self) {
        self.context = 0;
        self.context_len = 0;
        self.counters.fill(0);
        for m in &mut self.bin_means {
            *m = (0.0, 0);
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::reference::ReferenceTree;
    use super::*;

    /// The value of one `(bin pick, position)` draw: it sits in bin
    /// `pick % bins` at `position` across it, or exactly on its lower
    /// edge when `position` is below 0.1. The last bin spans its lower
    /// edge to twice it.
    fn value(edges: &[f64], (pick, position): (usize, f64)) -> f64 {
        let bin = pick % (edges.len() + 1);
        let lo = if bin == 0 { 0.0 } else { edges[bin - 1] };
        let hi = edges.get(bin).copied().unwrap_or(2.0 * lo);
        if position < 0.1 {
            lo
        } else {
            lo + position * (hi - lo)
        }
    }

    /// 200 observations: the `lead` runs, each value repeated, then the
    /// `phrase` runs cycled. Long lead runs saturate counters; a cycled
    /// phrase over few bins gives shallow contexts mixed followers, so
    /// saturated counters decay their competitors.
    fn observations(
        edges: &[f64],
        lead: &[(usize, f64, usize)],
        phrase: &[(usize, f64, usize)],
    ) -> Vec<f64> {
        let run = |&(pick, position, repeats): &(usize, f64, usize)| {
            std::iter::repeat_n(value(edges, (pick, position)), repeats)
        };
        let mut values: Vec<f64> = lead.iter().flat_map(run).collect();
        values.extend(phrase.iter().cycle().flat_map(run).take(200 - values.len()));
        values
    }

    proptest! {
        /// The flat table predicts bit for bit what the `BTreeMap` tree
        /// predicts, after every observation and across a reset.
        #[test]
        fn flat_table_matches_the_btree_model(
            gaps in prop::collection::vec(0.5f64..10.0, 1..9),
            depth in 1usize..5,
            lead in prop::collection::vec((0usize..16, 0.0f64..1.0, 1usize..40), 0..4),
            phrase in prop::collection::vec((0usize..3, 0.0f64..1.0, 1usize..4), 1..6),
            reset_at in 0usize..400,
        ) {
            let edges: Vec<f64> = gaps
                .iter()
                .scan(0.0, |edge, gap| {
                    *edge += gap;
                    Some(*edge)
                })
                .collect();
            let mut flat = AdaptiveLearningTree::new(edges.clone(), depth);
            let mut model = ReferenceTree::new(edges.clone(), depth);
            let bits = |p: Option<Seconds>| p.map(|s| s.seconds().to_bits());
            for (k, value) in observations(&edges, &lead, &phrase).into_iter().enumerate() {
                if k == reset_at {
                    flat.reset();
                    model.reset();
                    prop_assert_eq!(flat.predict(), None);
                }
                flat.observe(Seconds::new(value));
                model.observe(Seconds::new(value));
                prop_assert_eq!(bits(flat.predict()), bits(model.predict()), "after observation {}", k);
            }
        }
    }

    #[test]
    fn quantization_boundaries() {
        let t = AdaptiveLearningTree::new(vec![10.0, 20.0], 2);
        assert_eq!(t.bins(), 3);
        assert_eq!(t.quantize(5.0), 0);
        assert_eq!(t.quantize(10.0), 1); // edges are inclusive on the right bin
        assert_eq!(t.quantize(15.0), 1);
        assert_eq!(t.quantize(25.0), 2);
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut t = AdaptiveLearningTree::new(vec![10.0], 3);
        for k in 0..40 {
            t.observe(Seconds::new(if k % 2 == 0 { 5.0 } else { 15.0 }));
        }
        // Last observation was long (k = 39 odd → 15) → expect short next.
        assert!(t.predict().unwrap().seconds() < 10.0);
        t.observe(Seconds::new(5.0));
        assert!(t.predict().unwrap().seconds() >= 10.0);
    }

    #[test]
    fn learns_period_three_pattern_with_depth_two() {
        // Pattern: S S L repeating. After (S, S) the next is L; after
        // (S, L) it is S; after (L, S) it is S. Depth 2 suffices.
        let mut t = AdaptiveLearningTree::new(vec![10.0], 2);
        let pattern = [4.0, 6.0, 18.0];
        for k in 0..60 {
            t.observe(Seconds::new(pattern[k % 3]));
        }
        // k=60 → next is pattern[0] (short); context is (S, L).
        assert!(t.predict().unwrap().seconds() < 10.0);
        t.observe(Seconds::new(4.0));
        // context (L, S) → short again.
        assert!(t.predict().unwrap().seconds() < 10.0);
        t.observe(Seconds::new(6.0));
        // context (S, S) → long.
        assert!(t.predict().unwrap().seconds() >= 10.0);
    }

    #[test]
    fn representative_is_bin_mean() {
        let mut t = AdaptiveLearningTree::new(vec![10.0], 1);
        t.observe(Seconds::new(4.0));
        t.observe(Seconds::new(6.0));
        // All mass in the short bin; representative is its mean, 5.0.
        assert!((t.predict().unwrap().seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cold_predicts_none() {
        let t = AdaptiveLearningTree::new(vec![10.0], 2);
        assert_eq!(t.predict(), None);
    }

    #[test]
    fn reset_forgets() {
        let mut t = AdaptiveLearningTree::new(vec![10.0], 2);
        t.observe(Seconds::new(5.0));
        t.reset();
        assert_eq!(t.predict(), None);
    }

    #[test]
    fn adapts_after_pattern_change() {
        let mut t = AdaptiveLearningTree::new(vec![10.0], 2);
        for _ in 0..30 {
            t.observe(Seconds::new(5.0));
        }
        assert!(t.predict().unwrap().seconds() < 10.0);
        for _ in 0..40 {
            t.observe(Seconds::new(15.0));
        }
        assert!(
            t.predict().unwrap().seconds() >= 10.0,
            "tree failed to adapt"
        );
    }

    #[test]
    fn uniform_bin_constructor() {
        let t = AdaptiveLearningTree::with_uniform_bins(8.0, 20.0, 4, 2);
        assert_eq!(t.bins(), 4);
        assert_eq!(t.quantize(8.5), 0);
        assert_eq!(t.quantize(19.5), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_panic() {
        let _ = AdaptiveLearningTree::new(vec![10.0, 5.0], 2);
    }

    #[test]
    fn the_shipped_tree_holds_1548_counters() {
        let t = AdaptiveLearningTree::with_uniform_bins(8.0, 20.0, 6, 3);
        assert_eq!(t.counters.len(), 1548);
    }

    #[test]
    fn two_hundred_fifty_five_edges_quantize_into_the_top_bin() {
        let edges: Vec<f64> = (1..=255).map(f64::from).collect();
        let t = AdaptiveLearningTree::new(edges, 1);
        assert_eq!(t.quantize(1e9), 255);
    }

    #[test]
    #[should_panic(expected = "at most 255 bin edges")]
    fn two_hundred_fifty_six_edges_panic() {
        let edges = (1..=256).map(f64::from).collect();
        let _ = AdaptiveLearningTree::new(edges, 1);
    }

    #[test]
    #[should_panic(expected = "counter table exceeds")]
    fn oversized_table_panics() {
        // 2 bins, depth 20: 2 · (2²¹ − 2) counters.
        let _ = AdaptiveLearningTree::new(vec![10.0], 20);
    }
}
