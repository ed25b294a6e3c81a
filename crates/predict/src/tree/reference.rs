//! A learning tree that keeps one `BTreeMap` row per context, keyed by
//! the context's bins: the plain model the flat counter table's property
//! test checks bit for bit.

use std::collections::BTreeMap;

use fcdpm_units::Seconds;

use crate::Predictor;

#[derive(Debug)]
pub(super) struct ReferenceTree {
    edges: Vec<f64>,
    depth: usize,
    context: Vec<u8>,
    counters: BTreeMap<Vec<u8>, Vec<u32>>,
    bin_means: Vec<(f64, u64)>,
    saturation: u32,
}

impl ReferenceTree {
    pub(super) fn new(edges: Vec<f64>, depth: usize) -> Self {
        let bins = edges.len() + 1;
        Self {
            edges,
            depth,
            context: Vec::new(),
            counters: BTreeMap::new(),
            bin_means: vec![(0.0, 0); bins],
            saturation: 16,
        }
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

    fn bin_representative(&self, bin: usize) -> Option<f64> {
        let (sum, n) = self.bin_means[bin];
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

impl Predictor for ReferenceTree {
    fn predict(&self) -> Option<Seconds> {
        if self.bin_means.iter().all(|(_, n)| *n == 0) {
            return None;
        }
        for len in (1..=self.context.len().min(self.depth)).rev() {
            let ctx = &self.context[self.context.len() - len..];
            if let Some(counts) = self.counters.get(ctx) {
                let total: u32 = counts.iter().sum();
                if total == 0 {
                    continue;
                }
                let Some((best_bin, best)) = counts.iter().enumerate().max_by_key(|(_, c)| **c)
                else {
                    continue;
                };
                if *best * 2 > total {
                    if let Some(v) = self.bin_representative(best_bin) {
                        return Some(Seconds::new(v));
                    }
                }
            }
        }
        self.bin_means
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, n))| *n)
            .and_then(|(bin, _)| self.bin_representative(bin))
            .map(Seconds::new)
    }

    fn observe(&mut self, actual: Seconds) {
        let value = actual.seconds();
        let bin = self.quantize(value);
        for len in 1..=self.context.len().min(self.depth) {
            let ctx = self.context[self.context.len() - len..].to_vec();
            let counts = self
                .counters
                .entry(ctx)
                .or_insert_with(|| vec![0; self.edges.len() + 1]);
            let c = &mut counts[bin as usize];
            if *c < self.saturation {
                *c += 1;
            } else {
                for (i, other) in counts.iter_mut().enumerate() {
                    if i != bin as usize && *other > 0 {
                        *other -= 1;
                    }
                }
            }
        }
        let (sum, n) = &mut self.bin_means[bin as usize];
        *sum += value;
        *n += 1;
        self.context.push(bin);
        if self.context.len() > self.depth {
            self.context.remove(0);
        }
    }

    fn reset(&mut self) {
        self.context.clear();
        self.counters.clear();
        for m in &mut self.bin_means {
            *m = (0.0, 0);
        }
    }
}
