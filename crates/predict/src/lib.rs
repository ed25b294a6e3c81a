//! Period predictors for prediction-based DPM.
//!
//! Prediction-based DPM policies estimate the next idle (and, for the
//! FC-DPM policy of *Zhuo et al., DAC 2007*, the next active) period from
//! past observations. This crate implements the predictor family the
//! paper's related-work section surveys, behind one object-safe trait:
//!
//! * [`ExponentialAverage`] — the paper's own choice (Equations 14–15,
//!   after Hwang & Wu \[1\]): `T'(k) = ρ·T'(k−1) + (1−ρ)·T(k−1)`;
//! * [`LastValue`] — the degenerate ρ = 0 baseline;
//! * [`SlidingWindowRegression`] — least-squares trend extrapolation over
//!   a recent window (after Srivastava et al. \[2\]);
//! * [`AdaptiveLearningTree`] — a quantized context-tree predictor (after
//!   Chung, Benini & De Micheli \[3\]);
//! * [`OraclePredictor`] — perfect knowledge of the future, the upper
//!   bound used in ablation studies;
//! * [`MeanEstimator`] — the running-average estimator the paper uses for
//!   the future active current `I'_ld,a` (Section 4.2).
//!
//! # Example
//!
//! ```
//! use fcdpm_predict::{ExponentialAverage, Predictor};
//! use fcdpm_units::Seconds;
//!
//! let mut p = ExponentialAverage::new(0.5);
//! p.observe(Seconds::new(10.0));
//! p.observe(Seconds::new(20.0));
//! // T' = 0.5·10 + 0.5·20 = 15.
//! assert_eq!(p.predict(), Some(Seconds::new(15.0)));
//! ```

mod clamped;
mod estimator;
mod exponential;
mod last_value;
mod oracle;
mod regression;
mod tree;

pub use clamped::Clamped;
pub use estimator::MeanEstimator;
pub use exponential::ExponentialAverage;
pub use last_value::LastValue;
pub use oracle::OraclePredictor;
pub use regression::SlidingWindowRegression;
pub use tree::AdaptiveLearningTree;

use fcdpm_units::Seconds;

/// An online predictor of the next period length.
///
/// A predictor is *cold* until it has seen at least one observation;
/// [`predict`](Self::predict) returns `None` while cold, and callers fall
/// back to a policy default (the paper starts with the first observation).
pub trait Predictor: core::fmt::Debug {
    /// The current prediction of the next period, or `None` while cold.
    fn predict(&self) -> Option<Seconds>;

    /// Feeds the actually observed period.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `actual` is negative.
    fn observe(&mut self, actual: Seconds);

    /// Forgets all history, returning to the cold state.
    fn reset(&mut self);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let mut p: Box<dyn Predictor> = Box::new(LastValue::new());
        assert_eq!(p.predict(), None);
        p.observe(Seconds::new(3.0));
        assert_eq!(p.predict(), Some(Seconds::new(3.0)));
        p.reset();
        assert_eq!(p.predict(), None);
    }
}
