//! Dataflow fixture: the same shapes as `dimension_bad.rs`, written
//! dimensionally soundly. Must produce zero findings.

/// Same-dimension raw arithmetic is fine.
pub fn raw_same(a: Amps, b: Amps) -> f64 {
    let delta = a.amps() - b.amps();
    delta + 0.05
}

/// Shadowing that stays within one dimension.
pub fn shadowed_same(i: Amps, j: Amps) -> f64 {
    let x = i.amps();
    let x = j.amps();
    x + i.amps()
}

/// A raw factor may carry inverse units, so products are untracked by
/// design (the calibration fit's slope is 1/A).
pub fn fitted_slope(e: Efficiency, i: Amps, intercept: f64, slope: f64) -> f64 {
    let residual = e.value() - (intercept + slope * i.amps());
    residual
}
