//! Negative fixture: unit-suffixed quantities behind newtypes,
//! dimensionless `f64` parameters, and widening casts only.

pub struct Seconds(f64);
pub struct Amps(f64);

/// Newtyped signature: nothing to flag.
pub fn integrate(duration: Seconds, current: Amps) -> f64 {
    duration.seconds() * current.amps()
}

/// A dimensionless ratio may stay `f64`.
pub fn scale(ratio: f64, count: usize) -> f64 {
    ratio * count as f64
}

/// Private functions are outside the rule's scope even with suffixes.
fn internal(duration_s: f64) -> f64 {
    duration_s
}

pub fn call_internal() -> f64 {
    internal(1.0)
}
