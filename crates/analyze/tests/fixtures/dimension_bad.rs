//! Dataflow fixture: raw f64 projections of distinct dimensions mixed
//! under `+`, which the compiler accepts. Not compiled — consumed as
//! text by `tests/workspace.rs`.

/// Two bindings of distinct dimensions.
pub fn raw_mix(i: Amps, t: Seconds) -> f64 {
    let current = i.amps();
    let horizon = t.seconds();
    let total = current + horizon;
    total
}

/// Through shadowing: the second `x` is Seconds.
pub fn shadowed_mix(i: Amps, t: Seconds) -> f64 {
    let x = i.amps();
    let x = t.seconds();
    let y = x + i.amps();
    y
}

/// Through a method chain: `max_zero` keeps Amps, the addend is a
/// Charge projection.
pub fn chained_mix(i: Amps, cap: Charge) -> f64 {
    let held = i.max_zero().amps();
    let sum = held + cap.amp_seconds();
    sum
}
