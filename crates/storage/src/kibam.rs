//! Kinetic battery model (KiBaM).
//!
//! The paper dismisses battery-aware DPM for fuel cells on two grounds:
//! batteries exhibit a **recovery effect** (charge becomes available again
//! after rest) and a **rate-capacity effect** (high discharge rates reduce
//! apparent capacity), while "FCs have no recovery effect". This module
//! implements the classic two-well kinetic battery model of Manwell &
//! McGowan so those effects exist *somewhere in this workspace* and the
//! claim can be demonstrated rather than asserted: the ablation compares a
//! KiBaM-buffered hybrid against the ideal buffer and shows which policy
//! conclusions survive.
//!
//! The model splits the charge into an *available* well (fraction `c`)
//! that supplies the load directly and a *bound* well that refills it
//! through a valve with rate constant `k`:
//!
//! ```text
//! dy1/dt = −I + k·(h2 − h1),   h1 = y1/c
//! dy2/dt =      −k·(h2 − h1),  h2 = y2/(1 − c)
//! ```

use fcdpm_units::{Amps, Charge, Seconds};

use crate::{ChargeStorage, StorageFlow};

/// A two-well kinetic battery.
///
/// # Examples
///
/// ```
/// use fcdpm_storage::{ChargeStorage, KineticBattery};
/// use fcdpm_units::{Amps, Charge, Seconds};
///
/// let mut batt = KineticBattery::new(Charge::new(100.0), 0.5, 0.05, 1.0);
/// // Drain hard, rest, and the available well recovers.
/// batt.step(Amps::new(-5.0), Seconds::new(8.0));
/// let tired = batt.available();
/// batt.step(Amps::ZERO, Seconds::new(60.0));
/// assert!(batt.available() > tired, "recovery effect");
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KineticBattery {
    capacity: Charge,
    /// Available-well fraction `c ∈ (0, 1)`.
    c: f64,
    /// Valve rate constant `k` (1/s).
    k: f64,
    /// Available charge `y1`.
    y1: f64,
    /// Bound charge `y2`.
    y2: f64,
}

impl KineticBattery {
    /// Creates a battery with total `capacity`, well split `c`, valve
    /// rate `k` (1/s), starting at `initial_fraction` of capacity
    /// distributed at equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative, `c` is not in `(0, 1)`, `k` is
    /// not positive, or `initial_fraction` is not in `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn new(capacity: Charge, initial_fraction: f64, c: f64, k: f64) -> Self {
        assert!(!capacity.is_negative(), "capacity must be non-negative");
        assert!(
            (0.0..1.0).contains(&c) && c > 0.0,
            "well split must be in (0, 1)"
        );
        assert!(k > 0.0 && k.is_finite(), "valve rate must be positive");
        assert!(
            (0.0..=1.0).contains(&initial_fraction),
            "initial fraction must be in [0, 1]"
        );
        let total = capacity.amp_seconds() * initial_fraction;
        Self {
            capacity,
            c,
            k,
            y1: total * c,
            y2: total * (1.0 - c),
        }
    }

    /// Charge immediately available to the load (the `y1` well).
    #[must_use]
    pub fn available(&self) -> Charge {
        Charge::new(self.y1)
    }

    /// Charge bound in the slow well (the `y2` well).
    #[must_use]
    pub fn bound(&self) -> Charge {
        Charge::new(self.y2)
    }

    /// Advances the two wells by `dt` under constant current `i`
    /// (positive charges, negative discharges) using the closed-form
    /// solution. Does **not** clamp — the caller handles boundaries.
    fn advance(&mut self, i: f64, dt: f64) {
        // Manwell–McGowan closed form with combined rate k' = k/(c(1−c)).
        let kp = self.k / (self.c * (1.0 - self.c));
        let e = (-kp * dt).exp();
        let y0 = self.y1 + self.y2;
        // The literature states the form for a discharge current I > 0;
        // charging is the same equations with I < 0.
        let discharge = -i;
        let y1 = self.y1 * e + (y0 * kp * self.c - discharge) * (1.0 - e) / kp
            - discharge * self.c * (kp * dt - 1.0 + e) / kp;
        let y2 = self.y2 * e + y0 * (1.0 - self.c) * (1.0 - e)
            - discharge * (1.0 - self.c) * (kp * dt - 1.0 + e) / kp;
        self.y1 = y1;
        self.y2 = y2;
    }

    /// Whether a probe state has left the feasible region: available
    /// well negative, or total charge beyond capacity (both with the
    /// rail tolerance the stepper's guards absorb).
    fn violated(&self, probe: &Self) -> bool {
        probe.y1 < -1e-12 || probe.y1 + probe.y2 > self.capacity.amp_seconds() + 1e-12
    }

    /// The largest prefix of `dt` for which the available well stays
    /// non-negative (discharge) or the total stays within capacity
    /// (charge).
    ///
    /// Both rails have closed forms: the wells conserve total charge, so
    /// the capacity rail is hit at the exact *linear* crossing, and the
    /// available-well rail solves the Manwell–McGowan transcendental via
    /// Lambert W ([`Self::depletion_time`]). Each analytic candidate is
    /// validated by one probe advance; bisection remains only as the
    /// fallback for the degenerate cases where the closed form yields no
    /// usable root (zero effective discharge, a W argument outside the
    /// real domain, or a candidate the rail tolerance rejects).
    ///
    /// Returns the prefix together with the state advanced through it:
    /// the validating probe where there is one, so a step never repeats
    /// the probe's advance.
    fn feasible_prefix(&self, i: f64, dt: f64) -> (f64, Self) {
        let mut probe = self.clone();
        probe.advance(i, dt);
        if !self.violated(&probe) {
            return (dt, probe);
        }
        let candidate = if i > 0.0 {
            // Charging: d(y1+y2)/dt = i exactly, and the available well
            // cannot go negative under a non-negative current (at y1 = 0
            // both the current and the valve push it up), so the only
            // reachable rail is capacity — a linear crossing.
            Some(((self.capacity.amp_seconds() - (self.y1 + self.y2)) / i).clamp(0.0, dt))
        } else {
            self.depletion_time(-i, dt)
        };
        if let Some(t) = candidate {
            let mut probe = self.clone();
            probe.advance(i, t);
            if !self.violated(&probe) {
                return (t, probe);
            }
        }
        let t = self.bisect_prefix(i, dt);
        let mut advanced = self.clone();
        advanced.advance(i, t);
        (t, advanced)
    }

    /// Analytic time at which the available well empties under constant
    /// discharge, if it does within `dt`.
    ///
    /// With `k' = k/(c(1−c))`, `y0 = y1 + y2` and discharge `I > 0`, the
    /// closed-form available well is
    ///
    /// ```text
    /// y1(t) = α·e^(−k'·t) + β − γ·t
    /// α = y1(0) − y0·c + I(1−c)/k'
    /// β = y0·c − I(1−c)/k'
    /// γ = I·c
    /// ```
    ///
    /// Substituting `u = k'(t − β/γ)` turns `y1(t) = 0` into
    /// `u·e^u = (α·k'/γ)·e^(−k'·β/γ)` — a Lambert-W equation with roots
    /// `t = β/γ + W(z)/k'`. The sign of `α` fixes the geometry: `α ≥ 0`
    /// makes `y1` convex and strictly decreasing (one root, principal
    /// branch, `z ≥ 0`); `α < 0` makes it concave with `z ∈ [−1/e, 0)`,
    /// where both real branches yield candidates and the *largest* root
    /// inside `[0, dt]` is the descending crossing (the smaller one, if
    /// non-negative at all, is the well touching zero before the valve
    /// refills it — still feasible).
    fn depletion_time(&self, discharge: f64, dt: f64) -> Option<f64> {
        let kp = self.k / (self.c * (1.0 - self.c));
        let y0 = self.y1 + self.y2;
        let alpha = self.y1 - y0 * self.c + discharge * (1.0 - self.c) / kp;
        let beta = y0 * self.c - discharge * (1.0 - self.c) / kp;
        let gamma = discharge * self.c;
        if gamma <= 0.0 || !gamma.is_finite() {
            return None;
        }
        let z = alpha * kp / gamma * (-kp * beta / gamma).exp();
        if !z.is_finite() {
            return None;
        }
        let mut crossing: Option<f64> = None;
        let mut consider = |w: f64| {
            let t = beta / gamma + w / kp;
            if t.is_finite() && (0.0..=dt).contains(&t) {
                crossing = Some(crossing.map_or(t, |best: f64| best.max(t)));
            }
        };
        if let Some(w) = lambert_w(z, true) {
            consider(w);
        }
        if z < 0.0 {
            if let Some(w) = lambert_w(z, false) {
                consider(w);
            }
        }
        crossing
    }

    /// Bisection fallback for [`Self::feasible_prefix`] (the pre-analytic
    /// implementation): 60 probe halvings on the violation predicate.
    fn bisect_prefix(&self, i: f64, dt: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, dt);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let mut probe = self.clone();
            probe.advance(i, mid);
            if self.violated(&probe) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

/// `1/e`, the lower edge of the real Lambert-W domain.
const INV_E: f64 = 1.0 / core::f64::consts::E;

/// Real Lambert W by Halley iteration: solves `w·e^w = z` on the
/// principal branch `W₀` (`w ≥ −1`, `z ≥ −1/e`) or the lower branch
/// `W₋₁` (`w ≤ −1`, `−1/e ≤ z < 0`). Returns `None` outside the branch
/// domain or if the iteration fails to meet a small residual — callers
/// fall back to bisection, so refusal is always safe.
fn lambert_w(z: f64, principal: bool) -> Option<f64> {
    if !z.is_finite() || z < -INV_E {
        return None;
    }
    if !principal && z >= 0.0 {
        return None;
    }
    // Initial guesses: branch-point series in p = √(2(e·z + 1)) near
    // z = −1/e, ln(1+z) on the principal branch elsewhere, and the
    // z → 0⁻ asymptotic ln(−z) − ln(−ln(−z)) deep on the lower branch.
    let p = (2.0 * (core::f64::consts::E * z + 1.0)).max(0.0).sqrt();
    let mut w = if principal {
        if z < 0.0 {
            -1.0 + p - p * p / 3.0
        } else {
            z.ln_1p()
        }
    } else if z > -0.25 {
        let l = (-z).ln();
        l - (-l).ln()
    } else {
        -1.0 - p - p * p / 3.0
    };
    for _ in 0..64 {
        let ew = w.exp();
        let f = w * ew - z;
        let w1 = w + 1.0;
        let denom = ew * w1 - (w + 2.0) * f / (2.0 * w1);
        if !denom.is_finite() || denom == 0.0 {
            break;
        }
        let next = w - f / denom;
        if !next.is_finite() {
            break;
        }
        let done = (next - w).abs() <= 1e-14 * (1.0 + next.abs());
        w = next;
        if done {
            break;
        }
    }
    let residual = w * w.exp() - z;
    (residual.abs() <= 1e-9 * (1.0 + z.abs())).then_some(w)
}

impl ChargeStorage for KineticBattery {
    fn capacity(&self) -> Charge {
        self.capacity
    }

    fn soc(&self) -> Charge {
        Charge::new(self.y1 + self.y2)
    }

    fn step(&mut self, net: Amps, dt: Seconds) -> StorageFlow {
        assert!(!dt.is_negative(), "duration must be non-negative");
        let mut flow = StorageFlow::NONE;
        if dt.is_zero() {
            return flow;
        }
        let i = net.amps();
        let total = dt.seconds();
        let (feasible, advanced) = self.feasible_prefix(i, total);
        *self = advanced;
        // Numerical guards at the boundaries.
        self.y1 = self.y1.max(0.0);
        let cap = self.capacity.amp_seconds();
        if self.y1 + self.y2 > cap {
            let excess = self.y1 + self.y2 - cap;
            self.y2 = (self.y2 - excess).max(0.0);
        }
        let moved = Charge::new((i * feasible).abs());
        if i >= 0.0 {
            flow.charged = moved;
            flow.bled = Charge::new(i * (total - feasible));
        } else {
            flow.discharged = moved;
            flow.deficit = Charge::new(-i * (total - feasible));
        }
        // The remainder of the step passes at open circuit: the wells
        // keep equalizing (this is exactly the recovery effect).
        if total - feasible > 1e-12 {
            self.advance(0.0, total - feasible);
            self.y1 = self.y1.max(0.0);
        }
        flow
    }

    fn set_soc(&mut self, soc: Charge) {
        let total = soc.clamp(Charge::ZERO, self.capacity).amp_seconds();
        self.y1 = total * self.c;
        self.y2 = total * (1.0 - self.c);
    }

    fn step_coalesced(&mut self, net: Amps, duration: Seconds) -> StorageFlow {
        // `step` already solves the two-well ODE in closed form for an
        // arbitrary duration and bisects the rail crossing itself; the
        // default lossless-projection split would disagree with the
        // diffusion-limited boundary.
        self.step(net, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn battery() -> KineticBattery {
        KineticBattery::new(Charge::new(100.0), 1.0, 0.3, 0.005)
    }

    #[test]
    fn conserves_charge_at_open_circuit() {
        let mut b = battery();
        let before = b.soc();
        b.step(Amps::ZERO, Seconds::new(1000.0));
        assert!(b.soc().approx_eq(before, 1e-9));
    }

    #[test]
    fn equilibrium_distribution_is_stationary() {
        let mut b = battery();
        let (y1, y2) = (b.available(), b.bound());
        b.step(Amps::ZERO, Seconds::new(500.0));
        assert!(b.available().approx_eq(y1, 1e-6));
        assert!(b.bound().approx_eq(y2, 1e-6));
    }

    #[test]
    fn recovery_effect() {
        let mut b = battery();
        // Hard discharge depletes the available well faster than the
        // valve refills it.
        b.step(Amps::new(-2.0), Seconds::new(12.0));
        let tired = b.available();
        let soc_before_rest = b.soc();
        // Rest: bound charge migrates back — no net charge added.
        b.step(Amps::ZERO, Seconds::new(300.0));
        assert!(b.available() > tired + Charge::new(1.0), "no recovery seen");
        assert!(b.soc().approx_eq(soc_before_rest, 1e-6));
    }

    #[test]
    fn rate_capacity_effect() {
        // The same stored charge delivers less before the first brownout
        // at a high rate than at a low rate.
        let drain_until_deficit = |rate: f64| {
            let mut b = battery();
            let mut delivered = 0.0;
            for _ in 0..100_000 {
                let flow = b.step(Amps::new(-rate), Seconds::new(1.0));
                delivered += flow.discharged.amp_seconds();
                if !flow.deficit.is_zero() {
                    break;
                }
            }
            delivered
        };
        let slow = drain_until_deficit(0.05);
        let fast = drain_until_deficit(2.0);
        assert!(
            fast < 0.8 * slow,
            "rate-capacity effect missing: fast {fast}, slow {slow}"
        );
    }

    #[test]
    fn discharge_stops_at_empty_available_well() {
        let mut b = KineticBattery::new(Charge::new(10.0), 0.5, 0.3, 0.001);
        let flow = b.step(Amps::new(-10.0), Seconds::new(10.0));
        assert!(flow.deficit > Charge::ZERO);
        assert!(b.available() >= Charge::ZERO);
        assert!(flow.discharged <= Charge::new(5.0) + Charge::new(1.0));
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = KineticBattery::new(Charge::new(10.0), 0.9, 0.3, 0.05);
        let flow = b.step(Amps::new(5.0), Seconds::new(10.0));
        assert!(flow.bled > Charge::ZERO);
        assert!(b.soc() <= b.capacity() + Charge::new(1e-9));
    }

    #[test]
    fn set_soc_restores_equilibrium() {
        let mut b = battery();
        b.set_soc(Charge::new(50.0));
        assert!(b.available().approx_eq(Charge::new(15.0), 1e-9));
        assert!(b.bound().approx_eq(Charge::new(35.0), 1e-9));
    }

    #[test]
    fn implements_storage_trait() {
        let mut boxed: Box<dyn ChargeStorage> = Box::new(battery());
        let flow = boxed.step(Amps::new(-0.5), Seconds::new(2.0));
        assert!((flow.discharged.amp_seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "well split")]
    fn invalid_split_rejected() {
        let _ = KineticBattery::new(Charge::new(10.0), 0.5, 1.0, 0.1);
    }

    #[test]
    fn lambert_w_solves_both_branches() {
        // W₀(1) is the omega constant; W₀/W₋₁ straddle −1 on (−1/e, 0).
        let w = lambert_w(1.0, true).unwrap();
        assert!((w - 0.567_143_290_409_783_8).abs() < 1e-12);
        for z in [-0.35, -0.2, -0.05, -0.001] {
            let w0 = lambert_w(z, true).unwrap();
            let wm1 = lambert_w(z, false).unwrap();
            assert!(w0 >= -1.0 && wm1 <= -1.0, "branch order at z = {z}");
            assert!((w0 * w0.exp() - z).abs() < 1e-9, "W0 residual at {z}");
            assert!((wm1 * wm1.exp() - z).abs() < 1e-9, "W-1 residual at {z}");
        }
        assert!(lambert_w(-0.5, true).is_none(), "below −1/e has no real W");
        assert!(lambert_w(0.5, false).is_none(), "W₋₁ needs z < 0");
    }

    /// The analytic-vs-bisection crossing fixture pair of PR 9: the
    /// Lambert-W depletion time and the exact linear capacity crossing
    /// must land where the retired 60-iteration bisection landed.
    #[test]
    fn analytic_crossings_match_bisection() {
        // Discharge rail, both geometries: convex (α ≥ 0: hard drain
        // from equilibrium) and concave (α < 0: a drained available well
        // under a light load, where the valve refill bows y1 upward
        // before the linear term wins).
        let convex = KineticBattery::new(Charge::new(100.0), 1.0, 0.3, 0.005);
        let mut drained = KineticBattery::new(Charge::new(100.0), 0.0, 0.3, 0.005);
        drained.y1 = 5.0;
        drained.y2 = 45.0;
        let cases = [
            (&convex, -2.0, 60.0),
            (&convex, -0.9, 200.0),
            (&drained, -0.1, 2000.0),
            (&drained, -0.25, 400.0),
        ];
        for (batt, i, dt) in cases {
            let analytic = batt.feasible_prefix(i, dt).0;
            let bisected = batt.bisect_prefix(i, dt);
            assert!(
                analytic < dt,
                "fixture must actually hit the rail (i = {i})"
            );
            assert!(
                (analytic - bisected).abs() < 1e-6,
                "i = {i}: analytic {analytic} vs bisection {bisected}"
            );
            // The closed form really fired: the depletion time exists.
            assert!(batt.depletion_time(-i, dt).is_some());
        }
        // Charge rail: linear crossing vs bisection.
        let nearly_full = KineticBattery::new(Charge::new(100.0), 0.95, 0.3, 0.005);
        let analytic = nearly_full.feasible_prefix(2.0, 60.0).0;
        let bisected = nearly_full.bisect_prefix(2.0, 60.0);
        assert!(analytic < 60.0);
        assert!((analytic - bisected).abs() < 1e-6);
        assert!((analytic - 2.5).abs() < 1e-9, "5 A·s of headroom at 2 A");
    }

    proptest! {
        /// The closed-form crossing agrees with the bisection over the
        /// parameter space. `rail` picks which one each case drives
        /// into: 0 the convex discharge rail (α ≥ 0), 1 the concave one
        /// (α < 0: a drained available well under a load the valve can
        /// briefly outpace), 2 the charge rail, 3 a discharge whose W
        /// argument overflows, so the closed form refuses and the
        /// bisection fallback answers. `dt` overshoots an upper bound
        /// on the crossing, so every case hits its rail.
        #[test]
        fn feasible_prefix_matches_bisection_on_every_rail(
            rail in 0u32..4,
            capacity in 1.0f64..500.0,
            c in 0.05f64..0.95,
            log_k in -4.0f64..-1.0,
            fill in 0.05f64..1.0,
            split in 0.0f64..1.0,
            load in 0.05f64..0.95,
            overshoot in 0.01f64..2.0,
        ) {
            let k = 10f64.powf(log_k);
            let y0 = capacity * fill;
            let (c, k, y0, y1, i, bound) = match rail {
                0 => {
                    // At or above the equilibrium share; α ≥ 0 bounds
                    // the crossing by y1(0) / (I·c).
                    let i = 5.0 * load;
                    let y1 = y0 * (c + split * (1.0 - c));
                    (c, k, y0, y1, -i, y1 / (i * c))
                }
                1 => {
                    // β > 0 needs I < y0·k/(1−c)²; y1 below β makes
                    // α < 0, and the crossing lies before β / (I·c).
                    let i = load * y0 * k / ((1.0 - c) * (1.0 - c));
                    let beta = y0 * c - i * (1.0 - c) * c * (1.0 - c) / k;
                    (c, k, y0, split * beta, -i, beta / (i * c))
                }
                2 => {
                    let i = 5.0 * load;
                    let y0 = capacity * fill.min(0.99);
                    (c, k, y0, y0 * split, i, (capacity - y0) / i)
                }
                _ => {
                    // c < 1e-3 and k·y0/I ≤ 0.05 put the exponent of z
                    // above 900, so z = ∞ and no W is ever evaluated.
                    let (c, k, i) = (c * 1e-3, k.min(1e-4), 1.0 + 4.0 * load);
                    (c, k, y0, y0 * c, -i, y0 / i)
                }
            };
            let batt = KineticBattery { capacity: Charge::new(capacity), c, k, y1, y2: y0 - y1 };
            let dt = (1.0 + overshoot) * bound;
            let (analytic, advanced) = batt.feasible_prefix(i, dt);
            prop_assert!(analytic < dt, "rail {rail} not hit: prefix {analytic} of {dt}");
            if i < 0.0 {
                let alpha = y1 - y0 * c - i * (1.0 - c) * c * (1.0 - c) / k;
                let closed_form = batt.depletion_time(-i, dt);
                if rail == 3 {
                    prop_assert!(closed_form.is_none(), "closed form answered: {closed_form:?}");
                } else {
                    prop_assert!((alpha >= 0.0) == (rail == 0), "rail {rail} has α = {alpha}");
                    prop_assert!(closed_form.is_some(), "rail {rail}: closed form refused");
                }
            }
            let bisected = batt.bisect_prefix(i, dt);
            prop_assert!(
                (analytic - bisected).abs() <= 1e-9 * dt,
                "rail {rail}: analytic {analytic} vs bisection {bisected} (dt {dt})"
            );
            prop_assert!(!batt.violated(&advanced), "the prefix overshoots its rail");
        }
    }

    #[test]
    fn touching_well_keeps_the_descending_crossing() {
        // A drained available well under a light load: the valve refill
        // outpaces the discharge at first (y1 rises from zero), so the
        // feasible prefix must be the *descending* crossing, not t = 0.
        let mut b = KineticBattery::new(Charge::new(100.0), 0.0, 0.3, 0.05);
        b.y1 = 0.0;
        b.y2 = 60.0;
        let i = -0.1;
        let dt = 2000.0;
        let analytic = b.feasible_prefix(i, dt).0;
        let bisected = b.bisect_prefix(i, dt);
        assert!(
            analytic > 1.0,
            "prefix collapsed to the touching root: {analytic}"
        );
        assert!((analytic - bisected).abs() < 1e-6);
    }
}
