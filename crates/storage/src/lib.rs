//! Charge-storage models for fuel-cell hybrid power sources.
//!
//! A fuel cell has high *energy* density but low *power* density and a
//! limited load-following range, so the hybrid system of *Zhuo et al.,
//! DAC 2007* (Figure 1) buffers it with a charge-storage element — a 1 F
//! super-capacitor in the paper's experiments, or a Li-ion battery. The
//! storage element absorbs `I_chg = I_F − I_ld` when the FC over-delivers
//! and supplies `I_dis = I_ld − I_F` when the load exceeds the FC output.
//!
//! This crate provides:
//!
//! * the [`ChargeStorage`] trait — exact (piecewise-constant-current)
//!   integration of the storage state with explicit overflow ("bleeder
//!   by-pass") and underflow ("brownout deficit") accounting;
//! * [`IdealStorage`] — the lossless buffer the paper's optimizer assumes;
//! * [`SuperCapacitor`] — a capacitance-based model with a usable voltage
//!   window and leakage;
//! * [`LiIonBattery`] — a coulombic-efficiency + self-discharge model for
//!   the battery-buffered variant.
//!
//! # Example
//!
//! ```
//! use fcdpm_units::{Amps, Charge, Seconds};
//! use fcdpm_storage::{ChargeStorage, IdealStorage};
//!
//! // The paper's buffer: 1 F ≙ 100 mA·min at 12 V, initially empty.
//! let mut buf = IdealStorage::new(Charge::from_milliamp_minutes(100.0), Charge::ZERO);
//! // FC over-delivers 0.33 A for 10 s → 3.3 A·s stored.
//! let flow = buf.step(Amps::new(0.33), Seconds::new(10.0));
//! assert!((flow.charged.amp_seconds() - 3.3).abs() < 1e-12);
//! assert!(flow.bled.is_zero());
//! assert!((buf.soc().amp_seconds() - 3.3).abs() < 1e-12);
//! ```

mod battery;
mod flow;
mod ideal;
mod kibam;
mod supercap;

pub use battery::LiIonBattery;
pub use flow::StorageFlow;
pub use ideal::IdealStorage;
pub use kibam::KineticBattery;
pub use supercap::SuperCapacitor;

use fcdpm_units::{Amps, Charge, Seconds};

/// A charge-storage element integrated with piecewise-constant currents.
///
/// `step` applies a *net* current for a duration: positive charges the
/// element, negative discharges it. Implementations must:
///
/// * never let the state of charge leave `[0, capacity]`;
/// * report overflow in [`StorageFlow::bled`] (charge routed to the
///   bleeder by-pass, Section 3.3.1) and unmet demand in
///   [`StorageFlow::deficit`] (a brownout — the hybrid source failed to
///   power the load).
pub trait ChargeStorage: core::fmt::Debug {
    /// Maximum charge the element can hold (`C_max`).
    fn capacity(&self) -> Charge;

    /// Current state of charge.
    fn soc(&self) -> Charge;

    /// Applies net current `net` for `dt` and returns the flow accounting.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `dt` is negative.
    fn step(&mut self, net: Amps, dt: Seconds) -> StorageFlow;

    /// Forces the state of charge (clamped into `[0, capacity]`).
    /// Used to set initial conditions between experiments.
    fn set_soc(&mut self, soc: Charge);

    /// State of charge as a fraction of capacity (`0` for zero-capacity
    /// elements).
    fn soc_fraction(&self) -> f64 {
        if self.capacity().is_zero() {
            0.0
        } else {
            self.soc() / self.capacity()
        }
    }

    /// Remaining headroom `capacity − soc`.
    fn headroom(&self) -> Charge {
        self.capacity() - self.soc()
    }

    /// `true` when within `tol` of full.
    fn is_full(&self, tol: Charge) -> bool {
        self.headroom() <= tol
    }

    /// `true` when within `tol` of empty.
    fn is_empty(&self, tol: Charge) -> bool {
        self.soc() <= tol
    }

    /// Applies net current `net` for an arbitrarily long `duration` in at
    /// most two analytic sub-steps, splitting at the instant the state of
    /// charge would hit a rail (full when charging, empty when
    /// discharging) under lossless projection.
    ///
    /// This is the closed-form back end of the simulator's
    /// chunk-coalescing fast path: instead of integrating a segment in
    /// fixed control chunks, the simulator hands the whole segment here.
    /// The default implementation is exact for elements whose [`step`]
    /// is itself exact for constant current over any duration (the
    /// lossless [`IdealStorage`] and the leak-free DAC'07
    /// [`SuperCapacitor`] preset); models with time-dependent losses may
    /// override it — [`KineticBattery`] delegates to its native
    /// closed-form `step`, which already handles rail crossings.
    ///
    /// [`step`]: ChargeStorage::step
    fn step_coalesced(&mut self, net: Amps, duration: Seconds) -> StorageFlow {
        if duration <= Seconds::ZERO || net.is_zero() {
            return self.step(net, duration);
        }
        // Lossless projection of the instant the state of charge reaches
        // a rail; beyond it the flow becomes pure bleed (charging) or
        // pure deficit (discharging), so two exact sub-steps cover the
        // whole duration.
        let crossing = if net.is_negative() {
            self.soc() / -net
        } else {
            self.headroom() / net
        };
        if !crossing.is_finite() || crossing >= duration {
            return self.step(net, duration);
        }
        let mut flow = self.step(net, crossing);
        flow.absorb(&self.step(net, duration - crossing));
        flow
    }

    /// The time at which the state of charge would reach `target` under
    /// constant net current `net`, if that happens within `horizon`.
    ///
    /// Returns `Some(t)` with `0 ≤ t ≤ horizon` when the projection
    /// crosses `target` (a zero `t` means the state of charge already
    /// sits on the target), and `None` when it never does within the
    /// horizon — wrong direction, zero net, or too far away. Callers
    /// (the simulator's plan-crossing split) treat `None` as "run the
    /// plan to the end of the segment".
    ///
    /// The default projects linearly, `t = (target − soc) / net`, which
    /// is exact for every model whose state of charge obeys
    /// `d soc/dt = net` between the rails — including [`KineticBattery`],
    /// whose two wells conserve total charge while the available well is
    /// non-empty. A rail hit before `t` stalls the state of charge short
    /// of the target; the caller re-plans from the stalled state, so the
    /// projection needs no rail awareness here.
    fn time_to_soc(&self, net: Amps, target: Charge, horizon: Seconds) -> Option<Seconds> {
        if net.is_zero() {
            return None;
        }
        let t = (target - self.soc()) / net;
        if t >= Seconds::ZERO && t <= horizon {
            Some(t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn default_helpers() {
        let mut s = IdealStorage::new(Charge::new(10.0), Charge::new(4.0));
        assert_eq!(s.soc_fraction(), 0.4);
        assert_eq!(s.headroom().amp_seconds(), 6.0);
        assert!(!s.is_full(Charge::new(0.01)));
        assert!(!s.is_empty(Charge::new(0.01)));
        s.set_soc(Charge::new(10.0));
        assert!(s.is_full(Charge::ZERO));
        s.set_soc(Charge::ZERO);
        assert!(s.is_empty(Charge::ZERO));
    }

    #[test]
    fn zero_capacity_fraction_is_zero() {
        let s = IdealStorage::new(Charge::ZERO, Charge::ZERO);
        assert_eq!(s.soc_fraction(), 0.0);
    }

    #[test]
    fn trait_object_usable() {
        let mut boxed: Box<dyn ChargeStorage> =
            Box::new(IdealStorage::new(Charge::new(5.0), Charge::ZERO));
        let flow = boxed.step(Amps::new(1.0), Seconds::new(2.0));
        assert_eq!(flow.charged.amp_seconds(), 2.0);
    }

    #[test]
    fn coalesced_without_crossing_matches_single_step() {
        let mut a = IdealStorage::new(Charge::new(10.0), Charge::new(4.0));
        let mut b = a.clone();
        let fa = a.step(Amps::new(0.5), Seconds::new(3.0));
        let fb = b.step_coalesced(Amps::new(0.5), Seconds::new(3.0));
        assert_eq!(fa, fb);
        assert_eq!(a.soc(), b.soc());
    }

    #[test]
    fn coalesced_charge_splits_at_saturation() {
        // 4 A·s of headroom at 1 A: full after 4 s, bleeds for 6 s.
        let mut s = IdealStorage::new(Charge::new(10.0), Charge::new(6.0));
        let flow = s.step_coalesced(Amps::new(1.0), Seconds::new(10.0));
        assert!(flow.charged.approx_eq(Charge::new(4.0), 1e-12));
        assert!(flow.bled.approx_eq(Charge::new(6.0), 1e-12));
        assert!(s.is_full(Charge::new(1e-12)));
    }

    #[test]
    fn coalesced_discharge_splits_at_depletion() {
        // 6 A·s at 2 A: empty after 3 s, browns out for 2 s.
        let mut s = IdealStorage::new(Charge::new(10.0), Charge::new(6.0));
        let flow = s.step_coalesced(Amps::new(-2.0), Seconds::new(5.0));
        assert!(flow.discharged.approx_eq(Charge::new(6.0), 1e-12));
        assert!(flow.deficit.approx_eq(Charge::new(4.0), 1e-12));
        assert!(s.is_empty(Charge::new(1e-12)));
    }

    #[test]
    fn coalesced_zero_net_is_noop_for_ideal() {
        let mut s = IdealStorage::new(Charge::new(10.0), Charge::new(4.0));
        let flow = s.step_coalesced(Amps::ZERO, Seconds::new(100.0));
        assert!(flow.is_clean());
        assert_eq!(s.soc().amp_seconds(), 4.0);
    }

    #[test]
    fn coalesced_matches_chunked_within_tolerance() {
        // The closed form and 0.5 s chunking agree to float tolerance on
        // every rail regime (charging into saturation here).
        let mut coalesced = IdealStorage::new(Charge::new(6.0), Charge::new(3.0));
        let mut chunked = coalesced.clone();
        let net = Amps::new(0.33);
        let total = Seconds::new(30.0);
        let fast = coalesced.step_coalesced(net, total);
        let mut slow = StorageFlow::NONE;
        let mut remaining = total;
        while remaining > Seconds::ZERO {
            let dt = remaining.min(Seconds::new(0.5));
            slow.absorb(&chunked.step(net, dt));
            remaining -= dt;
        }
        assert!(fast.charged.approx_eq(slow.charged, 1e-9));
        assert!(fast.bled.approx_eq(slow.bled, 1e-9));
        assert!(coalesced.soc().approx_eq(chunked.soc(), 1e-9));
    }

    #[test]
    fn time_to_soc_projects_linearly() {
        let s = IdealStorage::new(Charge::new(10.0), Charge::new(4.0));
        // 2 A·s away at 0.5 A → 4 s.
        let t = s
            .time_to_soc(Amps::new(0.5), Charge::new(6.0), Seconds::new(100.0))
            .unwrap();
        assert!((t.seconds() - 4.0).abs() < 1e-12);
        // Wrong direction, zero net, or beyond the horizon → None.
        assert!(s
            .time_to_soc(Amps::new(-0.5), Charge::new(6.0), Seconds::new(100.0))
            .is_none());
        assert!(s
            .time_to_soc(Amps::ZERO, Charge::new(6.0), Seconds::new(100.0))
            .is_none());
        assert!(s
            .time_to_soc(Amps::new(0.5), Charge::new(6.0), Seconds::new(1.0))
            .is_none());
        // Already at the target → Some(0).
        let t = s
            .time_to_soc(Amps::new(-0.5), Charge::new(4.0), Seconds::new(10.0))
            .unwrap();
        assert!(t.is_zero());
    }

    #[test]
    fn kibam_soc_moves_at_the_net_rate_while_feasible() {
        // The linear projection is exact for KiBaM while the available
        // well is non-empty: total charge is conserved.
        let mut b = KineticBattery::new(Charge::new(100.0), 0.5, 0.3, 0.01);
        let target = Charge::new(45.0);
        let t = b
            .time_to_soc(Amps::new(-1.0), target, Seconds::new(100.0))
            .unwrap();
        b.step(Amps::new(-1.0), t);
        assert!(b.soc().approx_eq(target, 1e-9));
    }

    #[test]
    fn kibam_coalesced_delegates_to_native_closed_form() {
        let mut a = KineticBattery::new(Charge::new(100.0), 1.0, 0.3, 0.005);
        let mut b = a.clone();
        let fa = a.step(Amps::new(-2.0), Seconds::new(12.0));
        let fb = b.step_coalesced(Amps::new(-2.0), Seconds::new(12.0));
        assert_eq!(fa, fb);
        assert_eq!(a.soc(), b.soc());
    }
}
