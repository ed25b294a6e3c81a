//! The paper's linear system-efficiency model and its fitter.
//!
//! Over the load-following range the measured system efficiency is well
//! approximated by a straight line (Equation 2):
//!
//! ```text
//! η_s(I_F) ≈ α − β·I_F          (α = 0.45, β = 0.13 in the paper's setup)
//! ```
//!
//! Combining with `η_s = V_F·I_F / (ζ·I_fc)` (Equation 1) gives the
//! fuel-flow relation the whole optimization framework rests on
//! (Equations 3–4):
//!
//! ```text
//! I_fc(I_F) = V_F·I_F / (ζ·(α − β·I_F))     ( = 0.32·I_F/η_s in the paper)
//! ```
//!
//! `I_fc(I_F)` is strictly convex and increasing on the model's domain,
//! which is why averaging the FC output across a slot (Section 3.3) saves
//! fuel — Jensen's inequality in one line.

use fcdpm_units::{Amps, Charge, Efficiency, Seconds, Volts};

use crate::fuel::GibbsCoefficient;
use crate::FuelCellError;

/// The linear efficiency model `η_s(I_F) = α − β·I_F` with the bus voltage
/// and Gibbs coefficient needed to convert to stack current.
///
/// # Examples
///
/// ```
/// use fcdpm_units::Amps;
/// use fcdpm_fuelcell::LinearEfficiency;
///
/// # fn main() -> Result<(), fcdpm_fuelcell::FuelCellError> {
/// let eff = LinearEfficiency::dac07();
/// // Paper Section 3.2: I_F = 1.2 A → I_fc = 1.3 A.
/// let i_fc = eff.stack_current(Amps::new(1.2))?;
/// assert!((i_fc.amps() - 1.306).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearEfficiency {
    alpha: f64,
    beta: f64,
    v_bus: Volts,
    zeta: GibbsCoefficient,
}

/// Result of fitting a [`LinearEfficiency`] to sampled efficiency data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyFit {
    /// The fitted model.
    pub model: LinearEfficiency,
    /// Largest absolute residual `|η_sample − η_model|` over the samples.
    pub max_residual: f64,
    /// Root-mean-square residual over the samples.
    pub rmse: f64,
}

impl LinearEfficiency {
    /// Creates a model from its coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::InvalidParameter`] if `alpha` is not in
    /// `(0, 1]` or `beta` is negative or non-finite.
    pub fn new(
        alpha: f64,
        beta: f64,
        v_bus: Volts,
        zeta: GibbsCoefficient,
    ) -> Result<Self, FuelCellError> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
            return Err(FuelCellError::InvalidParameter { name: "alpha" });
        }
        if !beta.is_finite() || beta < 0.0 {
            return Err(FuelCellError::InvalidParameter { name: "beta" });
        }
        if v_bus.volts() <= 0.0 {
            return Err(FuelCellError::InvalidParameter { name: "v_bus" });
        }
        Ok(Self {
            alpha,
            beta,
            v_bus,
            zeta,
        })
    }

    /// The paper's measured model: α = 0.45, β = 0.13, V_F = 12 V,
    /// ζ = 37.5 — so `I_fc = 0.32·I_F/η_s` exactly as in Equation 4.
    /// Constructed directly — the literals trivially satisfy the
    /// [`new`](Self::new) invariants (α ∈ (0, 1], β ≥ 0, V_F > 0).
    #[must_use]
    pub fn dac07() -> Self {
        Self {
            alpha: 0.45,
            beta: 0.13,
            v_bus: Volts::new(12.0),
            zeta: GibbsCoefficient::dac07(),
        }
    }

    /// A constant-efficiency model (β = 0) at level `alpha` — the
    /// configuration of the authors' earlier work, and the ablation that
    /// collapses FC-DPM's advantage over ASAP-DPM to zero.
    ///
    /// # Errors
    ///
    /// Same as [`LinearEfficiency::new`].
    pub fn constant(
        alpha: f64,
        v_bus: Volts,
        zeta: GibbsCoefficient,
    ) -> Result<Self, FuelCellError> {
        Self::new(alpha, 0.0, v_bus, zeta)
    }

    /// Intercept α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Slope β (per ampere).
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Bus voltage `V_F`.
    #[must_use]
    pub fn bus_voltage(&self) -> Volts {
        self.v_bus
    }

    /// Gibbs coefficient ζ.
    #[must_use]
    pub fn zeta(&self) -> GibbsCoefficient {
        self.zeta
    }

    /// The lumped coefficient `V_F/ζ` (0.32 in the paper's Equation 4).
    #[must_use]
    pub fn coefficient(&self) -> f64 {
        self.v_bus.volts() / self.zeta.volts_equivalent()
    }

    /// The largest output current the model supports: `η_s` must stay
    /// strictly positive, so `I_F < α/β` (infinite for β = 0).
    #[must_use]
    pub fn domain_limit(&self) -> Amps {
        if self.beta == 0.0 {
            Amps::new(f64::INFINITY)
        } else {
            Amps::new(self.alpha / self.beta)
        }
    }

    /// Returns `true` if the model is defined (η_s > 0) at `i_f ≥ 0`.
    #[must_use]
    pub fn supports(&self, i_f: Amps) -> bool {
        !i_f.is_negative() && i_f < self.domain_limit()
    }

    /// System efficiency at output current `i_f` (Equation 2).
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::OutOfDomain`] if `i_f` is negative or at
    /// or beyond `α/β`.
    pub fn efficiency(&self, i_f: Amps) -> Result<Efficiency, FuelCellError> {
        if !self.supports(i_f) {
            return Err(FuelCellError::OutOfDomain { current: i_f });
        }
        Ok(Efficiency::saturating(self.alpha - self.beta * i_f.amps()))
    }

    /// Stack current at output current `i_f` (Equation 4):
    /// `I_fc = V_F·I_F / (ζ·(α − β·I_F))`.
    ///
    /// This is also the instantaneous fuel-consumption rate in ampere-
    /// seconds of stack charge per second.
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::OutOfDomain`] if `i_f` is outside the
    /// model's domain.
    pub fn stack_current(&self, i_f: Amps) -> Result<Amps, FuelCellError> {
        let eta = self.efficiency(i_f)?;
        Ok(Amps::new(self.coefficient() * i_f.amps() / eta.value()))
    }

    /// Fuel consumed when holding output current `i_f` for `duration`
    /// (the per-term summand of the paper's objective function, Eq. 5).
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::OutOfDomain`] if `i_f` is outside the
    /// model's domain or `duration` is negative.
    pub fn fuel_for(&self, i_f: Amps, duration: Seconds) -> Result<Charge, FuelCellError> {
        if duration.is_negative() {
            return Err(FuelCellError::OutOfDomain { current: i_f });
        }
        Ok(self.stack_current(i_f)? * duration)
    }

    /// First derivative of the stack current with respect to `i_f`:
    /// `dI_fc/dI_F = (V_F/ζ)·α/(α − β·I_F)²` — the marginal fuel rate,
    /// and the quantity the Lagrange conditions (Equations 8–9) equate
    /// across the idle and active periods.
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::OutOfDomain`] if `i_f` is outside the
    /// model's domain.
    pub fn marginal_fuel_rate(&self, i_f: Amps) -> Result<f64, FuelCellError> {
        let eta = self.efficiency(i_f)?;
        Ok(self.coefficient() * self.alpha / (eta.value() * eta.value()))
    }

    /// Fits `η ≈ α − β·I` to `(I, η)` samples by least squares.
    ///
    /// # Errors
    ///
    /// Returns [`FuelCellError::InvalidParameter`] if fewer than two
    /// distinct currents are supplied or the fitted coefficients violate
    /// the model invariants (e.g. a positive slope fits best).
    pub fn fit(
        samples: &[(Amps, Efficiency)],
        v_bus: Volts,
        zeta: GibbsCoefficient,
    ) -> Result<EfficiencyFit, FuelCellError> {
        if samples.len() < 2 {
            return Err(FuelCellError::InvalidParameter { name: "samples" });
        }
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|(i, _)| i.amps()).sum();
        let sy: f64 = samples.iter().map(|(_, e)| e.value()).sum();
        let sxx: f64 = samples.iter().map(|(i, _)| i.amps() * i.amps()).sum();
        let sxy: f64 = samples.iter().map(|(i, e)| i.amps() * e.value()).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-15 {
            return Err(FuelCellError::InvalidParameter { name: "samples" });
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        let model = Self::new(intercept, -slope, v_bus, zeta)?;
        let mut max_residual = 0.0f64;
        let mut sq_sum = 0.0f64;
        for (i, e) in samples {
            let r = (e.value() - (intercept + slope * i.amps())).abs();
            max_residual = max_residual.max(r);
            sq_sum += r * r;
        }
        Ok(EfficiencyFit {
            model,
            max_residual,
            rmse: (sq_sum / n).sqrt(),
        })
    }
}

impl Default for LinearEfficiency {
    fn default() -> Self {
        Self::dac07()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dac07() -> LinearEfficiency {
        LinearEfficiency::dac07()
    }

    #[test]
    fn motivational_example_currents() {
        // Section 3.2 Setting (b): I_F = 0.2 A → I_fc ≈ 0.15 A,
        // I_F = 1.2 A → I_fc ≈ 1.3 A.
        let e = dac07();
        assert!((e.stack_current(Amps::new(0.2)).unwrap().amps() - 0.1509).abs() < 1e-3);
        assert!((e.stack_current(Amps::new(1.2)).unwrap().amps() - 1.3061).abs() < 1e-3);
        // Setting (c): I_F = 0.53 A → I_fc ≈ 0.448 A.
        assert!((e.stack_current(Amps::new(0.5333)).unwrap().amps() - 0.448).abs() < 1e-3);
    }

    #[test]
    fn efficiency_values() {
        let e = dac07();
        assert!((e.efficiency(Amps::new(0.1)).unwrap().value() - 0.437).abs() < 1e-12);
        assert!((e.efficiency(Amps::new(1.2)).unwrap().value() - 0.294).abs() < 1e-12);
    }

    #[test]
    fn domain_checks() {
        let e = dac07();
        assert!((e.domain_limit().amps() - 0.45 / 0.13).abs() < 1e-12);
        assert!(e.supports(Amps::new(1.2)));
        assert!(!e.supports(Amps::new(3.5)));
        assert!(!e.supports(Amps::new(-0.1)));
        assert!(matches!(
            e.efficiency(Amps::new(4.0)),
            Err(FuelCellError::OutOfDomain { .. })
        ));
        assert!(matches!(
            e.stack_current(Amps::new(-0.1)),
            Err(FuelCellError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn constant_model_has_infinite_domain() {
        let e =
            LinearEfficiency::constant(0.35, Volts::new(12.0), GibbsCoefficient::dac07()).unwrap();
        assert!(e.domain_limit().amps().is_infinite());
        assert!(e.supports(Amps::new(100.0)));
        // With constant efficiency the fuel rate is linear in I_F.
        let a = e.stack_current(Amps::new(0.5)).unwrap().amps();
        let b = e.stack_current(Amps::new(1.0)).unwrap().amps();
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn stack_current_is_convex() {
        // Midpoint rule: I_fc((a+b)/2) < (I_fc(a)+I_fc(b))/2 for a ≠ b.
        let e = dac07();
        for (a, b) in [(0.1, 1.2), (0.2, 0.8), (0.5, 1.1)] {
            let mid = e.stack_current(Amps::new(0.5 * (a + b))).unwrap().amps();
            let avg = 0.5
                * (e.stack_current(Amps::new(a)).unwrap().amps()
                    + e.stack_current(Amps::new(b)).unwrap().amps());
            assert!(mid < avg, "convexity violated on ({a}, {b})");
        }
    }

    #[test]
    fn marginal_rate_is_increasing() {
        let e = dac07();
        let m1 = e.marginal_fuel_rate(Amps::new(0.2)).unwrap();
        let m2 = e.marginal_fuel_rate(Amps::new(1.0)).unwrap();
        assert!(m2 > m1);
        // Closed form at zero: (V_F/ζ)/α.
        let m0 = e.marginal_fuel_rate(Amps::ZERO).unwrap();
        assert!((m0 - 0.32 / 0.45).abs() < 1e-12);
    }

    #[test]
    fn fuel_for_scales_linearly_in_time() {
        let e = dac07();
        let f1 = e.fuel_for(Amps::new(0.5), Seconds::new(10.0)).unwrap();
        let f2 = e.fuel_for(Amps::new(0.5), Seconds::new(20.0)).unwrap();
        assert!((f2.amp_seconds() - 2.0 * f1.amp_seconds()).abs() < 1e-12);
        assert!(e.fuel_for(Amps::new(0.5), Seconds::new(-1.0)).is_err());
    }

    #[test]
    fn fit_recovers_exact_line() {
        let truth = dac07();
        let samples: Vec<(Amps, Efficiency)> = (0..12)
            .map(|k| {
                let i = Amps::new(0.1 + k as f64 * 0.1);
                (i, truth.efficiency(i).unwrap())
            })
            .collect();
        let fit =
            LinearEfficiency::fit(&samples, Volts::new(12.0), GibbsCoefficient::dac07()).unwrap();
        assert!((fit.model.alpha() - 0.45).abs() < 1e-9);
        assert!((fit.model.beta() - 0.13).abs() < 1e-9);
        assert!(fit.max_residual < 1e-9);
        assert!(fit.rmse < 1e-9);
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        let one = [(Amps::new(0.5), Efficiency::new(0.4))];
        assert!(LinearEfficiency::fit(&one, Volts::new(12.0), GibbsCoefficient::dac07()).is_err());
        let same_x = [
            (Amps::new(0.5), Efficiency::new(0.4)),
            (Amps::new(0.5), Efficiency::new(0.41)),
        ];
        assert!(
            LinearEfficiency::fit(&same_x, Volts::new(12.0), GibbsCoefficient::dac07()).is_err()
        );
    }

    #[test]
    fn invalid_coefficients_rejected() {
        let zeta = GibbsCoefficient::dac07();
        assert!(LinearEfficiency::new(0.0, 0.13, Volts::new(12.0), zeta).is_err());
        assert!(LinearEfficiency::new(1.5, 0.13, Volts::new(12.0), zeta).is_err());
        assert!(LinearEfficiency::new(0.45, -0.1, Volts::new(12.0), zeta).is_err());
        assert!(LinearEfficiency::new(0.45, 0.13, Volts::new(0.0), zeta).is_err());
        assert!(LinearEfficiency::new(0.45, f64::NAN, Volts::new(12.0), zeta).is_err());
    }
}
