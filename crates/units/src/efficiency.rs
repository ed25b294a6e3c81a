//! Dimensionless efficiency.

use core::fmt;

/// Error returned when constructing an [`Efficiency`] from an invalid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EfficiencyError {
    /// The value was NaN.
    NotANumber,
    /// The value was negative.
    Negative,
    /// The value exceeded 1 (100 %).
    AboveUnity,
}

impl fmt::Display for EfficiencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotANumber => write!(f, "efficiency was NaN"),
            Self::Negative => write!(f, "efficiency was negative"),
            Self::AboveUnity => write!(f, "efficiency exceeded 1.0"),
        }
    }
}

impl std::error::Error for EfficiencyError {}

/// A dimensionless conversion efficiency in `[0, 1]`.
///
/// Fuel-cell system efficiency, DC-DC converter efficiency and storage
/// round-trip efficiency are all `Efficiency` values. The type guarantees
/// the invariant `0 ≤ η ≤ 1`; arithmetic that could leave the interval goes
/// through [`Efficiency::try_new`].
///
/// # Examples
///
/// ```
/// use fcdpm_units::Efficiency;
///
/// # fn main() -> Result<(), fcdpm_units::EfficiencyError> {
/// let stack = Efficiency::try_new(0.45)?;
/// let dcdc = Efficiency::try_new(0.85)?;
/// let total = stack * dcdc;
/// assert!((total.value() - 0.3825).abs() < 1e-12);
/// assert_eq!(format!("{:.1}", total), "38.2 %");
/// # Ok(())
/// # }
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct Efficiency(f64);

impl Efficiency {
    /// Zero efficiency (all input lost).
    pub const ZERO: Self = Self(0.0);
    /// Perfect (lossless) conversion.
    pub const UNITY: Self = Self(1.0);

    /// Creates an efficiency, validating `0 ≤ value ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns an [`EfficiencyError`] if `value` is NaN, negative, or
    /// greater than 1.
    pub fn try_new(value: f64) -> Result<Self, EfficiencyError> {
        if value.is_nan() {
            Err(EfficiencyError::NotANumber)
        } else if value < 0.0 {
            Err(EfficiencyError::Negative)
        } else if value > 1.0 {
            Err(EfficiencyError::AboveUnity)
        } else {
            Ok(Self(value))
        }
    }

    /// Creates an efficiency, panicking on invalid input.
    ///
    /// Convenient for literals; prefer [`Efficiency::try_new`] for computed
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 1]` or NaN.
    #[must_use]
    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "documented contract of this literal-convenience constructor; computed values go through `try_new`"
    )]
    pub fn new(value: f64) -> Self {
        match Self::try_new(value) {
            Ok(v) => v,
            Err(e) => panic!("invalid efficiency {value}: {e}"),
        }
    }

    /// Creates an efficiency from a value that may fall slightly outside
    /// `[0, 1]` by clamping it into the interval.
    ///
    /// Useful when an efficiency comes out of a numerical solver with
    /// floating-point noise at the boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    #[track_caller]
    pub fn saturating(value: f64) -> Self {
        assert!(!value.is_nan(), "efficiency must not be NaN");
        Self(value.clamp(0.0, 1.0))
    }

    /// Returns the raw value in `[0, 1]`.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the value as a percentage in `[0, 100]`.
    #[must_use]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns `true` if the efficiency is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

/// Chaining two conversion stages multiplies their efficiencies; the result
/// stays in `[0, 1]` by construction.
impl core::ops::Mul for Efficiency {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} %", prec, self.percent())
        } else {
            write!(f, "{} %", self.percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Efficiency::try_new(0.0).is_ok());
        assert!(Efficiency::try_new(1.0).is_ok());
        assert_eq!(
            Efficiency::try_new(f64::NAN),
            Err(EfficiencyError::NotANumber)
        );
        assert_eq!(Efficiency::try_new(-0.1), Err(EfficiencyError::Negative));
        assert_eq!(Efficiency::try_new(1.1), Err(EfficiencyError::AboveUnity));
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Efficiency::saturating(1.0000001).value(), 1.0);
        assert_eq!(Efficiency::saturating(-0.0000001).value(), 0.0);
        assert_eq!(Efficiency::saturating(0.45).value(), 0.45);
    }

    #[test]
    #[should_panic(expected = "invalid efficiency")]
    fn new_panics_above_unity() {
        let _ = Efficiency::new(1.5);
    }

    #[test]
    fn chaining_stages() {
        let total = Efficiency::new(0.5) * Efficiency::new(0.5);
        assert_eq!(total.value(), 0.25);
    }

    #[test]
    fn percent_and_display() {
        let e = Efficiency::new(0.308);
        assert!((e.percent() - 30.8).abs() < 1e-12);
        assert_eq!(format!("{:.1}", e), "30.8 %");
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            EfficiencyError::Negative.to_string(),
            "efficiency was negative"
        );
        assert_eq!(
            EfficiencyError::AboveUnity.to_string(),
            "efficiency exceeded 1.0"
        );
        assert_eq!(
            EfficiencyError::NotANumber.to_string(),
            "efficiency was NaN"
        );
    }
}
