//! Layer-sum reconciliation: a whole must equal the sum of its layers
//! within a stated tolerance, and the gap is reported as its own number
//! instead of being hidden.

use std::fmt;

/// Allowed gap: `abs + rel · whole`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    pub rel: f64,
    pub abs: f64,
}

impl Tolerance {
    pub const fn new(rel: f64, abs: f64) -> Self {
        Tolerance { rel, abs }
    }

    /// The largest gap allowed against `whole`.
    pub fn allowed(&self, whole: f64) -> f64 {
        self.abs + self.rel * whole.abs()
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}%", self.abs, self.rel * 100.0)
    }
}

/// A failed reconciliation, with the numbers that failed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    pub check: String,
    pub whole: f64,
    pub parts: f64,
    pub allowed: f64,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: whole {:.6} vs layers {:.6} (gap {:.6}, allowed {:.6})",
            self.check,
            self.whole,
            self.parts,
            self.whole - self.parts,
            self.allowed
        )
    }
}

/// Checks `whole ≈ Σ parts`: the layers must neither exceed the whole
/// nor leave more than the tolerance of it unattributed. Returns the
/// unattributed remainder `whole − Σ parts` on success.
pub fn sum_matches(
    check: &str,
    whole: f64,
    parts: &[f64],
    tol: Tolerance,
) -> Result<f64, Mismatch> {
    let sum: f64 = parts.iter().sum();
    let gap = whole - sum;
    let allowed = tol.allowed(whole);
    if gap.abs() <= allowed {
        Ok(gap)
    } else {
        Err(Mismatch {
            check: check.to_string(),
            whole,
            parts: sum,
            allowed,
        })
    }
}

/// Checks `Σ parts ≤ whole` (within the tolerance): for layers that
/// cover only part of the whole, such as distance and GNN time inside a
/// query. Returns the remainder `whole − Σ parts`.
pub fn sum_within(check: &str, whole: f64, parts: &[f64], tol: Tolerance) -> Result<f64, Mismatch> {
    let sum: f64 = parts.iter().sum();
    let allowed = tol.allowed(whole);
    if sum <= whole + allowed {
        Ok(whole - sum)
    } else {
        Err(Mismatch {
            check: check.to_string(),
            whole,
            parts: sum,
            allowed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: Tolerance = Tolerance::new(0.05, 0.1);

    #[test]
    fn matching_layers_pass_and_report_the_gap() {
        let gap = sum_matches("t", 10.0, &[6.0, 3.8], TOL).unwrap();
        assert!((gap - 0.2).abs() < 1e-12);
    }

    #[test]
    fn planted_gap_is_rejected() {
        // 10 - (6 + 3) = 1 > 0.1 + 5% of 10.
        let err = sum_matches("build", 10.0, &[6.0, 3.0], TOL).unwrap_err();
        assert_eq!(err.check, "build");
        assert!((err.parts - 9.0).abs() < 1e-12);
        assert!((err.allowed - 0.6).abs() < 1e-12);
        // Layers that overshoot the whole are rejected the same way.
        assert!(sum_matches("over", 10.0, &[6.0, 5.0], TOL).is_err());
    }

    #[test]
    fn partial_layers_may_not_exceed_the_whole() {
        assert!(sum_within("q", 10.0, &[2.0, 3.0], TOL).is_ok());
        assert!(sum_within("q", 10.0, &[6.0, 4.5], TOL).is_ok());
        assert!(sum_within("q", 10.0, &[6.0, 5.0], TOL).is_err());
    }
}
