//! Cubic splines.
//!
//! These are the workhorse of the response-potential phase: the multipole
//! expansion of the response density (`rho_multipole_spl`) and the partitioned
//! Hartree potential (`delta_v_hart_part_spl`) are both stored as cubic-spline
//! coefficient tables (§4.2), and "number of cubic splines performed" is the
//! metric of Fig. 9(c), which the footprint model counts.  A spline
//! *construction* is the expensive step that the locality-enhancing mapping
//! lets neighbouring atoms share (Fig. 4).

/// A natural cubic spline through `(x_i, y_i)` with strictly increasing `x`.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    x: Vec<f64>,
    y: Vec<f64>,
    /// Second derivatives at the knots.
    y2: Vec<f64>,
}

impl CubicSpline {
    /// Construct a natural cubic spline. Panics if fewer than 2 points or
    /// `x` not strictly increasing.
    pub fn natural(x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(x.len() >= 2, "need at least two knots");
        for w in x.windows(2) {
            assert!(w[1] > w[0], "x must be strictly increasing");
        }
        let n = x.len();
        let mut y2 = vec![0.0; n];
        let mut u = vec![0.0; n];
        // Tridiagonal sweep (natural boundary conditions: y2[0] = y2[n-1] = 0).
        for i in 1..n - 1 {
            let sig = (x[i] - x[i - 1]) / (x[i + 1] - x[i - 1]);
            let p = sig * y2[i - 1] + 2.0;
            y2[i] = (sig - 1.0) / p;
            let d = (y[i + 1] - y[i]) / (x[i + 1] - x[i]) - (y[i] - y[i - 1]) / (x[i] - x[i - 1]);
            u[i] = (6.0 * d / (x[i + 1] - x[i - 1]) - sig * u[i - 1]) / p;
        }
        for i in (0..n - 1).rev() {
            y2[i] = y2[i] * y2[i + 1] + u[i];
        }
        CubicSpline { x, y, y2 }
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when there are no knots (never for a constructed spline).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.x
    }

    /// Knot values.
    pub fn values(&self) -> &[f64] {
        &self.y
    }

    /// Second derivatives at the knots.
    pub fn second_derivatives(&self) -> &[f64] {
        &self.y2
    }

    /// Evaluate at `t`. Outside the knot range the boundary polynomial is
    /// extrapolated (FHI-aims clamps radial splines the same way; callers
    /// that need hard cutoffs zero the value themselves).
    pub fn eval(&self, t: f64) -> f64 {
        let n = self.x.len();
        // Binary search for the bracketing interval.
        let k = match self
            .x
            .binary_search_by(|v| v.partial_cmp(&t).expect("finite knot"))
        {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let h = self.x[k + 1] - self.x[k];
        let a = (self.x[k + 1] - t) / h;
        let b = (t - self.x[k]) / h;
        a * self.y[k]
            + b * self.y[k + 1]
            + ((a * a * a - a) * self.y2[k] + (b * b * b - b) * self.y2[k + 1]) * (h * h) / 6.0
    }

    /// Locate the bracketing interval `k` and barycentric weights `(a, b)`
    /// for `t` against a shared knot vector — the exact search and weight
    /// arithmetic of [`eval`](Self::eval), factored out so that a family of
    /// splines over the *same* knots (every radial channel of an atom) pays
    /// one binary search instead of one per spline. Feed the result to
    /// [`eval_at`](Self::eval_at); `eval_at(locate(knots, t)) == eval(t)`
    /// bit for bit.
    pub fn locate(knots: &[f64], t: f64) -> (usize, f64, f64) {
        let n = knots.len();
        let k = match knots.binary_search_by(|v| v.partial_cmp(&t).expect("finite knot")) {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let h = knots[k + 1] - knots[k];
        let a = (knots[k + 1] - t) / h;
        let b = (t - knots[k]) / h;
        (k, a, b)
    }

    /// Evaluate from a prepared `(k, a, b)` triple (see
    /// [`locate`](Self::locate)). The expression is identical to
    /// [`eval`](Self::eval)'s, so results match bit for bit as long as the
    /// triple was located against this spline's own knot vector.
    #[inline]
    pub fn eval_at(&self, k: usize, a: f64, b: f64) -> f64 {
        let h = self.x[k + 1] - self.x[k];
        a * self.y[k]
            + b * self.y[k + 1]
            + ((a * a * a - a) * self.y2[k] + (b * b * b - b) * self.y2[k + 1]) * (h * h) / 6.0
    }

    /// Evaluate the first derivative at `t`.
    pub fn eval_deriv(&self, t: f64) -> f64 {
        let n = self.x.len();
        let k = match self
            .x
            .binary_search_by(|v| v.partial_cmp(&t).expect("finite knot"))
        {
            Ok(i) => i.min(n - 2),
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        let h = self.x[k + 1] - self.x[k];
        let a = (self.x[k + 1] - t) / h;
        let b = (t - self.x[k]) / h;
        (self.y[k + 1] - self.y[k]) / h
            + ((3.0 * b * b - 1.0) * self.y2[k + 1] - (3.0 * a * a - 1.0) * self.y2[k]) * h / 6.0
    }

    /// Integral over the full knot range (exact for the piecewise cubic).
    pub fn integral(&self) -> f64 {
        let mut acc = 0.0;
        for k in 0..self.x.len() - 1 {
            let h = self.x[k + 1] - self.x[k];
            acc += 0.5 * h * (self.y[k] + self.y[k + 1])
                - h * h * h / 24.0 * (self.y2[k] + self.y2[k + 1]);
        }
        acc
    }

    /// Heap footprint of the coefficient table in bytes (used for the
    /// Fig. 12(a) RMA-volume analysis).
    pub fn memory_bytes(&self) -> usize {
        (self.x.len() + self.y.len() + self.y2.len()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_knots_exactly() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let y = vec![1.0, 2.0, 0.0, 5.0];
        let s = CubicSpline::natural(x.clone(), y.clone());
        for (xi, yi) in x.iter().zip(y.iter()) {
            assert!((s.eval(*xi) - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn reproduces_linear_function_exactly() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|t| 3.0 * t - 1.0).collect();
        let s = CubicSpline::natural(x, y);
        for i in 0..90 {
            let t = i as f64 * 0.1;
            assert!((s.eval(t) - (3.0 * t - 1.0)).abs() < 1e-10);
            assert!((s.eval_deriv(t) - 3.0).abs() < 1e-10);
        }
    }

    #[test]
    fn approximates_sine_with_small_error() {
        let n = 50;
        let x: Vec<f64> = (0..n)
            .map(|i| i as f64 / (n - 1) as f64 * std::f64::consts::PI)
            .collect();
        let y: Vec<f64> = x.iter().map(|t| t.sin()).collect();
        let s = CubicSpline::natural(x, y);
        for i in 0..500 {
            let t = i as f64 / 499.0 * std::f64::consts::PI;
            assert!((s.eval(t) - t.sin()).abs() < 1e-5, "at t = {t}");
        }
    }

    #[test]
    fn integral_of_sine_over_pi_is_two() {
        let n = 200;
        let x: Vec<f64> = (0..n)
            .map(|i| i as f64 / (n - 1) as f64 * std::f64::consts::PI)
            .collect();
        let y: Vec<f64> = x.iter().map(|t| t.sin()).collect();
        let s = CubicSpline::natural(x, y);
        assert!((s.integral() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn locate_plus_eval_at_is_bit_identical_to_eval() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.13).exp() * 0.01).collect();
        let y: Vec<f64> = x.iter().map(|t| (t * 2.1).sin() / (1.0 + t)).collect();
        let s = CubicSpline::natural(x.clone(), y);
        // Inside, at knots, below the first knot, above the last knot.
        let mut probes: Vec<f64> = (0..200).map(|i| i as f64 * 0.021 - 0.05).collect();
        probes.extend_from_slice(&x);
        for t in probes {
            let (k, a, b) = CubicSpline::locate(&x, t);
            assert_eq!(
                s.eval_at(k, a, b).to_bits(),
                s.eval(t).to_bits(),
                "prepared eval must match direct eval at t = {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_knots_panic() {
        let _ = CubicSpline::natural(vec![0.0, 0.0, 1.0], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let x: Vec<f64> = (0..30).map(|i| i as f64 * 0.2).collect();
        let y: Vec<f64> = x.iter().map(|t| (t * 0.7).cos() * t).collect();
        let s = CubicSpline::natural(x, y);
        for i in 1..25 {
            let t = i as f64 * 0.23 + 0.1;
            let h = 1e-6;
            let fd = (s.eval(t + h) - s.eval(t - h)) / (2.0 * h);
            assert!((s.eval_deriv(t) - fd).abs() < 1e-6, "at t = {t}");
        }
    }

    #[test]
    fn memory_bytes_is_three_tables() {
        let s = CubicSpline::natural(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 4.0]);
        assert_eq!(s.memory_bytes(), 3 * 3 * 8);
    }
}
