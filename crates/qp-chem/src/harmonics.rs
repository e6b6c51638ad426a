//! Real spherical harmonics.
//!
//! The multipole machinery of the response-potential phase expands densities
//! and potentials in real spherical harmonics up to `l = pmax ≤ 9` (§4.4 of
//! the paper — the Adams-Moulton loop iterates over exactly the `(p, m)`
//! pairs these functions index). We implement the standard orthonormal real
//! harmonics via associated-Legendre recursion.

/// Maximum angular momentum supported (paper: pmax ≤ 9; we leave headroom).
pub const LMAX_SUPPORTED: usize = 12;

/// Number of real harmonics with `l ≤ lmax`: `(lmax+1)²`.
pub const fn num_harmonics(lmax: usize) -> usize {
    (lmax + 1) * (lmax + 1)
}

/// Flattened index of `(l, m)` with `-l ≤ m ≤ l`: `l² + l + m`.
///
/// This is the same `idx = p² + p + m` linearization the paper's §4.4
/// loop-collapse example uses.
#[inline]
pub fn lm_index(l: usize, m: i64) -> usize {
    debug_assert!(m.unsigned_abs() as usize <= l);
    (l * l) + (l as i64 + m) as usize
}

/// Inverse of [`lm_index`]: recover `(l, m)` from the flattened index —
/// `l = isqrt(idx)`, `m = idx - l² - l` (the collapsed-loop body of §4.4).
#[inline]
pub fn lm_from_index(idx: usize) -> (usize, i64) {
    let l = idx.isqrt();
    let m = idx as i64 - (l * l) as i64 - l as i64;
    (l, m)
}

/// Evaluate all associated Legendre polynomials `P_l^m(x)` for
/// `0 ≤ m ≤ l ≤ lmax` into `plm[l*(l+1)/2 + m]`, including the
/// Condon–Shortley phase. The oracle form's workspace fill.
#[cfg(test)]
fn assoc_legendre_all(lmax: usize, x: f64, plm: &mut [f64]) {
    let idx = |l: usize, m: usize| l * (l + 1) / 2 + m;
    let somx2 = ((1.0 - x) * (1.0 + x)).max(0.0).sqrt();
    plm[idx(0, 0)] = 1.0;
    // Diagonal recursion: P_m^m = -(2m-1) sqrt(1-x^2) P_{m-1}^{m-1}.
    for m in 1..=lmax {
        plm[idx(m, m)] = -((2 * m - 1) as f64) * somx2 * plm[idx(m - 1, m - 1)];
    }
    // First off-diagonal: P_{m+1}^m = (2m+1) x P_m^m.
    for m in 0..lmax {
        plm[idx(m + 1, m)] = (2 * m + 1) as f64 * x * plm[idx(m, m)];
    }
    // Upward recursion in l.
    for m in 0..=lmax {
        for l in (m + 2)..=lmax {
            plm[idx(l, m)] = (((2 * l - 1) as f64) * x * plm[idx(l - 1, m)]
                - ((l + m - 1) as f64) * plm[idx(l - 2, m)])
                / ((l - m) as f64);
        }
    }
}

/// The unit direction of `dir` (not necessarily normalized; `(0, 0, 1)`
/// for the zero vector) as the harmonics read it: returns `cos θ` and
/// writes `cos mφ` and `sin mφ` to `trig[2(m − 1)]` and `trig[2m − 1]` for
/// `1 ≤ m ≤ lmax` — the azimuth step of [`real_spherical_harmonics`], one
/// `atan2` and `2·lmax` trig calls, none at `lmax = 0`.
fn direction_angles(lmax: usize, dir: [f64; 3], trig: &mut [f64]) -> f64 {
    let r = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
    let (x, y, z) = if r > 0.0 {
        (dir[0] / r, dir[1] / r, dir[2] / r)
    } else {
        (0.0, 0.0, 1.0)
    };
    if lmax > 0 {
        let phi = y.atan2(x);
        for (m, cs) in trig[..2 * lmax].chunks_exact_mut(2).enumerate() {
            let mm = (m + 1) as f64;
            cs[0] = (mm * phi).cos();
            cs[1] = (mm * phi).sin();
        }
    }
    z
}

/// Entries of a Legendre table up to [`LMAX_SUPPORTED`], indexed
/// `l(l+1)/2 + m`.
const PLM_LEN: usize = (LMAX_SUPPORTED + 1) * (LMAX_SUPPORTED + 2) / 2;

/// `P_l^m(x)` from the entries of `plm` before it (`somx2 = √(1 − x²)`):
/// the diagonal, first off-diagonal or upward recursion of the oracle's
/// workspace fill, each the same expression. Inlined with constant
/// `(l, m)`, it folds to the one recursion it is, with constant
/// coefficients.
#[inline(always)]
fn legendre_step(l: usize, m: usize, x: f64, somx2: f64, plm: &[f64; PLM_LEN]) -> f64 {
    let pidx = |l: usize, m: usize| l * (l + 1) / 2 + m;
    if l == 0 {
        1.0
    } else if l == m {
        -((2 * m - 1) as f64) * somx2 * plm[pidx(m - 1, m - 1)]
    } else if l == m + 1 {
        (2 * m + 1) as f64 * x * plm[pidx(m, m)]
    } else {
        (((2 * l - 1) as f64) * x * plm[pidx(l - 1, m)]
            - ((l + m - 1) as f64) * plm[pidx(l - 2, m)])
            / ((l - m) as f64)
    }
}

/// One [`legendre_step`] per listed `(l, m)` with constant arguments, row
/// `l` only when `l ≤ lmax`: straight-line code, which the compiler does
/// not make of the loops for these rows.
macro_rules! unrolled_rows {
    ($lmax:expr, $step:expr; $($l:literal: $($m:literal)*;)*) => {
        $(if $l <= $lmax {
            $($step($l, $m);)*
        })*
    };
}

/// Every real harmonic `Y_lm` with `l ≤ lmax` from `cos θ` and the
/// azimuth values of [`direction_angles`], into `out` indexed by
/// [`lm_index`]: the polar step of [`real_spherical_harmonics`].
///
/// The associated Legendre functions (with the Condon–Shortley phase) are
/// formed row by row, each from the rows before it, and each value is
/// scaled by its normalization and by `cos mφ` or `sin mφ` as soon as it
/// is formed. Rows up to 4, the orders the Hartree kernels run at, are
/// straight-line code with constant coefficients (a division by 2 or 4
/// becomes the exact multiplication); higher rows run as a loop. Every
/// value is the same expression on the same operands as in the per-call
/// form, so each harmonic has its bits.
#[inline(always)]
fn harmonics_from_angles(lmax: usize, cos_theta: f64, trig: &[f64], out: &mut [f64]) {
    let x = cos_theta;
    let norms = norm_table();
    let trig = &trig[..2 * lmax];
    let out = &mut out[..num_harmonics(lmax)];
    let somx2 = ((1.0 - x) * (1.0 + x)).max(0.0).sqrt();
    let mut plm = [0.0f64; PLM_LEN];
    let mut step = |l: usize, m: usize| {
        let p = legendre_step(l, m, x, somx2, &plm);
        let i = l * (l + 1) / 2 + m;
        plm[i] = p;
        let np = norms[i] * p;
        if m == 0 {
            out[lm_index(l, 0)] = np;
        } else {
            out[lm_index(l, m as i64)] = np * trig[2 * m - 2];
            out[lm_index(l, -(m as i64))] = np * trig[2 * m - 1];
        }
    };
    step(0, 0);
    unrolled_rows!(lmax, step; 1: 0 1; 2: 0 1 2; 3: 0 1 2 3; 4: 0 1 2 3 4;);
    for l in 5..=lmax {
        for m in 0..=l {
            step(l, m);
        }
    }
}

/// Evaluate all real spherical harmonics `Y_lm` with `l ≤ lmax` at the unit
/// direction `(x, y, z)` (not necessarily normalized; it is normalized
/// internally). Output is indexed by [`lm_index`]; length `(lmax+1)²`.
///
/// Normalization: `∫ Y_lm Y_l'm' dΩ = δ δ`.
///
/// The azimuth step ([`direction_angles`]: one `atan2`, skipped at
/// `lmax = 0`, and `cos(mφ)`/`sin(mφ)` once per `m`) then the polar step
/// ([`harmonics_from_angles`]), allocation-free. Every value is the same
/// expression on the same operands as the per-call form it replaced (kept
/// as the test oracle `real_spherical_harmonics_oracle`), so each harmonic
/// has its bits: a harmonic does not depend on `lmax`, and the grid
/// tabulation, the direct and planned Hartree paths and the multipole
/// moments all stay on their bit-identity contracts.
pub fn real_spherical_harmonics(lmax: usize, dir: [f64; 3], out: &mut [f64]) {
    assert!(lmax <= LMAX_SUPPORTED);
    assert!(out.len() >= num_harmonics(lmax));
    let mut trig = [0.0f64; 2 * LMAX_SUPPORTED];
    let cos_theta = direction_angles(lmax, dir, &mut trig);
    harmonics_from_angles(lmax, cos_theta, &trig, out);
}

/// The per-call form of [`real_spherical_harmonics`]: a heap Legendre
/// workspace, each normalization recomputed, and two trig calls per
/// `(l, m)`. The bit oracle of the allocation-free evaluator and of
/// everything tabulated with it.
#[cfg(test)]
pub fn real_spherical_harmonics_oracle(lmax: usize, dir: [f64; 3], out: &mut [f64]) {
    assert!(lmax <= LMAX_SUPPORTED);
    assert!(out.len() >= num_harmonics(lmax));
    let r = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
    let (x, y, z) = if r > 0.0 {
        (dir[0] / r, dir[1] / r, dir[2] / r)
    } else {
        (0.0, 0.0, 1.0)
    };
    let cos_theta = z;

    let mut plm = vec![0.0; (lmax + 1) * (lmax + 2) / 2];
    assoc_legendre_all(lmax, cos_theta, &mut plm);
    let pidx = |l: usize, m: usize| l * (l + 1) / 2 + m;
    let phi = y.atan2(x);

    let fourpi = 4.0 * std::f64::consts::PI;
    for l in 0..=lmax {
        // m = 0.
        let n0 = ((2 * l + 1) as f64 / fourpi).sqrt();
        out[lm_index(l, 0)] = n0 * plm[pidx(l, 0)];
        // m > 0.
        let mut fact_ratio = 1.0; // (l-m)!/(l+m)!
        let mut cs_sign = 1.0; // (-1)^m cancels the Condon-Shortley phase
        for m in 1..=l {
            fact_ratio /= ((l + m) * (l - m + 1)) as f64;
            cs_sign = -cs_sign;
            let nm = cs_sign
                * ((2 * l + 1) as f64 / fourpi * fact_ratio).sqrt()
                * std::f64::consts::SQRT_2;
            let p = plm[pidx(l, m)];
            let mm = m as f64;
            out[lm_index(l, m as i64)] = nm * p * (mm * phi).cos();
            out[lm_index(l, -(m as i64))] = nm * p * (mm * phi).sin();
        }
    }
}

/// Convenience: allocate and return the harmonics vector (per-call
/// oracle form).
#[cfg(test)]
pub fn ylm_vec(lmax: usize, dir: [f64; 3]) -> Vec<f64> {
    let mut out = vec![0.0; num_harmonics(lmax)];
    real_spherical_harmonics_oracle(lmax, dir, &mut out);
    out
}

/// Normalization constants of the real harmonics, indexed `l*(l+1)/2 + m`
/// for `0 ≤ m ≤ l ≤ LMAX_SUPPORTED`: the per-call constants of the oracle
/// form, each the same expression, tabulated once.
fn norm_table() -> &'static [f64; PLM_LEN] {
    use std::sync::OnceLock;
    static NORMS: OnceLock<[f64; PLM_LEN]> = OnceLock::new();
    NORMS.get_or_init(|| {
        let lmax = LMAX_SUPPORTED;
        let pidx = |l: usize, m: usize| l * (l + 1) / 2 + m;
        let fourpi = 4.0 * std::f64::consts::PI;
        let mut t = [0.0; PLM_LEN];
        for l in 0..=lmax {
            t[pidx(l, 0)] = ((2 * l + 1) as f64 / fourpi).sqrt();
            let mut fact_ratio = 1.0;
            let mut cs_sign = 1.0;
            for m in 1..=l {
                fact_ratio /= ((l + m) * (l - m + 1)) as f64;
                cs_sign = -cs_sign;
                t[pidx(l, m)] = cs_sign
                    * ((2 * l + 1) as f64 / fourpi * fact_ratio).sqrt()
                    * std::f64::consts::SQRT_2;
            }
        }
        t
    })
}

/// Fast variant of [`real_spherical_harmonics`] for the hierarchical
/// far-field hot loop: `cos(mφ)/sin(mφ)` by the complex rotation
/// recurrence instead of an `atan2` and 2·lmax libm trig calls.
///
/// NOT bit-identical to the reference evaluator (the azimuthal recurrence
/// rounds differently in the last ulp) — callers on a bit-identity contract
/// (the direct Hartree path, grid tabulation) must keep using
/// [`real_spherical_harmonics`]. Agreement is at the 1e-14 level, far
/// inside the far-field accuracy budget; a test pins this.
pub fn real_spherical_harmonics_fast(lmax: usize, dir: [f64; 3], out: &mut [f64]) {
    assert!(lmax <= LMAX_SUPPORTED);
    assert!(out.len() >= num_harmonics(lmax));
    let r = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
    let (x, y, z) = if r > 0.0 {
        (dir[0] / r, dir[1] / r, dir[2] / r)
    } else {
        (0.0, 0.0, 1.0)
    };
    let rho = (x * x + y * y).sqrt();
    let (cphi, sphi) = if rho > 0.0 {
        (x / rho, y / rho)
    } else {
        (1.0, 0.0)
    };
    let mut trig = [0.0f64; 2 * LMAX_SUPPORTED];
    let (mut cm, mut sm) = (1.0f64, 0.0f64); // cos(mφ), sin(mφ)
    for cs in trig[..2 * lmax].chunks_exact_mut(2) {
        (cm, sm) = (cm * cphi - sm * sphi, sm * cphi + cm * sphi);
        (cs[0], cs[1]) = (cm, sm);
    }
    harmonics_from_angles(lmax, z, &trig, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_index_round_trip() {
        for l in 0..=9usize {
            for m in -(l as i64)..=(l as i64) {
                let idx = lm_index(l, m);
                assert_eq!(lm_from_index(idx), (l, m));
            }
        }
        assert_eq!(num_harmonics(9), 100);
    }

    #[test]
    fn y00_is_constant() {
        let v = ylm_vec(0, [0.3, -0.2, 0.9]);
        let expect = 0.5 / std::f64::consts::PI.sqrt();
        assert!((v[0] - expect).abs() < 1e-14);
    }

    #[test]
    fn y1m_matches_cartesian_forms() {
        // Y_1,-1 = sqrt(3/4π) y; Y_1,0 = sqrt(3/4π) z; Y_1,1 = sqrt(3/4π) x.
        let dir = [0.48, -0.6, 0.64];
        let c = (3.0 / (4.0 * std::f64::consts::PI)).sqrt();
        let v = ylm_vec(1, dir);
        assert!((v[lm_index(1, -1)] - c * dir[1]).abs() < 1e-12);
        assert!((v[lm_index(1, 0)] - c * dir[2]).abs() < 1e-12);
        assert!((v[lm_index(1, 1)] - c * dir[0]).abs() < 1e-12);
    }

    #[test]
    fn y2m_known_value_on_axis() {
        // On the z axis, only m = 0 harmonics are nonzero and
        // Y_l0(z=1) = sqrt((2l+1)/4π).
        let v = ylm_vec(4, [0.0, 0.0, 1.0]);
        for l in 0..=4usize {
            let expect = ((2 * l + 1) as f64 / (4.0 * std::f64::consts::PI)).sqrt();
            assert!((v[lm_index(l, 0)] - expect).abs() < 1e-12, "l = {l}");
            for m in 1..=(l as i64) {
                assert!(v[lm_index(l, m)].abs() < 1e-12);
                assert!(v[lm_index(l, -m)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn orthonormality_via_dense_quadrature() {
        // Gauss-free check: uniform theta-phi product grid converges slowly
        // but 200x400 is plenty for l <= 4 at 1e-6.
        let lmax = 4;
        let nh = num_harmonics(lmax);
        let ntheta = 200;
        let nphi = 400;
        let mut gram = vec![0.0; nh * nh];
        let mut buf = vec![0.0; nh];
        for it in 0..ntheta {
            let theta = (it as f64 + 0.5) / ntheta as f64 * std::f64::consts::PI;
            let wt =
                theta.sin() * std::f64::consts::PI / ntheta as f64 * 2.0 * std::f64::consts::PI
                    / nphi as f64;
            for ip in 0..nphi {
                let phi = ip as f64 / nphi as f64 * 2.0 * std::f64::consts::PI;
                let dir = [
                    theta.sin() * phi.cos(),
                    theta.sin() * phi.sin(),
                    theta.cos(),
                ];
                real_spherical_harmonics(lmax, dir, &mut buf);
                for a in 0..nh {
                    for b in a..nh {
                        gram[a * nh + b] += wt * buf[a] * buf[b];
                    }
                }
            }
        }
        for a in 0..nh {
            for b in a..nh {
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!(
                    (gram[a * nh + b] - expect).abs() < 1e-4,
                    "gram[{a},{b}] = {}",
                    gram[a * nh + b]
                );
            }
        }
    }

    #[test]
    fn allocation_free_harmonics_match_the_per_call_oracle_bit_for_bit() {
        // Pseudo-random directions over the sphere and at every scale, the
        // zero vector, the poles, the axes and in-plane directions (where
        // the Legendre argument cos θ is exactly 0).
        let mut dirs: Vec<[f64; 3]> = vec![
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 3.7e-6],
            [0.0, 0.0, -2.5e3],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.6, -0.8, 0.0],
            [-1.3, -0.2, 0.0],
            [1e-12, 1e-12, 0.0],
            [-0.0, 0.0, -0.0],
        ];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        for i in 0..400 {
            let scale = 10f64.powi(i % 13 - 6);
            dirs.push([next() * scale, next() * scale, next() * scale]);
        }
        for lmax in 0..=LMAX_SUPPORTED {
            let n = num_harmonics(lmax);
            let (mut free, mut oracle) = (vec![0.0; n], vec![0.0; n]);
            for d in &dirs {
                real_spherical_harmonics(lmax, *d, &mut free);
                real_spherical_harmonics_oracle(lmax, *d, &mut oracle);
                for idx in 0..n {
                    assert_eq!(
                        free[idx].to_bits(),
                        oracle[idx].to_bits(),
                        "lmax {lmax}, direction {d:?}, harmonic {:?}",
                        lm_from_index(idx)
                    );
                }
            }
        }
    }

    #[test]
    fn zero_direction_does_not_panic() {
        let v = ylm_vec(2, [0.0, 0.0, 0.0]);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
