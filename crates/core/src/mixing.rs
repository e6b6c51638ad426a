//! Self-consistency accelerators shared by the ground-state SCF and the
//! DFPT response cycle: plain linear mixing and Pulay/DIIS extrapolation.
//!
//! [`MixState`] is the one mixer of the workspace: the crate's one
//! self-consistency loop mixes the density matrix `P` of the SCF and the
//! response density matrix `P¹` of every DFPT direction through it, its
//! history moving out of the loop state and back each iteration.
//!
//! Everything here is deterministic: the extrapolation is a fixed-order
//! dense solve over the residual history, so mixed iterates are
//! bit-identical at any thread count (the determinism contract of
//! `tests/determinism_threads.rs` extends through the mixer).

use qp_linalg::DMatrix;

/// Which mixer drives a self-consistency cycle: carried in
/// [`crate::dfpt::DfptOptions::mixer`], and derived from
/// [`crate::scf::ScfOptions::pulay`] for the SCF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfptMixer {
    /// Plain linear mixing with the `mixing` factor.
    Linear,
    /// Pulay/DIIS extrapolation over the last `depth` iterates, with the
    /// `mixing` factor as residual damping (and as the linear fallback
    /// while the history is short or after a restart).
    Pulay {
        /// History length (the SCF default is 6).
        depth: usize,
    },
}

/// Pulay/DIIS step: find `c` minimizing `‖Σ cᵢ Rᵢ‖` with `Σ cᵢ = 1`, then
/// return `Σ cᵢ (Pᵢ + damping·Rᵢ)`. Returns `None` when the DIIS system is
/// numerically singular (caller restarts the history).
pub fn pulay_extrapolate(p_in: &[DMatrix], residuals: &[DMatrix], damping: f64) -> Option<DMatrix> {
    let m = p_in.len();
    // KKT system: [[B, 1], [1ᵀ, 0]] [c; λ] = [0; 1].
    let mut kkt = DMatrix::zeros(m + 1, m + 1);
    for i in 0..m {
        for j in 0..m {
            let dot: f64 = residuals[i]
                .as_slice()
                .iter()
                .zip(residuals[j].as_slice().iter())
                .map(|(a, b)| a * b)
                .sum();
            kkt[(i, j)] = dot;
        }
        kkt[(i, m)] = 1.0;
        kkt[(m, i)] = 1.0;
    }
    let mut rhs = vec![0.0; m + 1];
    rhs[m] = 1.0;
    let sol = qp_linalg::dense::lu_solve(&kkt, &rhs).ok()?;
    let mut p = DMatrix::zeros(p_in[0].rows(), p_in[0].cols());
    for i in 0..m {
        let c = sol[i];
        if !c.is_finite() || c.abs() > 1e4 {
            return None;
        }
        p.axpy(c, &p_in[i]).ok()?;
        p.axpy(c * damping, &residuals[i]).ok()?;
    }
    Some(p)
}

/// `(1 − β)·current + β·target`.
pub fn linear_mix(current: &DMatrix, target: &DMatrix, beta: f64) -> DMatrix {
    let mut out = current.clone();
    out.scale(1.0 - beta);
    out.axpy(beta, target).expect("same dims");
    out
}

/// Loop-carried mixer state for one self-consistency cycle: either a plain
/// linear mixer (stateless) or a Pulay history. Construct once per cycle
/// and feed `(current, target)` pairs through [`MixState::step`].
///
/// The Pulay schedule mirrors the SCF loop exactly: linear mixing until
/// three `(input, residual)` pairs are banked, DIIS afterwards, history
/// capped at `depth`, and a restart (clear + one linear step) when the
/// DIIS system is ill-conditioned.
#[derive(Debug, Clone)]
pub enum MixState {
    /// Plain linear mixing.
    Linear {
        /// Mixing factor β.
        beta: f64,
    },
    /// Pulay/DIIS history.
    Pulay {
        /// History length.
        depth: usize,
        /// Residual damping and linear-fallback factor.
        beta: f64,
        /// Input-iterate history (most recent last).
        inputs: Vec<DMatrix>,
        /// Residual history (same length as `inputs`).
        residuals: Vec<DMatrix>,
    },
}

impl MixState {
    /// Fresh mixer state for `mixer` with mixing factor `beta`.
    pub fn new(mixer: DfptMixer, beta: f64) -> Self {
        MixState::with_history(mixer, beta, Vec::new(), Vec::new())
    }

    /// Rebuild mixer state from a checkpointed history (empty vectors for
    /// the linear mixer). The histories must replay the fault-free
    /// sequence bit-exactly, which holds because [`MixState::step`] is
    /// deterministic in its inputs.
    pub fn with_history(
        mixer: DfptMixer,
        beta: f64,
        inputs: Vec<DMatrix>,
        residuals: Vec<DMatrix>,
    ) -> Self {
        match mixer {
            DfptMixer::Linear => MixState::Linear { beta },
            DfptMixer::Pulay { depth } => MixState::Pulay {
                depth,
                beta,
                inputs,
                residuals,
            },
        }
    }

    /// Consume the state, handing its `(inputs, residuals)` history back
    /// (empty for the linear mixer) — the inverse of
    /// [`MixState::with_history`].
    pub fn into_history(self) -> (Vec<DMatrix>, Vec<DMatrix>) {
        match self {
            MixState::Linear { .. } => (Vec::new(), Vec::new()),
            MixState::Pulay {
                inputs, residuals, ..
            } => (inputs, residuals),
        }
    }

    /// Advance the cycle: record `(current, target − current)` and return
    /// the next mixed iterate.
    pub fn step(&mut self, current: &DMatrix, target: &DMatrix) -> DMatrix {
        match self {
            MixState::Linear { beta } => linear_mix(current, target, *beta),
            MixState::Pulay {
                depth,
                beta,
                inputs,
                residuals,
            } => {
                let mut r = target.clone();
                r.axpy(-1.0, current).expect("same dims");
                inputs.push(current.clone());
                residuals.push(r);
                while inputs.len() > *depth {
                    inputs.remove(0);
                    residuals.remove(0);
                }
                if inputs.len() >= 3 {
                    if let Some(p) = pulay_extrapolate(inputs, residuals, *beta) {
                        return p;
                    }
                    // Ill-conditioned DIIS system: restart the history.
                    inputs.clear();
                    residuals.clear();
                }
                linear_mix(current, target, *beta)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: &[f64]) -> DMatrix {
        DMatrix::from_vec(2, 2, v.to_vec()).unwrap()
    }

    #[test]
    fn linear_state_matches_closed_form() {
        let mut st = MixState::new(DfptMixer::Linear, 0.25);
        let cur = m(&[1.0, 2.0, 3.0, 4.0]);
        let tgt = m(&[5.0, 6.0, 7.0, 8.0]);
        let out = st.step(&cur, &tgt);
        for (i, &v) in [2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            assert!((out.as_slice()[i] - v).abs() < 1e-15);
        }
        assert!(st.into_history().0.is_empty());
    }

    /// A contractive diagonal map `T(x)_i = λ_i x_i + b_i` with distinct
    /// eigenvalues (so the residual history spans more than one direction
    /// and the DIIS system is well-posed).
    fn apply(x: &DMatrix) -> DMatrix {
        let lambda = [0.9, 0.5, 0.2, 0.7];
        let b = [1.0, 2.0, -1.0, 0.5];
        let mut t = x.clone();
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = lambda[i] * *v + b[i];
        }
        t
    }

    #[test]
    fn pulay_state_is_linear_until_three_entries() {
        let beta = 0.4;
        let mut st = MixState::new(DfptMixer::Pulay { depth: 4 }, beta);
        let x0 = m(&[0.0; 4]);
        let step1 = st.step(&x0, &apply(&x0));
        assert_eq!(step1.max_abs_diff(&linear_mix(&x0, &apply(&x0), beta)), 0.0);
        let step2 = st.step(&step1, &apply(&step1));
        assert_eq!(
            step2.max_abs_diff(&linear_mix(&step1, &apply(&step1), beta)),
            0.0
        );
        // Third step has 3 banked pairs: DIIS kicks in and deviates from
        // the plain linear step.
        let step3 = st.step(&step2, &apply(&step2));
        assert!(step3.max_abs_diff(&linear_mix(&step2, &apply(&step2), beta)) > 1e-12);
    }

    #[test]
    fn pulay_fixed_point_converges_faster_than_linear() {
        let run = |mixer: DfptMixer| {
            let mut st = MixState::new(mixer, 0.5);
            let mut x = m(&[0.0; 4]);
            for it in 1..=300 {
                let t = apply(&x);
                let next = st.step(&x, &t);
                let res = next.max_abs_diff(&x);
                x = next;
                if res < 1e-10 {
                    return it;
                }
            }
            300
        };
        let lin = run(DfptMixer::Linear);
        let diis = run(DfptMixer::Pulay { depth: 6 });
        assert!(diis < lin, "DIIS {diis} iters vs linear {lin}");
        assert!(diis < 30, "DIIS should converge quickly, took {diis}");
    }

    #[test]
    fn history_cap_and_round_trip() {
        let mut st = MixState::new(DfptMixer::Pulay { depth: 3 }, 0.3);
        let tgt = m(&[1.0, 1.0, 1.0, 1.0]);
        let mut x = m(&[0.0; 4]);
        for _ in 0..6 {
            x = st.step(&x, &tgt);
        }
        let (ins, res) = st.clone().into_history();
        assert!(ins.len() <= 3 && ins.len() == res.len());
        // Rebuilding from the snapshot must continue identically.
        let mut a = st.clone();
        let mut b = MixState::with_history(DfptMixer::Pulay { depth: 3 }, 0.3, ins, res);
        let xa = a.step(&x, &tgt);
        let xb = b.step(&x, &tgt);
        assert_eq!(xa.max_abs_diff(&xb), 0.0, "bit-identical resume");
    }
}
