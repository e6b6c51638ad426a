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

/// The Gram matrix `⟨Rᵢ, Rⱼ⟩` of a prefix of a residual history, carried
/// beside it so that each DIIS step computes the rows it lacks (one, once
/// the history is full) instead of all m² products. Every entry is the
/// sum the full rebuild forms, in the same order, so the carried matrix
/// has the rebuilt one's bits.
#[derive(Debug, Clone, Default)]
pub struct Gram(Vec<Vec<f64>>);

impl Gram {
    /// Add the rows of the residuals past the ones already covered.
    fn extend(&mut self, residuals: &[DMatrix]) {
        for i in self.0.len()..residuals.len() {
            let row: Vec<f64> = (0..=i).map(|j| dot(&residuals[i], &residuals[j])).collect();
            for (j, &d) in row[..i].iter().enumerate() {
                self.0[j].push(d);
            }
            self.0.push(row);
        }
    }

    /// Forget the oldest residual, as the history slides (nothing when no
    /// row is computed yet).
    fn drop_oldest(&mut self) {
        if !self.0.is_empty() {
            self.0.remove(0);
            for row in &mut self.0 {
                row.remove(0);
            }
        }
    }
}

/// `Σ_k a_k b_k` in ascending `k`: the DIIS inner product. `a·b` and `b·a`
/// have the same bits, since each product does.
fn dot(a: &DMatrix, b: &DMatrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(a, b)| a * b)
        .sum()
}

/// Pulay/DIIS step over the carried Gram matrix of `residuals`: find `c`
/// minimizing `‖Σ cᵢ Rᵢ‖` with `Σ cᵢ = 1`, then return
/// `Σ cᵢ (Pᵢ + damping·Rᵢ)`. Returns `None` when the DIIS system is
/// numerically singular (caller restarts the history).
fn pulay_step(
    p_in: &[DMatrix],
    residuals: &[DMatrix],
    gram: &Gram,
    damping: f64,
) -> Option<DMatrix> {
    let m = p_in.len();
    // KKT system: [[B, 1], [1ᵀ, 0]] [c; λ] = [0; 1].
    let mut kkt = DMatrix::zeros(m + 1, m + 1);
    for i in 0..m {
        for j in 0..m {
            kkt[(i, j)] = gram.0[i][j];
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

/// The Pulay/DIIS step as it was before the Gram matrix was carried,
/// recomputing all m² residual products: the bit oracle of
/// [`MixState::step`].
#[cfg(test)]
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
/// DIIS system is ill-conditioned. The history's [`Gram`] matrix goes
/// with it: extended when a DIIS step needs it (all of it after a history
/// is handed in), shifted as the history slides and cleared on a restart.
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
        /// The residuals' Gram matrix.
        gram: Gram,
    },
}

impl MixState {
    /// Fresh mixer state for `mixer` with mixing factor `beta`.
    pub fn new(mixer: DfptMixer, beta: f64) -> Self {
        MixState::with_history(mixer, beta, Vec::new(), Vec::new())
    }

    /// Rebuild mixer state from a checkpointed history (empty vectors for
    /// the linear mixer); the next DIIS step computes its Gram matrix. The
    /// histories must replay the fault-free sequence bit-exactly, which
    /// holds because [`MixState::step`] is deterministic in its inputs.
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
                gram: Gram::default(),
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

    /// Exchange the history with `inputs` and `residuals` (nothing for the
    /// linear mixer), keeping the Gram matrix: a loop lends its state's
    /// history to the mixer for a step and takes it back after, and the
    /// Gram matrix stays valid as long as each history handed in is the
    /// one last handed out.
    pub(crate) fn swap_history(&mut self, inputs: &mut Vec<DMatrix>, residuals: &mut Vec<DMatrix>) {
        if let MixState::Pulay {
            inputs: own_inputs,
            residuals: own_residuals,
            ..
        } = self
        {
            std::mem::swap(own_inputs, inputs);
            std::mem::swap(own_residuals, residuals);
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
                gram,
            } => {
                let mut r = target.clone();
                r.axpy(-1.0, current).expect("same dims");
                inputs.push(current.clone());
                residuals.push(r);
                while inputs.len() > *depth {
                    inputs.remove(0);
                    residuals.remove(0);
                    gram.drop_oldest();
                }
                if inputs.len() >= 3 {
                    gram.extend(residuals);
                    if let Some(p) = pulay_step(inputs, residuals, gram, *beta) {
                        return p;
                    }
                    // Ill-conditioned DIIS system: restart the history.
                    inputs.clear();
                    residuals.clear();
                    gram.0.clear();
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
    fn nan_target_restarts_the_history_instead_of_panicking() {
        // The third target holds a NaN, so the DIIS system does: the step
        // restarts the history and hands back the linear mix, whose NaN the
        // loop's non-finite check then reports as a typed error.
        let beta = 0.4;
        let mut st = MixState::new(DfptMixer::Pulay { depth: 6 }, beta);
        let mut x = m(&[0.0; 4]);
        for _ in 0..2 {
            x = st.step(&x, &apply(&x));
        }
        let mut t = apply(&x);
        t.as_mut_slice()[1] = f64::NAN;
        let out = st.step(&x, &t);
        let linear = linear_mix(&x, &t, beta);
        for (o, l) in out.as_slice().iter().zip(linear.as_slice()) {
            assert_eq!(o.to_bits(), l.to_bits());
        }
        assert!(out.as_slice()[1].is_nan());
        assert!(st.into_history().0.is_empty(), "the history restarts");
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

    /// The Pulay schedule of [`MixState::step`] over
    /// [`pulay_extrapolate`], which rebuilds every residual product.
    struct OracleMixer {
        depth: usize,
        beta: f64,
        inputs: Vec<DMatrix>,
        residuals: Vec<DMatrix>,
    }

    impl OracleMixer {
        fn step(&mut self, current: &DMatrix, target: &DMatrix) -> DMatrix {
            let mut r = target.clone();
            r.axpy(-1.0, current).unwrap();
            self.inputs.push(current.clone());
            self.residuals.push(r);
            while self.inputs.len() > self.depth {
                self.inputs.remove(0);
                self.residuals.remove(0);
            }
            if self.inputs.len() >= 3 {
                if let Some(p) = pulay_extrapolate(&self.inputs, &self.residuals, self.beta) {
                    return p;
                }
                self.inputs.clear();
                self.residuals.clear();
            }
            linear_mix(current, target, self.beta)
        }
    }

    #[test]
    fn carried_gram_matches_the_rebuilding_oracle_bit_for_bit() {
        // A contractive affine map on 3×3 matrices with distinct rates. The
        // history (depth 4) wraps, a repeated (current, target) pair makes
        // the DIIS system singular, and the state is rebuilt from
        // `into_history` midway, as a resumed cycle rebuilds its mixer.
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let lambda: Vec<f64> = (0..9).map(|i| 0.1 + 0.09 * i as f64).collect();
        let shift: Vec<f64> = (0..9).map(|_| next()).collect();
        let apply = |x: &DMatrix| {
            let v = x.as_slice().iter().enumerate();
            let v = v.map(|(i, &e)| lambda[i] * e + shift[i]).collect();
            DMatrix::from_vec(3, 3, v).unwrap()
        };
        let (depth, beta) = (4, 0.45);
        let mut st = MixState::new(DfptMixer::Pulay { depth }, beta);
        let mut oracle = OracleMixer {
            depth,
            beta,
            inputs: Vec::new(),
            residuals: Vec::new(),
        };
        let mut x = DMatrix::from_vec(3, 3, (0..9).map(|_| next()).collect()).unwrap();
        let mut prev = (x.clone(), apply(&x));
        let (mut restarts, mut diis_steps) = (0, 0);
        for it in 0..24 {
            let (cur, tgt) = if it == 11 {
                prev.clone()
            } else {
                (x.clone(), apply(&x))
            };
            if it == 16 {
                let (ins, res) = st.into_history();
                st = MixState::with_history(DfptMixer::Pulay { depth }, beta, ins, res);
            }
            let ours = st.step(&cur, &tgt);
            let theirs = oracle.step(&cur, &tgt);
            for (a, b) in ours.as_slice().iter().zip(theirs.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "iteration {it}");
            }
            match oracle.inputs.len() {
                0 => restarts += 1,
                n if n >= 3 => diis_steps += 1,
                _ => {}
            }
            assert_eq!(st.clone().into_history().0.len(), oracle.inputs.len());
            prev = (cur, tgt);
            x = ours;
        }
        assert_eq!(restarts, 1, "the repeated pair restarts the history once");
        assert!(diis_steps >= 15, "{diis_steps} DIIS steps");
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
