//! The outside-in layer ledger.
//!
//! A probe times each layer's public entry point on a workload's own
//! converged inputs (median of a few calls, tracing off). Multiplying a
//! probe time by the number of calls the drivers make — read off the SCF
//! and DFPT iteration counts — gives the layer's share of the job's wall
//! time; whatever the probes do not explain is `other.share`.

use crate::stats::median;
use qp_chem::harmonics::num_harmonics;
use qp_chem::multipole::{solve_poisson, HartreeSolution, MultipoleMoments};
use qp_chem::xc;
use qp_core::dfpt::{h1_mo_screened, sternheimer_response, sternheimer_response_screened};
use qp_core::mixing::{DfptMixer, MixState};
use qp_core::{operators, ScfResult, System};
use qp_grid::{ClusterTree, FarField};
use qp_linalg::{generalized_symmetric_eigen, DMatrix};
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::ReduceOp;
use qp_resil::DfptCheckpoint;
use qp_serve::json::Json;
use qp_serve::{JobRequest, JobResultData, ResultCache};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed calls per heavy probe (after one untimed warm-up call).
const REPS: usize = 3;

/// Leaf size of a cluster tree built for the far-field probe on systems
/// whose mode keeps the tree off (the value `System` uses internally).
const TREE_LEAF_MAX: usize = 8;

/// Median wall time of `reps` calls of `f`, in ms, after one warm-up call.
fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Per-call wall time of the stages of one Hartree solve (Rho and, on tree
/// systems, the far field).
#[derive(Debug, Clone, Copy, Default)]
pub struct RhoProbe {
    /// `MultipoleMoments::compute_planned` (or `compute` without a plan).
    pub moments_ms: f64,
    /// `solve_poisson`.
    pub poisson_ms: f64,
    /// Planned (or direct) per-point Hartree evaluation over the grid.
    pub eval_ms: f64,
    /// `FarField::aggregate` on the cluster tree.
    pub ff_aggregate_ms: f64,
    /// Tree evaluation over the grid.
    pub ff_eval_ms: f64,
}

impl RhoProbe {
    /// Mean of `a` and `b` weighted by `wa` and `wb`.
    pub fn blend(a: &RhoProbe, wa: f64, b: &RhoProbe, wb: f64) -> RhoProbe {
        let w = (wa + wb).max(f64::MIN_POSITIVE);
        let mix = |x: f64, y: f64| (x * wa + y * wb) / w;
        RhoProbe {
            moments_ms: mix(a.moments_ms, b.moments_ms),
            poisson_ms: mix(a.poisson_ms, b.poisson_ms),
            eval_ms: mix(a.eval_ms, b.eval_ms),
            ff_aggregate_ms: mix(a.ff_aggregate_ms, b.ff_aggregate_ms),
            ff_eval_ms: mix(a.ff_eval_ms, b.ff_eval_ms),
        }
    }
}

/// Time one Hartree solve of `density` stage by stage, the way the SCF
/// and DFPT drivers run it; also returns the planned/direct potential.
fn rho_probe(system: &System, tree: &ClusterTree, density: &[f64]) -> (RhoProbe, Vec<f64>) {
    let (grid, structure) = (&system.grid, &system.structure);
    let natoms = structure.len();
    let plan = system.hartree_plan();
    let moments_of = || match plan.as_deref() {
        Some(pl) => MultipoleMoments::compute_planned(structure, grid, density, pl),
        None => MultipoleMoments::compute(structure, grid, density, system.lmax),
    };
    let mut r = RhoProbe {
        moments_ms: probe_ms(REPS, || {
            black_box(moments_of());
        }),
        ..RhoProbe::default()
    };
    let moments = moments_of();
    r.poisson_ms = probe_ms(REPS, || {
        black_box(solve_poisson(structure, grid, &moments));
    });
    let hartree = solve_poisson(structure, grid, &moments);
    let est = (natoms * hartree.n_lm * 8).max(1) as u64;
    let eval = |hartree: &HartreeSolution| -> Vec<f64> {
        let mut v = vec![0.0; grid.len()];
        match plan.as_deref() {
            Some(pl) => qp_par::fill_slice_hinted(&mut v, est, |ip| hartree.eval_planned(pl, ip)),
            None => qp_par::fill_slice_hinted(&mut v, est, |ip| {
                hartree.eval_atoms(grid.points[ip].position, 0..natoms)
            }),
        }
        v
    };
    r.eval_ms = probe_ms(REPS, || {
        black_box(eval(&hartree));
    });
    let tol = qp_grid::farfield_tol();
    r.ff_aggregate_ms = probe_ms(REPS, || {
        black_box(FarField::aggregate(tree, &hartree, tol));
    });
    let far = FarField::aggregate(tree, &hartree, tol);
    r.ff_eval_ms = probe_ms(REPS, || {
        let mut v = vec![0.0; grid.len()];
        qp_par::fill_slice_hinted(&mut v, est, |ip| {
            far.eval(tree, &hartree, grid.points[ip].position)
        });
        black_box(v);
    });
    (r, eval(&hartree))
}

/// Per-call wall time of each layer's entry point on one system.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `System::density_on_grid` (Sumup).
    pub sumup_ms: f64,
    /// One Hartree solve on the ground-state density (SCF) and on a
    /// response density (DFPT).
    pub rho_scf: RhoProbe,
    pub rho_dfpt: RhoProbe,
    /// Whether this system's jobs take the tree path.
    pub tree_active: bool,
    /// `operators::potential_matrix` (H).
    pub h_ms: f64,
    /// `generalized_symmetric_eigen`.
    pub eigen_ms: f64,
    /// `operators::density_matrix_occ` (DM).
    pub dm_ms: f64,
    /// The Sternheimer update of one DFPT iteration (MO transform + `P¹`).
    pub sternheimer_ms: f64,
    /// One Pulay `MixState::step` on `P¹`-sized matrices, full history.
    pub mixing_ms: f64,
    /// Achieved rate of one `n_basis`-square `par_matmul`.
    pub gemm_gflops: f64,
    /// One packed allreduce of the per-iteration DFPT payload over 2 ranks.
    pub allreduce_ms: f64,
    /// QPCK save / load of a DFPT direction's state, and its size.
    pub ckpt_save_ms: f64,
    pub ckpt_load_ms: f64,
    pub ckpt_bytes: f64,
    /// `JobRequest::from_json` + `key` on this job's request.
    pub parse_us: f64,
    /// A hit in `ResultCache::get`.
    pub cache_get_us: f64,
}

/// Time every layer on `system`'s converged ground state. `p1` is a
/// response density matrix of the same system; `request` the serve request
/// describing the same job; `scratch` a directory for the QPCK probe.
pub fn probe(
    system: &System,
    ground: &ScfResult,
    p1: &DMatrix,
    request: &Json,
    scratch: &Path,
) -> Result<Probe, String> {
    let mut p = Probe::default();
    let structure = &system.structure;

    p.sumup_ms = probe_ms(REPS, || {
        black_box(system.density_on_grid(&ground.density_matrix));
    });

    // Rho: moments → Poisson → per-point evaluation, on the ground density
    // (as SCF solves it) and on a response density (as DFPT does: the far
    // field's cost depends on the multipole magnitudes).
    p.tree_active = system.farfield_tree().is_some();
    let tree: Arc<ClusterTree> = match system.farfield_tree() {
        Some(t) => t.clone(),
        None => {
            let centers: Vec<[f64; 3]> = structure.atoms.iter().map(|a| a.position).collect();
            Arc::new(ClusterTree::build(&centers, TREE_LEAF_MAX))
        }
    };
    let (rho_scf, v_h) = rho_probe(system, &tree, &ground.density);
    p.rho_scf = rho_scf;
    p.rho_dfpt = rho_probe(system, &tree, &system.density_on_grid(p1)).0;

    // H on the converged effective potential.
    let v_eff: Vec<f64> = ground
        .density
        .iter()
        .zip(&v_h)
        .map(|(&n, vh)| vh + xc::v_xc(n.max(0.0)))
        .collect();
    p.h_ms = probe_ms(REPS, || {
        black_box(operators::potential_matrix(system, &v_eff));
    });

    // Eigensolve of the converged Kohn–Sham matrix.
    let mut h = operators::kinetic(system);
    let v_ext = operators::external_potential(system);
    h.axpy(1.0, &operators::potential_matrix(system, &v_ext))
        .map_err(|e| e.to_string())?;
    h.axpy(1.0, &operators::potential_matrix(system, &v_eff))
        .map_err(|e| e.to_string())?;
    let mut eigen_err = None;
    p.eigen_ms = probe_ms(REPS, || {
        if let Err(e) = generalized_symmetric_eigen(&h, &ground.overlap) {
            eigen_err = Some(e.to_string());
        }
    });
    if let Some(e) = eigen_err {
        return Err(format!("eigen probe: {e}"));
    }

    p.dm_ms = probe_ms(REPS, || {
        black_box(operators::density_matrix_occ(
            &ground.orbitals,
            &ground.occupations,
        ));
    });

    // One Sternheimer update, taking the same branch the serial driver does.
    let c = &ground.orbitals;
    let c_t = c.transpose();
    let (eps, occ) = (&ground.eigenvalues, &ground.occupations);
    p.sternheimer_ms = probe_ms(REPS, || {
        let out = if system.screen().is_some() {
            let h1_mo = h1_mo_screened(&c_t, &h, c, occ);
            sternheimer_response_screened(c, eps, occ, &h1_mo)
        } else {
            let h1_mo = c_t
                .par_matmul(&h)
                .and_then(|m| m.par_matmul(c))
                .expect("n_basis-square chain");
            sternheimer_response(c, eps, occ, &h1_mo)
        };
        black_box(out);
    });

    // Pulay mixing with a full (depth 6) history.
    let mut mixer = MixState::new(DfptMixer::Pulay { depth: 6 }, 0.6);
    let nudged = |k: usize| {
        let mut m = p1.clone();
        m.scale(1.0 + 1e-3 * k as f64);
        m
    };
    for k in 0..6 {
        black_box(mixer.step(&nudged(k), p1));
    }
    let mut k = 6;
    p.mixing_ms = probe_ms(REPS, || {
        let cur = nudged(k);
        k += 1;
        black_box(mixer.step(&cur, p1));
    });

    let nb = system.n_basis();
    let gemm_ms = probe_ms(REPS, || {
        black_box(c.par_matmul(c).expect("square"));
    });
    p.gemm_gflops = 2.0 * (nb as f64).powi(3) / (gemm_ms * 1e-3) / 1e9;

    p.allreduce_ms = allreduce_probe(system)?;

    // QPCK round trip of a DFPT direction's loop-carried state.
    let n_occ = system.n_occupied().min(nb);
    let ck = DfptCheckpoint {
        dir: 2,
        iteration: 10,
        c1: DMatrix::from_fn(nb, n_occ, |mu, i| c[(mu, i)]),
        p1: p1.clone(),
        residual: 1e-3,
        diis_in: vec![p1.clone(); 6],
        diis_res: vec![p1.clone(); 6],
    };
    p.ckpt_bytes = ck.to_bytes().len() as f64;
    let path = scratch.join("probe_dfpt.qpck");
    let mut io_err = None;
    p.ckpt_save_ms = probe_ms(REPS, || {
        if let Err(e) = ck.save(&path) {
            io_err = Some(e.to_string());
        }
    });
    p.ckpt_load_ms = probe_ms(REPS, || match DfptCheckpoint::load(&path) {
        Ok(back) => {
            black_box(back);
        }
        Err(e) => io_err = Some(e.to_string()),
    });
    let _ = std::fs::remove_file(&path);
    if let Some(e) = io_err {
        return Err(format!("checkpoint probe: {e}"));
    }

    // Serve admission and cache lookup on this job's own request.
    const FAST_REPS: usize = 50;
    let mut parse_err = None;
    p.parse_us = 1e3
        * probe_ms(FAST_REPS, || match JobRequest::from_json(request) {
            Ok(r) => {
                black_box(r.key());
            }
            Err(e) => parse_err = Some(e.to_string()),
        });
    if let Some(e) = parse_err {
        return Err(format!("request probe: {e}"));
    }
    let req = JobRequest::from_json(request).map_err(|e| e.to_string())?;
    let (key, canonical) = (req.key(), req.canonical());
    let cache = ResultCache::new();
    cache.put(key, &canonical, placeholder_result());
    p.cache_get_us = 1e3
        * probe_ms(FAST_REPS, || {
            black_box(cache.get(key, &canonical));
        });
    Ok(p)
}

fn placeholder_result() -> JobResultData {
    JobResultData {
        energy: -1.0,
        scf_iterations: 1,
        dipole: [0.0; 3],
        alpha: DMatrix::identity(3),
        dfpt_iterations: [1; 3],
        isotropic: 1.0,
        anisotropy: 0.0,
    }
}

/// One SPMD DFPT iteration's collectives over 2 ranks: the packed
/// `rho_multipole` rows and the `H¹` allreduce, timed on rank 0.
fn allreduce_probe(system: &System) -> Result<f64, String> {
    let natoms = system.structure.len();
    let row_len = system.grid.radial.len() * num_harmonics(system.lmax);
    let nb = system.n_basis();
    let mut samples = Vec::new();
    for _ in 0..REPS + 1 {
        let out = qp_mpi::run_spmd(2, 2, |comm| {
            let rows: Vec<Vec<f64>> = (0..natoms)
                .map(|ia| vec![(comm.rank() + ia) as f64; row_len])
                .collect();
            let h1 = vec![1.0; nb * nb];
            let t = Instant::now();
            let mut packer = PackedAllReduce::new(comm, ReduceOp::Sum);
            for (ia, row) in rows.into_iter().enumerate() {
                packer.push(&format!("rho_multipole:{ia}"), row)?;
            }
            packer.flush()?;
            for ia in 0..natoms {
                black_box(packer.take(&format!("rho_multipole:{ia}")));
            }
            black_box(comm.allreduce(ReduceOp::Sum, &h1)?);
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .map_err(|e| format!("allreduce probe: {e:?}"))?;
        samples.push(out[0]);
    }
    // The first region pays thread and window set-up; drop it.
    Ok(median(&samples[1..]))
}

/// How often one job calls each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub sumup: f64,
    /// Hartree solves on the ground-state density (SCF) and on response
    /// densities (DFPT).
    pub solves_scf: f64,
    pub solves_dfpt: f64,
    /// DFPT solves whose potential goes through the probed per-point
    /// evaluation (the SPMD driver evaluates it inside its own `H¹` loop).
    pub evals_dfpt: f64,
    pub h: f64,
    pub eigen: f64,
    pub dm: f64,
    pub sternheimer: f64,
    pub mixing: f64,
    /// Full-grid equivalents of the Sumup and DFPT moments calls: a
    /// rank-parallel call, each of `r` ranks covering `1/r` of the grid at
    /// once, costs `1/r` of a probe call in wall time.
    pub sumup_wall: f64,
    pub moments_dfpt_wall: f64,
}

/// Iteration counts of one job.
#[derive(Debug, Clone, Copy)]
pub struct Iterations {
    pub scf: usize,
    pub dfpt: [usize; 3],
}

impl Iterations {
    pub fn of(record: &JobResultData) -> Self {
        Iterations {
            scf: record.scf_iterations,
            dfpt: record.dfpt_iterations,
        }
    }

    pub fn dfpt_total(&self) -> usize {
        self.dfpt.iter().sum()
    }
}

impl Calls {
    /// Calls made by one job, read off the drivers' code paths: SCF makes
    /// one Sumup/Rho/H/eigen/DM call per iteration (plus the final density,
    /// the initial-guess eigensolve and the external-potential matrix);
    /// the serial DFPT driver one Sumup/Rho/H/Sternheimer/mixing call per
    /// iteration (plus a final Sumup per direction and three dipole
    /// matrices). The SPMD driver splits Sumup and the moments across its
    /// ranks, repeats Poisson and the Sternheimer update on every rank, and
    /// evaluates the potential inside its own `H¹` loop, which no probe
    /// covers (it lands in `other`).
    pub fn of(it: Iterations, ranks: Option<usize>) -> Self {
        let s = it.scf as f64;
        let d = it.dfpt_total() as f64;
        let scf = Calls {
            sumup: s + 1.0,
            solves_scf: s,
            h: 1.0 + s,
            eigen: s + 1.0,
            dm: s + 1.0,
            mixing: (s - 1.0).max(0.0),
            sumup_wall: s + 1.0,
            ..Calls::default()
        };
        match ranks {
            None => Calls {
                sumup: scf.sumup + d + 3.0,
                solves_dfpt: d,
                evals_dfpt: d,
                h: scf.h + 3.0 + d,
                sternheimer: d,
                mixing: scf.mixing + d,
                sumup_wall: scf.sumup + d + 3.0,
                moments_dfpt_wall: d,
                ..scf
            },
            Some(r) => {
                let r = r as f64;
                Calls {
                    sumup: scf.sumup + d,
                    solves_dfpt: d,
                    h: scf.h + 6.0,
                    sternheimer: d,
                    mixing: scf.mixing + d,
                    sumup_wall: scf.sumup + d / r,
                    moments_dfpt_wall: d / r,
                    ..scf
                }
            }
        }
    }

    pub fn solves(&self) -> f64 {
        self.solves_scf + self.solves_dfpt
    }

    pub fn add(&mut self, o: &Calls) {
        self.sumup += o.sumup;
        self.solves_scf += o.solves_scf;
        self.solves_dfpt += o.solves_dfpt;
        self.evals_dfpt += o.evals_dfpt;
        self.h += o.h;
        self.eigen += o.eigen;
        self.dm += o.dm;
        self.sternheimer += o.sternheimer;
        self.mixing += o.mixing;
        self.sumup_wall += o.sumup_wall;
        self.moments_dfpt_wall += o.moments_dfpt_wall;
    }
}

/// Milliseconds the probes attribute to each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerMs {
    pub sumup: f64,
    pub rho: f64,
    pub farfield: f64,
    pub h: f64,
    pub eigen: f64,
    pub dm: f64,
    pub sternheimer: f64,
    pub mixing: f64,
}

impl LayerMs {
    /// `probe × calls` per layer. On tree systems the far field (aggregate
    /// + evaluation) replaces the per-point evaluation of each solve.
    pub fn of(p: &Probe, c: &Calls) -> Self {
        let evaluate = |r: &RhoProbe, evals: f64| {
            if p.tree_active {
                (0.0, (r.ff_aggregate_ms + r.ff_eval_ms) * evals)
            } else {
                (r.eval_ms * evals, 0.0)
            }
        };
        let (eval_scf, ff_scf) = evaluate(&p.rho_scf, c.solves_scf);
        let (eval_dfpt, ff_dfpt) = evaluate(&p.rho_dfpt, c.evals_dfpt);
        let (rs, rd) = (&p.rho_scf, &p.rho_dfpt);
        LayerMs {
            sumup: p.sumup_ms * c.sumup_wall,
            rho: (rs.moments_ms + rs.poisson_ms) * c.solves_scf
                + rd.moments_ms * c.moments_dfpt_wall
                + rd.poisson_ms * c.solves_dfpt
                + eval_scf
                + eval_dfpt,
            farfield: ff_scf + ff_dfpt,
            h: p.h_ms * c.h,
            eigen: p.eigen_ms * c.eigen,
            dm: p.dm_ms * c.dm,
            sternheimer: p.sternheimer_ms * c.sternheimer,
            mixing: p.mixing_ms * c.mixing,
        }
    }

    pub fn add(&mut self, o: &LayerMs) {
        self.sumup += o.sumup;
        self.rho += o.rho;
        self.farfield += o.farfield;
        self.h += o.h;
        self.eigen += o.eigen;
        self.dm += o.dm;
        self.sternheimer += o.sternheimer;
        self.mixing += o.mixing;
    }

    pub fn total(&self) -> f64 {
        self.sumup
            + self.rho
            + self.farfield
            + self.h
            + self.eigen
            + self.dm
            + self.sternheimer
            + self.mixing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_calls_follow_the_iteration_counts() {
        let it = Iterations {
            scf: 10,
            dfpt: [4, 5, 6],
        };
        let c = Calls::of(it, None);
        assert_eq!(c.sumup, 11.0 + 15.0 + 3.0);
        assert_eq!(c.eigen, 11.0);
        assert_eq!(c.h, 11.0 + 3.0 + 15.0);
        assert_eq!(
            (c.solves_scf, c.solves_dfpt, c.evals_dfpt),
            (10.0, 15.0, 15.0)
        );
        assert_eq!(c.sternheimer, 15.0);
        let spmd = Calls::of(it, Some(2));
        assert_eq!((spmd.sumup, spmd.sumup_wall), (11.0 + 15.0, 11.0 + 7.5));
        assert_eq!(
            spmd.evals_dfpt, 0.0,
            "the SPMD H¹ loop evaluates its own potential"
        );
    }

    #[test]
    fn the_tree_replaces_the_direct_evaluation() {
        let r = RhoProbe {
            eval_ms: 2.0,
            ff_aggregate_ms: 1.0,
            ff_eval_ms: 3.0,
            ..RhoProbe::default()
        };
        let p = Probe {
            rho_scf: r,
            rho_dfpt: r,
            ..Probe::default()
        };
        let c = Calls {
            solves_scf: 4.0,
            solves_dfpt: 6.0,
            evals_dfpt: 6.0,
            ..Calls::default()
        };
        assert_eq!(LayerMs::of(&p, &c).rho, 20.0);
        let tree = LayerMs::of(
            &Probe {
                tree_active: true,
                ..p
            },
            &c,
        );
        assert_eq!((tree.rho, tree.farfield), (0.0, 40.0));
    }
}
