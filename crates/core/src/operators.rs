//! Operator-matrix assembly on the integration grid.
//!
//! All matrices are grid quadratures over the batch tables:
//!
//! * overlap       `S_μν  = Σ_p w_p χ_μ(p) χ_ν(p)`
//! * kinetic       `T_μν  = ½ Σ_p w_p ∇χ_μ(p)·∇χ_ν(p)`  (by parts)
//! * potential     `V_μν  = Σ_p w_p v(p) χ_μ(p) χ_ν(p)` for any local `v`
//! * dipole        `D^I_μν = Σ_p w_p r_I(p) χ_μ(p) χ_ν(p)`
//!
//! The same `potential_matrix` path assembles both the ground-state
//! Hamiltonian and the DFPT response Hamiltonian `H¹` (phase **H**).
//!
//! Every operator is dense: each batch's triangle scatters straight into
//! the global matrix in batch order (the paper's §3.1 — a rank's
//! Hamiltonian is small and dense). A screening plan changes only how a
//! batch finds its function list, never the list, so the bytes are the
//! same with and without one.

use crate::system::{BatchBasisTable, System};
use qp_grid::Batch;
use qp_linalg::DMatrix;
use std::sync::Arc;

/// Cost hint (ns) for assembling one batch block: the triangular update is
/// `np·nf²/2` multiply-adds; assume a few per ns so tiny systems run the
/// region inline while bench-scale batches fan out.
fn batch_block_est(system: &System) -> u64 {
    let avg_np = system.n_points() / system.batches.len().max(1);
    let nb = system.n_basis();
    ((avg_np * nb * nb) / 4).max(1) as u64
}

/// Assemble the overlap matrix.
pub fn overlap(system: &System) -> DMatrix {
    weighted_product(system, &all_batches(system), |_| 1.0)
}

/// Assemble a local-potential matrix for `v` given *at grid points*
/// (slice parallel to `system.grid.points`).
pub fn potential_matrix(system: &System, v: &[f64]) -> DMatrix {
    potential_matrix_on(system, v, &all_batches(system))
}

/// [`potential_matrix`] over the points of `batches` only (ascending batch
/// ids; `v` is read at those points alone): the same per-batch triangles
/// and the same merge, restricted to the listed batches. Over every batch
/// it is [`potential_matrix`]; summed over a partition of the batches it
/// is `potential_matrix` up to the order of the additions — the
/// distributed driver's per-rank `H¹`. It books the `h.eval` roofline
/// counts of [`weighted_product`] while tracing.
pub fn potential_matrix_on(system: &System, v: &[f64], batches: &[usize]) -> DMatrix {
    assert_eq!(v.len(), system.n_points());
    weighted_product(system, batches, |gi| v[gi])
}

/// Assemble the dipole matrix for Cartesian direction `dir`
/// (`D_μν = ∫ χ_μ r_dir χ_ν`).
pub fn dipole_matrix(system: &System, dir: usize) -> DMatrix {
    let coords: Vec<f64> = system.grid.points.iter().map(|p| p.position[dir]).collect();
    potential_matrix(system, &coords)
}

fn all_batches(system: &System) -> Vec<usize> {
    (0..system.batches.len()).collect()
}

/// Per-batch contributions of `batches`: each worker pulls its batch
/// table from the basis cache and reduces the batch's points into one
/// `nf × nf` upper triangle.  The merge stays on the calling thread in
/// batch order, keeping the reduction deterministic.
fn assemble_partials(
    system: &System,
    batches: &[usize],
    per_batch: impl Fn(&Batch, &BatchBasisTable) -> DMatrix + Sync,
) -> Vec<(Arc<BatchBasisTable>, DMatrix)> {
    qp_par::map_vec_hinted(batches.to_vec(), batch_block_est(system), |bid| {
        let batch = &system.batches[bid];
        let table = system.table(batch.id);
        let block = per_batch(batch, &table);
        (table, block)
    })
}

/// One batch's quadrature block `B_ab = Σ_p w_p f(p) χ_a(p) χ_b(p)`
/// (upper triangle); the qp-cl H¹ kernel runs it per work-group.
pub(crate) fn weighted_block(
    system: &System,
    batch: &Batch,
    table: &BatchBasisTable,
    f: &(impl Fn(usize) -> f64 + Sync),
) -> DMatrix {
    let nf = table.fn_indices.len();
    let mut block = DMatrix::zeros(nf, nf);
    for (pi, pt) in batch.points.iter().enumerate() {
        let w = system.grid.points[pt.grid_index as usize].weight * f(pt.grid_index as usize);
        if w == 0.0 {
            continue;
        }
        let row = &table.values[pi * nf..(pi + 1) * nf];
        for a in 0..nf {
            let va = row[a];
            if va == 0.0 {
                continue;
            }
            let wa = w * va;
            for b in a..nf {
                block[(a, b)] += wa * row[b];
            }
        }
    }
    block
}

/// One batch's kinetic block `B_ab = ½ Σ_p w_p ∇χ_a(p)·∇χ_b(p)` from
/// the gradients of its `nf` functions, `[(p * nf + k) * 3 + d]`.
pub(crate) fn kinetic_block(
    system: &System,
    batch: &Batch,
    nf: usize,
    gradients: &[f64],
) -> DMatrix {
    let gradient = |p: usize, k: usize| -> [f64; 3] {
        let g = &gradients[(p * nf + k) * 3..][..3];
        [g[0], g[1], g[2]]
    };
    let mut block = DMatrix::zeros(nf, nf);
    for (pi, pt) in batch.points.iter().enumerate() {
        let w = 0.5 * system.grid.points[pt.grid_index as usize].weight;
        for a in 0..nf {
            let ga = gradient(pi, a);
            if ga == [0.0; 3] {
                continue;
            }
            for b in a..nf {
                let gb = gradient(pi, b);
                block[(a, b)] += w * (ga[0] * gb[0] + ga[1] * gb[1] + ga[2] * gb[2]);
            }
        }
    }
    block
}

/// Merge batch triangles into the dense matrix: scatter every batch
/// triangle into the global matrix in batch order, then mirror the upper
/// triangle.
///
/// Row `i` of the upper triangle is written only below `row_end[i]`, one
/// past the last function of any batch list holding function `i`; past
/// it both triangles are still the `+0.0` of `zeros`, so the mirror stops
/// there. On a long chain that keeps the merge to the band of pages the
/// batches touch instead of faulting in all of an n_basis² matrix.
pub(crate) fn merge(system: &System, partials: &[(Arc<BatchBasisTable>, DMatrix)]) -> DMatrix {
    let nb = system.n_basis();
    let mut m = DMatrix::zeros(nb, nb);
    let mut row_end = vec![0; nb];
    for (table, block) in partials.iter() {
        let end = table.fn_indices.last().map_or(0, |&f| f + 1);
        for (a, &fa) in table.fn_indices.iter().enumerate() {
            row_end[fa] = row_end[fa].max(end);
            for (b, &fb) in table.fn_indices.iter().enumerate().skip(a) {
                m[(fa, fb)] += block[(a, b)];
            }
        }
    }
    for (i, &end) in row_end.iter().enumerate() {
        for j in (i + 1)..end {
            m[(j, i)] = m[(i, j)];
        }
    }
    m
}

/// Shared quadrature core: `M_μν = Σ_p w_p f(p) χ_μ(p) χ_ν(p)` over the
/// points of `batches`.
///
/// While the trace recorder is on, each call books its roofline counts
/// against the calling thread's phase label, in closed form as Rho books
/// its own: per point of a batch with `nf` functions, `(nf+1)²` flops (the
/// weight product, `nf` row scalings and `nf(nf+1)/2` multiply-adds), and
/// per batch `nf(nf+1)/2` merge additions; the bytes of the batch tables,
/// each point's weight and `f`, each triangle and the `nb²` result.
fn weighted_product(
    system: &System,
    batches: &[usize],
    f: impl Fn(usize) -> f64 + Sync,
) -> DMatrix {
    let partials = assemble_partials(system, batches, |batch, table| {
        weighted_block(system, batch, table, &f)
    });
    if qp_trace::enabled() {
        let nb = system.n_basis() as u64;
        let (mut flops, mut bytes) = (0, 8 * nb * nb);
        for (&bid, (table, _)) in batches.iter().zip(&partials) {
            let np = system.batches[bid].len() as u64;
            let nf = table.fn_indices.len() as u64;
            let tri = nf * (nf + 1) / 2;
            flops += np * (nf + 1) * (nf + 1) + tri;
            bytes += 8 * (np * nf + 2 * np + tri);
        }
        let labels = [("phase", qp_par::telemetry::current_label())];
        let reg = qp_trace::global_metrics();
        reg.counter("h.eval.flops", &labels).add(flops);
        reg.counter("h.eval.bytes", &labels).add(bytes);
    }
    merge(system, &partials)
}

/// Assemble the kinetic-energy matrix `T_μν = ½ ∫ ∇χ_μ·∇χ_ν`. Each
/// batch's basis gradients are tabulated for this pass
/// ([`System::basis_gradients`]) and dropped with its block: the kept
/// batch tables hold values only.
pub fn kinetic(system: &System) -> DMatrix {
    let partials = assemble_partials(system, &all_batches(system), |batch, table| {
        let gradients = system.basis_gradients(batch, table);
        kinetic_block(system, batch, table.fn_indices.len(), &gradients)
    });
    merge(system, &partials)
}

/// The external (nuclear-attraction) potential at every grid point:
/// `v_ext(p) = −Σ_I Z_I / |p − R_I|`.
pub fn external_potential(system: &System) -> Vec<f64> {
    let mut out = vec![0.0; system.n_points()];
    let est = (system.structure.len() * 12).max(1) as u64;
    qp_par::fill_slice_hinted(&mut out, est, |gi| {
        let p = &system.grid.points[gi];
        let mut v = 0.0;
        for atom in &system.structure.atoms {
            let d = qp_linalg::vecops::dist3(p.position, atom.position);
            v -= atom.element.z() as f64 / d.max(1e-10);
        }
        v
    });
    out
}

/// Closed-shell density matrix from occupied orbitals:
/// `P_μν = Σ_i f_i C_μi C_νi`, `f_i = 2` (Eq. 6).
pub fn density_matrix(orbitals: &DMatrix, n_occ: usize) -> DMatrix {
    let occ = vec![2.0; n_occ];
    density_matrix_occ(orbitals, &occ)
}

/// Density matrix with explicit (possibly fractional) occupations
/// (Eq. 6 with Fermi–Dirac `f_i`, Eq. 3).
///
/// Computed as the Level-3 product `P = A·Bᵀ` with `A_μa = f_a C_μa` and
/// `B_νa = C_νa` over the occupied (f ≠ 0) columns, so the DM build runs on
/// the blocked parallel GEMM.
pub fn density_matrix_occ(orbitals: &DMatrix, occupations: &[f64]) -> DMatrix {
    let nb = orbitals.rows();
    let occ_idx: Vec<usize> = occupations
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f != 0.0)
        .map(|(i, _)| i)
        .collect();
    if occ_idx.is_empty() {
        return DMatrix::zeros(nb, nb);
    }
    let m = occ_idx.len();
    let scaled = DMatrix::from_fn(nb, m, |mu, a| {
        occupations[occ_idx[a]] * orbitals[(mu, occ_idx[a])]
    });
    let plain = DMatrix::from_fn(m, nb, |a, nu| orbitals[(nu, occ_idx[a])]);
    scaled.par_matmul(&plain).expect("conforming dims")
}

/// Fermi–Dirac occupations (Eq. 3): `f_i = 2/(1 + exp((ε_i − μ)/kT))` with
/// the chemical potential `μ` bisected so `Σ f_i = n_electrons`.
pub fn fermi_occupations(eigenvalues: &[f64], n_electrons: f64, kt: f64) -> Vec<f64> {
    assert!(kt > 0.0);
    let f_of = |mu: f64| -> Vec<f64> {
        eigenvalues
            .iter()
            .map(|&e| 2.0 / (1.0 + ((e - mu) / kt).clamp(-500.0, 500.0).exp()))
            .collect()
    };
    let total = |mu: f64| f_of(mu).iter().sum::<f64>();
    let mut lo = eigenvalues.first().copied().unwrap_or(0.0) - 10.0;
    let mut hi = eigenvalues.last().copied().unwrap_or(0.0) + 10.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total(mid) < n_electrons {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f_of(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;

    fn sys() -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 30;
        gs.max_angular = 38;
        System::build(water(), BasisSettings::Light, &gs, 150, 2)
    }

    #[test]
    fn overlap_diagonal_near_one() {
        let s = sys();
        let ov = overlap(&s);
        for i in 0..s.n_basis() {
            assert!(
                (ov[(i, i)] - 1.0).abs() < 0.05,
                "S[{i},{i}] = {}",
                ov[(i, i)]
            );
        }
    }

    #[test]
    fn overlap_symmetric_with_bounded_offdiagonals() {
        let s = sys();
        let ov = overlap(&s);
        for i in 0..s.n_basis() {
            for j in 0..s.n_basis() {
                assert_eq!(ov[(i, j)], ov[(j, i)]);
                // Cauchy-Schwarz bounds |S_ij| by 1 analytically; allow the
                // ~2% quadrature error of the 26-point angular grids.
                assert!(ov[(i, j)].abs() < 1.05, "S[{i},{j}] = {}", ov[(i, j)]);
            }
        }
        // S must remain positive definite despite quadrature error.
        assert!(qp_linalg::Cholesky::new(&ov).is_ok());
    }

    #[test]
    fn kinetic_is_positive_definite_symmetric() {
        let s = sys();
        let t = kinetic(&s);
        for i in 0..s.n_basis() {
            assert!(t[(i, i)] > 0.0, "T[{i},{i}] = {}", t[(i, i)]);
        }
        // Positive definite: Cholesky succeeds.
        assert!(qp_linalg::Cholesky::new(&t).is_ok());
    }

    #[test]
    fn external_potential_is_negative_everywhere() {
        let s = sys();
        let v = external_potential(&s);
        assert!(v.iter().all(|&x| x < 0.0));
    }

    #[test]
    fn dipole_matrices_are_symmetric() {
        let s = sys();
        for dir in 0..3 {
            let d = dipole_matrix(&s, dir);
            assert!(
                d.max_abs_diff(&d.transpose()) < 1e-12,
                "dipole {dir} asymmetric"
            );
        }
    }

    #[test]
    fn density_matrix_trace_counts_electrons() {
        // Tr[P S] = N_electrons for S-orthonormal orbitals.
        let s = sys();
        let ov = overlap(&s);
        let t = kinetic(&s);
        // Use eigenvectors of (T, S) as a stand-in orthonormal set.
        let dec = qp_linalg::generalized_symmetric_eigen(&t, &ov).unwrap();
        let p = density_matrix(&dec.eigenvectors, s.n_occupied());
        let tr_ps = p.trace_product(&ov).unwrap();
        assert!(
            (tr_ps - s.n_electrons() as f64).abs() < 1e-8,
            "Tr[PS] = {tr_ps}"
        );
    }

    #[test]
    fn screened_assembly_bit_identical_on_polymer() {
        use crate::{FarFieldMode, ScreeningMode};
        use qp_chem::structures::polyethylene;
        let mut gs = GridSettings::light();
        gs.n_radial = 14;
        gs.max_angular = 14;
        let structure = polyethylene(3);
        let dense = System::build_with_modes(
            structure.clone(),
            BasisSettings::Light,
            &gs,
            150,
            2,
            ScreeningMode::Off,
            FarFieldMode::Auto,
        );
        let scr = System::build_with_modes(
            structure,
            BasisSettings::Light,
            &gs,
            150,
            2,
            ScreeningMode::On,
            FarFieldMode::Auto,
        );
        assert!(scr.screen().is_some() && dense.screen().is_none());
        for (d, s, what) in [
            (overlap(&dense), overlap(&scr), "overlap"),
            (kinetic(&dense), kinetic(&scr), "kinetic"),
            (dipole_matrix(&dense, 1), dipole_matrix(&scr, 1), "dipole"),
        ] {
            for (x, y) in d.as_slice().iter().zip(s.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} differs");
            }
            // The merge mirrors each row only as far as its batches wrote:
            // the matrix must still be exactly symmetric, and the pairs no
            // batch holds together exactly +0.0.
            let n = s.rows();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        s[(i, j)].to_bits(),
                        s[(j, i)].to_bits(),
                        "{what} asymmetric"
                    );
                }
            }
            assert!(
                s.as_slice().iter().any(|x| x.to_bits() == 0),
                "{what} has no +0.0 pair"
            );
        }
    }

    #[test]
    fn rank_restricted_potential_matrix_sums_to_the_full_one() {
        use crate::{FarFieldMode, ScreeningMode};
        use qp_chem::structures::polyethylene;
        let mut gs = GridSettings::light();
        gs.n_radial = 14;
        gs.max_angular = 14;
        for mode in [ScreeningMode::Off, ScreeningMode::On] {
            let s = System::build_with_modes(
                polyethylene(3),
                BasisSettings::Light,
                &gs,
                150,
                2,
                mode,
                FarFieldMode::Auto,
            );
            let v: Vec<f64> = s
                .grid
                .points
                .iter()
                .map(|p| (0.3 * p.position[0]).sin() + 0.1 * p.position[2])
                .collect();
            let full = potential_matrix(&s, &v);
            let all: Vec<usize> = (0..s.batches.len()).collect();
            let on_all = potential_matrix_on(&s, &v, &all);
            for (x, y) in full.as_slice().iter().zip(on_all.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mode:?}: all batches differ");
            }
            // Three "ranks" own every third batch; their sum is the full
            // matrix up to the order of the additions.
            let mut sum = DMatrix::zeros(s.n_basis(), s.n_basis());
            for rank in 0..3 {
                let mine: Vec<usize> = all.iter().copied().filter(|b| b % 3 == rank).collect();
                sum.axpy(1.0, &potential_matrix_on(&s, &v, &mine)).unwrap();
            }
            let scale = full.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
            assert!(
                sum.max_abs_diff(&full) <= 1e-12 * scale,
                "{mode:?}: 3-way split deviates by {} at scale {scale}",
                sum.max_abs_diff(&full)
            );
        }
    }

    #[test]
    fn potential_matrix_of_one_is_overlap() {
        let s = sys();
        let ones = vec![1.0; s.n_points()];
        let v = potential_matrix(&s, &ones);
        let ov = overlap(&s);
        assert!(v.max_abs_diff(&ov) < 1e-12);
    }
}

#[cfg(test)]
mod fermi_tests {
    use super::*;

    #[test]
    fn fermi_conserves_electron_count() {
        let eigs = vec![-2.0, -1.0, -0.5, -0.45, 0.3, 1.0];
        for kt in [0.001, 0.01, 0.1] {
            let f = fermi_occupations(&eigs, 7.0, kt);
            let total: f64 = f.iter().sum();
            assert!((total - 7.0).abs() < 1e-9, "kT = {kt}: Σf = {total}");
            assert!(f.iter().all(|&x| (0.0..=2.0).contains(&x)));
            // Occupations decrease with energy.
            for w in f.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn cold_limit_reproduces_aufbau() {
        let eigs = vec![-2.0, -1.0, 0.5, 1.0];
        let f = fermi_occupations(&eigs, 4.0, 1e-6);
        assert!((f[0] - 2.0).abs() < 1e-9);
        assert!((f[1] - 2.0).abs() < 1e-9);
        assert!(f[2].abs() < 1e-9);
        assert!(f[3].abs() < 1e-9);
    }

    #[test]
    fn degenerate_frontier_shared_equally() {
        // Two degenerate levels sharing two electrons: f = 1 each.
        let eigs = vec![-2.0, -0.5, -0.5, 1.0];
        let f = fermi_occupations(&eigs, 4.0, 0.01);
        assert!((f[1] - 1.0).abs() < 1e-6);
        assert!((f[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn density_matrix_occ_matches_integer_path() {
        let c = DMatrix::from_fn(5, 5, |i, j| ((i * 5 + j) as f64 * 0.3).sin());
        let p_int = density_matrix(&c, 2);
        let p_occ = density_matrix_occ(&c, &[2.0, 2.0, 0.0, 0.0, 0.0]);
        assert!(p_int.max_abs_diff(&p_occ) < 1e-15);
    }
}
