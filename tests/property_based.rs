//! Property-based tests (proptest) on the workspace's core data structures
//! and invariants.

use proptest::prelude::*;
use qp_chem::harmonics::{lm_from_index, lm_index};
use qp_chem::multipole::adams_moulton_cumulative;
use qp_chem::spline::CubicSpline;
use qp_grid::batch::{make_batches, total_points, BatchPoint};
use qp_grid::mapping::{rank_loads, LoadBalancingMapping, LocalityEnhancingMapping, TaskMapping};
use qp_linalg::{CsrMatrix, DMatrix};
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::{run_spmd, ReduceOp};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<BatchPoint>> {
    prop::collection::vec(
        (
            -100.0f64..100.0,
            -100.0f64..100.0,
            -100.0f64..100.0,
            0u32..64,
        ),
        1..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, z, atom))| BatchPoint {
                position: [x, y, z],
                atom,
                grid_index: i as u32,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batching_partitions_points(points in arb_points(800), max_batch in 1usize..200) {
        let n = points.len();
        let batches = make_batches(points, max_batch);
        prop_assert_eq!(total_points(&batches), n);
        let mut seen = vec![false; n];
        for b in &batches {
            prop_assert!(b.len() <= max_batch);
            for p in &b.points {
                prop_assert!(!seen[p.grid_index as usize]);
                seen[p.grid_index as usize] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn mappings_assign_every_batch_to_valid_rank(
        points in arb_points(600),
        max_batch in 5usize..100,
        n_procs in 1usize..17,
    ) {
        let batches = make_batches(points, max_batch);
        for strategy in [
            &LoadBalancingMapping as &dyn TaskMapping,
            &LocalityEnhancingMapping as &dyn TaskMapping,
        ] {
            let a = strategy.assign(&batches, n_procs);
            prop_assert_eq!(a.len(), batches.len());
            prop_assert!(a.iter().all(|&r| r < n_procs));
            let loads = rank_loads(&batches, &a, n_procs);
            prop_assert_eq!(loads.iter().sum::<usize>(), total_points(&batches));
        }
    }

    #[test]
    fn locality_mapping_balances_when_batches_abound(
        points in arb_points(2000),
        n_procs in 2usize..9,
    ) {
        let batches = make_batches(points, 40);
        prop_assume!(batches.len() >= 4 * n_procs);
        let a = LocalityEnhancingMapping.assign(&batches, n_procs);
        let loads = rank_loads(&batches, &a, n_procs);
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        prop_assert!(min > 0.0);
        prop_assert!(max / min < 3.0, "imbalance {}/{}", max, min);
    }

    #[test]
    fn lm_index_bijection(idx in 0usize..1000) {
        let (l, m) = lm_from_index(idx);
        prop_assert_eq!(lm_index(l, m), idx);
        prop_assert!(m.unsigned_abs() as usize <= l);
    }

    #[test]
    fn spline_interpolates_random_knots(
        ys in prop::collection::vec(-50.0f64..50.0, 4..40),
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64 * 0.5).collect();
        let s = CubicSpline::natural(xs.clone(), ys.clone());
        for (x, y) in xs.iter().zip(ys.iter()) {
            prop_assert!((s.eval(*x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn adams_moulton_exact_for_quadratics(
        a in -3.0f64..3.0, b in -3.0f64..3.0, c in -3.0f64..3.0,
        n in 4usize..60,
    ) {
        let h = 0.1;
        let f: Vec<f64> = (0..n).map(|k| {
            let x = k as f64 * h;
            a * x * x + b * x + c
        }).collect();
        let cum = adams_moulton_cumulative(h, &f);
        for (k, &c_k) in cum.iter().enumerate().take(n) {
            let x = k as f64 * h;
            let exact = a * x * x * x / 3.0 + b * x * x / 2.0 + c * x;
            prop_assert!((c_k - exact).abs() < 1e-9, "k = {}", k);
        }
    }

    #[test]
    fn csr_dense_round_trip(
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -10.0f64..10.0), 0..50,
        ),
    ) {
        // Deduplicate positions (CSR sums duplicates; dense assignment
        // overwrites, so feed unique coordinates).
        let mut map = std::collections::BTreeMap::new();
        for (r, c, v) in entries {
            map.insert((r, c), v);
        }
        let mut dense = DMatrix::zeros(12, 12);
        for (&(r, c), &v) in &map {
            dense[(r, c)] = v;
        }
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        prop_assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn spmv_matches_dense_matvec(
        entries in prop::collection::vec(
            (0usize..8, 0usize..8, -5.0f64..5.0), 1..30,
        ),
        x in prop::collection::vec(-2.0f64..2.0, 8),
    ) {
        let csr = CsrMatrix::from_triplets(8, 8, entries).unwrap();
        let sparse = csr.spmv(&x).unwrap();
        let dense = csr.to_dense().matvec(&x).unwrap();
        for (a, b) in sparse.iter().zip(dense.iter()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn eigen_reconstructs_random_symmetric(vals in prop::collection::vec(-5.0f64..5.0, 10)) {
        // Build a symmetric 4x4 from 10 free entries.
        let mut m = DMatrix::zeros(4, 4);
        let mut it = vals.into_iter();
        for i in 0..4 {
            for j in i..4 {
                let v = it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let dec = qp_linalg::symmetric_eigen(&m).unwrap();
        // Trace and Frobenius norm preserved by the spectrum.
        let tr: f64 = dec.eigenvalues.iter().sum();
        prop_assert!((tr - m.trace()).abs() < 1e-8);
        let fro2: f64 = dec.eigenvalues.iter().map(|e| e * e).sum();
        let fro_m = m.frobenius_norm();
        prop_assert!((fro2.sqrt() - fro_m).abs() < 1e-8);
    }
}

// Packed-collective equivalence over random row structures: run fewer cases
// (each spawns threads).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn packed_allreduce_equals_sequential_for_random_rows(
        lens in prop::collection::vec(1usize..64, 1..20),
        budget_rows in 1usize..8,
    ) {
        let budget = budget_rows * 64 * 8;
        let lens2 = lens.clone();
        let out = run_spmd(4, 2, move |c| {
            let mut reference = Vec::new();
            for (r, &len) in lens2.iter().enumerate() {
                let data: Vec<f64> =
                    (0..len).map(|i| (c.rank() * 31 + r * 7 + i) as f64 * 0.01).collect();
                reference.push(c.allreduce(ReduceOp::Sum, &data)?);
            }
            let mut packer = PackedAllReduce::with_budget(c, ReduceOp::Sum, budget);
            for (r, &len) in lens2.iter().enumerate() {
                let data: Vec<f64> =
                    (0..len).map(|i| (c.rank() * 31 + r * 7 + i) as f64 * 0.01).collect();
                packer.push(&format!("r{r}"), data)?;
            }
            packer.flush()?;
            let mut ok = true;
            for (r, reference_row) in reference.iter().enumerate() {
                let p = packer.take(&format!("r{r}")).expect("flushed");
                ok &= p
                    .iter()
                    .zip(reference_row.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            }
            Ok(ok)
        })
        .expect("spmd");
        prop_assert!(out.into_iter().all(|b| b));
    }
}

// ---------------------------------------------------------------------------
// GEMM-form Sternheimer vs the retained pair-loop oracle.
//
// `sternheimer_response` evaluates `P¹ = C·W·Cᵀ` through two Level-3
// products; `sternheimer_response_pairwise` is the original O(n⁴) scalar
// pair-loop. The two must agree to floating-point roundoff on arbitrary
// spectra — including exactly degenerate levels (`f_p = f_q` pairs are
// skipped by both) and near-degenerate pairs, where the weight
// `(f_p − f_q)/(ε_p − ε_q)` approaches the bounded limit `df/dε`.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_sternheimer_matches_pairwise_oracle(
        // Each gap picks a regime by discriminant: exactly degenerate
        // (0..3), near-degenerate (3..5), or well separated (5..10) —
        // the shim has no `prop_oneof`, so weight the branches by hand.
        raw_gaps in prop::collection::vec((0usize..10, 0.0f64..1.0), 3..11),
        c_vals in prop::collection::vec(-1.0f64..1.0, 121),
        h_vals in prop::collection::vec(-1.0f64..1.0, 121),
        mu_frac in 0.1f64..0.9,
        kt in 0.005f64..0.1,
    ) {
        let gaps: Vec<f64> = raw_gaps
            .iter()
            .map(|&(d, t)| match d {
                0..=2 => 0.0,                      // exactly degenerate
                3..=4 => 1e-9 + t * (1e-6 - 1e-9), // near-degenerate
                _ => 0.01 + t * 0.99,              // well separated
            })
            .collect();
        let nb = gaps.len() + 1;
        let mut eps = vec![-1.0f64];
        for g in &gaps {
            eps.push(eps.last().unwrap() + g);
        }
        // Fermi–Dirac occupations: degenerate levels get exactly equal f,
        // so the `f_p = f_q` skip fires identically in both forms.
        let span = (eps[nb - 1] - eps[0]).max(1e-3);
        let mu = eps[0] + mu_frac * span;
        let occ: Vec<f64> = eps
            .iter()
            .map(|&e| 2.0 / (1.0 + ((e - mu) / kt).exp()))
            .collect();
        let c = DMatrix::from_fn(nb, nb, |i, j| c_vals[i * nb + j]);
        let mut h1 = DMatrix::from_fn(nb, nb, |i, j| h_vals[i * nb + j]);
        h1.symmetrize();

        let gemm = qp_core::dfpt::sternheimer_response(&c, &eps, &occ, &h1);
        let pair = qp_core::dfpt::sternheimer_response_pairwise(&c, &eps, &occ, &h1);

        // Near-degenerate weights scale like 1/gap, so compare relative to
        // the result's own magnitude.
        let scale = pair.frobenius_norm().max(1.0);
        let dev = gemm.max_abs_diff(&pair);
        prop_assert!(
            dev <= 1e-12 * scale,
            "GEMM vs pairwise deviation {dev} at scale {scale} (nb = {nb})"
        );

        // Both forms produce a symmetric response for a symmetric H¹.
        prop_assert!(gemm.max_abs_diff(&gemm.transpose()) <= 1e-11 * scale);
    }
}

// ---------------------------------------------------------------------------
// Fused super-batch density vs the per-batch oracle.
//
// `System::density_on_grid` fans the batches out as one coarsened region
// whose workers write straight into the shared density vector;
// `batch_density` is the per-batch oracle it must reproduce *bit for bit*
// for any density matrix, at any thread count, on either GEMM microkernel.

fn shared_density_system() -> &'static qp_core::System {
    use std::sync::OnceLock;
    static SYS: OnceLock<qp_core::System> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut gs = qp_chem::grids::GridSettings::light();
        gs.n_radial = 16;
        gs.max_angular = 14;
        qp_core::System::build(
            qp_chem::structures::water(),
            qp_chem::basis::BasisSettings::Light,
            &gs,
            40, // small batches → many regions → the fused path really fans out
            2,
        )
    })
}

// ---------------------------------------------------------------------------
// Cutoff-sphere screening vs the dense path.
//
// The screened route (cell-list basis subsets per batch, restricted
// Sternheimer contractions) must be *bit-identical* to the dense path on
// any geometry: the cell list finds the same function lists as the linear
// scan, the contributions the contraction skips are exactly ±0.0, and
// adding or dropping exact zeros never changes a +0.0-seeded accumulator.
// Random geometries sweep from pathological all-overlapping clusters
// (every cutoff sphere contains every atom — screening prunes nothing) to
// stretched chains where most pairs drop.

fn random_structure(seed: u64, natoms: usize, spread: f64) -> qp_chem::geometry::Structure {
    use qp_chem::elements::Element;
    use qp_chem::geometry::{Atom, Structure};
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        z as f64 / u64::MAX as f64
    };
    let atoms = (0..natoms)
        .map(|_| {
            let e = match (next() * 3.0) as usize {
                0 => Element::H,
                1 => Element::C,
                _ => Element::O,
            };
            Atom::new(
                e,
                [
                    (next() - 0.5) * spread,
                    (next() - 0.5) * spread,
                    (next() - 0.5) * spread,
                ],
            )
        })
        .collect();
    Structure::new(atoms)
}

fn screened_test_systems(structure: &qp_chem::geometry::Structure) -> [qp_core::System; 2] {
    let mut gs = qp_chem::grids::GridSettings::coarse();
    gs.n_radial = 6;
    gs.max_angular = 6;
    gs.min_angular = 6;
    [qp_core::ScreeningMode::On, qp_core::ScreeningMode::Off].map(|mode| {
        qp_core::System::build_with_modes(
            structure.clone(),
            qp_chem::basis::BasisSettings::Light,
            &gs,
            40,
            2,
            mode,
            qp_core::FarFieldMode::Auto,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn screened_operators_bit_identical_on_random_geometries(
        seed in 0u64..u64::MAX,
        natoms in 4usize..10,
        // 0 → every atom inside every cutoff sphere (worst case for the
        // pruning logic, best stress for the ±0.0 argument); large →
        // genuinely sparse pair structure.
        spread in 0.0f64..40.0,
        threads_pick in 0usize..3,
    ) {
        let structure = random_structure(seed, natoms, spread);
        let [scr, dense] = screened_test_systems(&structure);
        prop_assert!(scr.screen().is_some());
        prop_assert!(dense.screen().is_none());

        let _lease = qp_par::ThreadLease::exactly([1, 2, 8][threads_pick]);

        let pairs = [
            (qp_core::operators::overlap(&scr), qp_core::operators::overlap(&dense)),
            (qp_core::operators::kinetic(&scr), qp_core::operators::kinetic(&dense)),
            (qp_core::operators::dipole_matrix(&scr, 1), qp_core::operators::dipole_matrix(&dense, 1)),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert!(x.to_bits() == y.to_bits(), "operator {i} diverged");
            }
            // The merge mirrors each row only as far as its batches wrote;
            // on a sparse geometry that stops short of the last column.
            for (x, y) in a.as_slice().iter().zip(a.transpose().as_slice()) {
                prop_assert!(x.to_bits() == y.to_bits(), "operator {i} asymmetric");
            }
        }

        // Density on the grid with a random symmetric matrix.
        let nb = scr.n_basis();
        let mut state = seed ^ 0xdead_beef;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 - 0.5
        };
        let mut p = DMatrix::from_fn(nb, nb, |_, _| next());
        p.symmetrize();
        let rho_scr = scr.density_on_grid(&p);
        let rho_dense = dense.density_on_grid(&p);
        for (gi, (a, b)) in rho_scr.iter().zip(rho_dense.iter()).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "density diverged at point {gi}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_density_bit_identical_to_per_batch_oracle(
        seed in 0u64..u64::MAX,
        threads_pick in 0usize..3,
    ) {
        let sys = shared_density_system();
        let nb = sys.n_basis();
        // Deterministic pseudo-random symmetric matrix from the seed
        // (splitmix64), so each case probes a different density matrix
        // without hauling nb² values through the strategy.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 4.0 - 2.0
        };
        let mut p = DMatrix::from_fn(nb, nb, |_, _| next());
        p.symmetrize();

        let _lease = qp_par::ThreadLease::exactly([1, 2, 8][threads_pick]);
        let fused = sys.density_on_grid(&p);

        // Per-batch oracle: serial loop + merge by grid index.
        let mut oracle = vec![0.0f64; sys.grid.len()];
        for batch in sys.batches.iter() {
            let local = sys.batch_density(batch.id, &p);
            for (pi, &v) in local.iter().enumerate() {
                oracle[batch.points[pi].grid_index as usize] = v;
            }
        }
        prop_assert_eq!(fused.len(), oracle.len());
        for (gi, (f, o)) in fused.iter().zip(oracle.iter()).enumerate() {
            prop_assert!(
                f.to_bits() == o.to_bits(),
                "fused density diverged from the per-batch oracle at grid point {gi}"
            );
        }
    }
}
