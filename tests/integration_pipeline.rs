//! End-to-end integration: geometry → basis → grid → SCF → DFPT →
//! polarizability, plus parallel-vs-serial agreement — the full Fig. 1
//! pipeline exercised across every crate at once.

use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_chem::structures::water;
use qp_core::dfpt::{dfpt_direction, DfptOptions};
use qp_core::parallel::{parallel_dfpt_direction, CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::scf::{electronic_dipole, scf, ScfOptions};
use qp_core::system::System;
use qp_core::Job;

fn water_system() -> System {
    let mut gs = GridSettings::light();
    gs.n_radial = 24;
    gs.max_angular = 26;
    System::build(water(), BasisSettings::Light, &gs, 150, 2)
}

#[test]
fn full_pipeline_produces_physical_polarizability() {
    let sys = water_system();
    let out = Job::new(ScfOptions::default(), DfptOptions::default())
        .run(&sys)
        .expect("SCF + DFPT");
    let a = &out.alpha;
    // Positive definite diagonal, symmetric, finite anisotropy.
    for d in 0..3 {
        assert!(a[(d, d)] > 0.1, "α[{d}{d}] = {}", a[(d, d)]);
    }
    for i in 0..3 {
        for j in (i + 1)..3 {
            assert!((a[(i, j)] - a[(j, i)]).abs() < 0.05 * a[(0, 0)]);
        }
    }
}

#[test]
fn dfpt_equals_numerical_derivative_of_dipole() {
    // The workspace-level correctness anchor, repeated here as an
    // integration test at a different field strength than the unit test.
    let sys = water_system();
    let ground = scf(&sys, &ScfOptions::default()).expect("SCF");
    let resp = dfpt_direction(&sys, &ground, 1, &DfptOptions::default()).expect("DFPT-y");
    let dip_y = qp_core::operators::dipole_matrix(&sys, 1);
    let alpha_yy = resp.p1.trace_product(&dip_y).expect("square");

    let xi = 1e-3;
    let tight = ScfOptions {
        tol: 1e-10,
        ..ScfOptions::default()
    };
    let plus = scf(
        &sys,
        &ScfOptions {
            field: Some([0.0, xi, 0.0]),
            ..tight
        },
    )
    .expect("SCF(+ξ)");
    let minus = scf(
        &sys,
        &ScfOptions {
            field: Some([0.0, -xi, 0.0]),
            ..tight
        },
    )
    .expect("SCF(-ξ)");
    let fd = (electronic_dipole(&sys, &plus.density)[1]
        - electronic_dipole(&sys, &minus.density)[1])
        / (2.0 * xi);
    assert!(
        (alpha_yy - fd).abs() < 0.02 * fd.abs().max(0.5),
        "DFPT α_yy = {alpha_yy} vs finite-field {fd}"
    );
}

#[test]
fn parallel_and_serial_dfpt_agree_across_schemes() {
    let sys = water_system();
    let ground = scf(&sys, &ScfOptions::default()).expect("SCF");
    let opts = DfptOptions::default();
    let serial = dfpt_direction(&sys, &ground, 0, &opts).expect("serial");
    for (mapping, scheme) in [
        (MappingKind::LoadBalancing, CollectiveScheme::PerRow),
        (MappingKind::LocalityEnhancing, CollectiveScheme::Packed),
        (
            MappingKind::LocalityEnhancing,
            CollectiveScheme::PackedHierarchical,
        ),
    ] {
        let cfg = ParallelConfig {
            n_ranks: 6,
            ranks_per_node: 3,
            mapping,
            collectives: scheme,
        };
        let par = parallel_dfpt_direction(&sys, &ground, 0, &opts, &cfg).expect("parallel");
        assert!(
            par.p1.max_abs_diff(&serial.p1) < 1e-6,
            "{mapping:?}/{scheme:?}: deviation {}",
            par.p1.max_abs_diff(&serial.p1)
        );
    }
}

#[test]
fn instrumented_kernels_match_reference_physics() {
    // qp-cl instrumentation must never change numbers.
    let sys = water_system();
    let ground = scf(&sys, &ScfOptions::default()).expect("SCF");
    let queue = qp_cl::CommandQueue::new(qp_cl::device::sw39010());
    let (n_dense, _) = qp_core::kernels::sumup_phase(
        &queue,
        &sys,
        &ground.density_matrix,
        qp_core::kernels::MatrixAccess::DenseLocal,
    );
    let reference = sys.density_on_grid(&ground.density_matrix);
    for (a, b) in n_dense.iter().zip(reference.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
    // The ground-state density from the converged P integrates to N_e.
    let ne = sys.grid.integrate_values(&n_dense);
    assert!((ne - 10.0).abs() < 0.1, "∫n = {ne}");
}

#[test]
fn scf_energy_is_variational_under_grid_refinement() {
    // Refining the angular grid must not change the energy drastically —
    // catches quadrature-consistency regressions across qp-chem/qp-core.
    let coarse = {
        let mut gs = GridSettings::light();
        gs.n_radial = 20;
        gs.max_angular = 14;
        let sys = System::build(water(), BasisSettings::Light, &gs, 150, 2);
        scf(&sys, &ScfOptions::default())
            .expect("SCF coarse")
            .energy
    };
    let fine = {
        let mut gs = GridSettings::light();
        gs.n_radial = 30;
        gs.max_angular = 38;
        let sys = System::build(water(), BasisSettings::Light, &gs, 150, 2);
        scf(&sys, &ScfOptions::default()).expect("SCF fine").energy
    };
    assert!(
        (coarse - fine).abs() < 0.8,
        "grid sensitivity too large: {coarse} vs {fine}"
    );
}

#[test]
fn polarizability_transforms_as_a_tensor_under_rotation() {
    // Rotate the molecule by 35 degrees about z: the DFPT polarizability
    // must co-rotate, α' = R α Rᵀ. This exercises grids, batching, Poisson,
    // xc and the Sternheimer update under a nontrivial frame change.
    let theta = 35.0f64.to_radians();
    let (c, s) = (theta.cos(), theta.sin());
    let rotate = |p: [f64; 3]| [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]];

    let base = water();
    let rotated = qp_chem::geometry::Structure::new(
        base.atoms
            .iter()
            .map(|a| qp_chem::geometry::Atom::new(a.element, rotate(a.position)))
            .collect(),
    );

    let gs = GridSettings::light(); // finest grids: rotation error is pure quadrature
    let run = |structure: qp_chem::geometry::Structure| {
        let sys = System::build(structure, BasisSettings::Light, &gs, 150, 4);
        Job::new(ScfOptions::default(), DfptOptions::default())
            .run(&sys)
            .expect("SCF + DFPT")
            .alpha
    };
    let alpha = run(base);
    let alpha_rot = run(rotated);

    // R α Rᵀ computed explicitly.
    let r = qp_linalg::DMatrix::from_vec(3, 3, vec![c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0]).unwrap();
    let expected = r.matmul(&alpha).unwrap().matmul(&r.transpose()).unwrap();
    let dev = alpha_rot.max_abs_diff(&expected);
    // Our largest Lebedev rule is 50 points (degree 11); the response
    // integrands exceed that, so the tensor co-rotates only to ~10 %.
    // (FHI-aims ships 302-point rules; the residual here is a documented
    // grid limitation, not an algorithmic one — see the angular ramp note
    // in qp-chem::grids.)
    let scale = alpha.trace().abs() / 3.0;
    assert!(
        dev < 0.15 * scale.max(0.1),
        "α does not co-rotate: deviation {dev}, scale {scale}"
    );
    // The rotational invariant (trace) is much tighter: within 1%.
    assert!(
        (alpha_rot.trace() - alpha.trace()).abs() < 0.01 * alpha.trace().abs(),
        "trace changed under rotation: {} vs {}",
        alpha_rot.trace(),
        alpha.trace()
    );
}
