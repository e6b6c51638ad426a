//! Criterion microbenches for the qp-par substrate: the blocked GEMM serial
//! vs pooled across sizes, the Householder eigensolver and the
//! SCF's generalized eigensolve serial vs pooled, the Sumup kernel with the
//! basis-value cache cold vs warm, the Sternheimer response build —
//! O(n⁴) pair-loop vs the factored `C·W·Cᵀ` GEMM form — and the Rho
//! phase's Hartree potential on ligand-49, serial vs pooled.
//!
//! Run with `CRITERION_FULL=1 cargo bench -p qp-bench --bench perf_kernels`
//! for the larger iteration budget; numbers are recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_chem::structures::ligand49;
use qp_core::dfpt::{sternheimer_response, sternheimer_response_pairwise};
use qp_core::kernels::{sumup_phase, MatrixAccess};
use qp_core::system::System;
use qp_core::{FarFieldMode, ScreeningMode};
use qp_linalg::{generalized_symmetric_eigen_with, symmetric_eigen, Cholesky, DMatrix};

fn test_matrix(n: usize, seed: usize) -> DMatrix {
    DMatrix::from_fn(n, n, |i, j| {
        (((i * 31 + j * 7 + seed) % 97) as f64) / 97.0 - 0.5
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for n in [64, 128, 256, 512, 768] {
        let a = test_matrix(n, 0);
        let b = test_matrix(n, 1);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| a.matmul(std::hint::black_box(&b)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |bch, _| {
            bch.iter(|| a.par_matmul(std::hint::black_box(&b)).unwrap())
        });
    }
    group.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigen");
    for n in [128, 256] {
        let mut m = test_matrix(n, 2);
        m.symmetrize();
        for d in 0..n {
            m[(d, d)] += 4.0; // diagonally dominant: well-separated spectrum
        }
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bch, _| {
            let _lease = qp_par::ThreadLease::exactly(1);
            bch.iter(|| symmetric_eigen(std::hint::black_box(&m)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pool-8", n), &n, |bch, _| {
            let _lease = qp_par::ThreadLease::exactly(8);
            bch.iter(|| symmetric_eigen(std::hint::black_box(&m)).unwrap())
        });
    }
    // The SCF's call, `H C = ε S C` with S factored once per job: 145 is
    // ligand-49's basis size.
    for n in [145, 450] {
        let mut h = test_matrix(n, 5);
        h.symmetrize();
        let g = test_matrix(n, 6);
        let mut s = g.matmul(&g.transpose()).unwrap();
        for d in 0..n {
            s[(d, d)] += 1.0;
        }
        let s_chol = Cholesky::new(&s).unwrap();
        group.bench_with_input(BenchmarkId::new("generalized-serial", n), &n, |bch, _| {
            let _lease = qp_par::ThreadLease::exactly(1);
            bch.iter(|| {
                generalized_symmetric_eigen_with(&s_chol, std::hint::black_box(&h)).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("generalized-pool-8", n), &n, |bch, _| {
            let _lease = qp_par::ThreadLease::exactly(8);
            bch.iter(|| {
                generalized_symmetric_eigen_with(&s_chol, std::hint::black_box(&h)).unwrap()
            })
        });
    }
    group.finish();
}

fn ligand_system() -> System {
    let mut gs = GridSettings::coarse();
    gs.n_radial = 8;
    gs.max_angular = 6;
    gs.min_angular = 6;
    System::build(ligand49(), BasisSettings::Light, &gs, 150, 2)
}

fn bench_sumup_cache(c: &mut Criterion) {
    let queue = qp_cl::CommandQueue::new(qp_cl::device::gcn_gpu());
    let warm = ligand_system();
    warm.warm_tables();
    let nb = warm.n_basis();
    let mut p = DMatrix::from_fn(nb, nb, |i, j| 0.05 * ((i + 2 * j) as f64).sin());
    p.symmetrize();

    let mut group = c.benchmark_group("sumup-basis-cache");
    // Cold: a fresh System per iteration — every batch table is tabulated
    // inside the timed region. Subtract the build-only baseline to isolate
    // the tabulation cost the warm path avoids.
    group.bench_function("build-only baseline", |b| {
        b.iter(|| std::hint::black_box(ligand_system()))
    });
    group.bench_function("cold (tabulates every batch)", |b| {
        b.iter(|| {
            let sys = ligand_system();
            sumup_phase(
                &queue,
                &sys,
                std::hint::black_box(&p),
                MatrixAccess::DenseLocal,
            )
        })
    });
    group.bench_function("warm (cache hits only)", |b| {
        b.iter(|| {
            sumup_phase(
                &queue,
                &warm,
                std::hint::black_box(&p),
                MatrixAccess::DenseLocal,
            )
        })
    });
    group.finish();
}

fn bench_sternheimer(c: &mut Criterion) {
    let mut group = c.benchmark_group("sternheimer");
    for n in [64, 128, 256] {
        let cmat = test_matrix(n, 3);
        let eps: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 2.0).collect();
        // Half-filled Fermi-like occupations with a fractional frontier.
        let occ: Vec<f64> = (0..n)
            .map(|i| match (2 * i).cmp(&n) {
                std::cmp::Ordering::Less => 2.0,
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => 0.0,
            })
            .collect();
        let mut h1_mo = test_matrix(n, 4);
        h1_mo.symmetrize();
        group.bench_with_input(BenchmarkId::new("pair-loop", n), &n, |bch, _| {
            bch.iter(|| {
                sternheimer_response_pairwise(
                    std::hint::black_box(&cmat),
                    &eps,
                    &occ,
                    std::hint::black_box(&h1_mo),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm-form", n), &n, |bch, _| {
            bch.iter(|| {
                sternheimer_response(
                    std::hint::black_box(&cmat),
                    &eps,
                    &occ,
                    std::hint::black_box(&h1_mo),
                )
            })
        });
    }
    group.finish();
}

/// `System::hartree_potential` on ligand-49 as a job builds it (coarse
/// grid, multipole order 4): one radial Poisson solve and the planned
/// evaluation at all 5 684 points. The Hartree plan and the moments are
/// built before the clock, as a job builds them before its first cycle.
fn bench_rho(c: &mut Criterion) {
    let sys = System::for_job(
        ligand49(),
        BasisSettings::Light,
        &GridSettings::coarse(),
        ScreeningMode::Auto,
        FarFieldMode::Auto,
    );
    assert!(
        sys.hartree_plan().is_some(),
        "ligand-49's plan fits the cap"
    );
    let nb = sys.n_basis();
    let p = DMatrix::from_fn(nb, nb, |i, j| if i == j { 0.05 } else { 0.0 });
    let moments = sys.multipole_moments(&sys.density_on_grid(&p));
    let mut group = c.benchmark_group("rho");
    for (name, threads) in [("serial", 1), ("pool-8", 8)] {
        group.bench_function(&format!("ligand49-hartree-{name}"), |b| {
            let _lease = qp_par::ThreadLease::exactly(threads);
            b.iter(|| sys.hartree_potential(std::hint::black_box(&moments), None))
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_gemm(c);
    bench_eigen(c);
    bench_sumup_cache(c);
    bench_sternheimer(c);
    bench_rho(c);
}

criterion_group!(perf_kernels, benches);
criterion_main!(perf_kernels);
