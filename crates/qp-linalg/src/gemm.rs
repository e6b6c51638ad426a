//! Cache-blocked, register-tiled GEMM (the BLIS/GotoBLAS decomposition).
//!
//! `C += A·B` is decomposed into three cache-blocking loops (NC columns of
//! B in L3, KC×NC packed B panel in L2, MC×KC packed A block in L1) around
//! an MR×NR register microkernel over zero-padded packed panels. The same
//! kernel serves `DMatrix::matmul` (serial) and `DMatrix::par_matmul`
//! (parallel over MC row blocks): a given C element is owned by exactly one
//! row block and accumulates its k-contributions in the same fixed order
//! (ascending `pc` blocks, ascending `k` within a block) on every path, so
//! serial and parallel results are **bit-identical** — the determinism
//! contract the SCF/DFPT drivers and qp-resil's bit-exact recovery rely on.
//!
//! Dense means dense: there is no zero-skip branch anywhere (the old
//! `matmul` skipped `aik == 0.0`, silently changing flop counts between
//! dense and sparse-ish inputs); sparsity belongs to the CSR path.
//!
//! The MR×NR microkernel is runtime-dispatched from CPUID: an AVX2
//! `std::arch` path on x86_64 hosts that support it, and the portable
//! scalar loop everywhere else ([`set_microkernel`] switches at runtime for
//! the scalar-vs-AVX2 bit-identity tests). The AVX2
//! kernel deliberately uses separate `mul`/`add` — **no FMA** — and seeds
//! its vector accumulators from `acc`, so every C element sees the exact
//! same IEEE operation sequence as the scalar kernel: SIMD and scalar
//! results are bit-identical, which keeps the determinism contract
//! microkernel-independent.

use std::sync::atomic::{AtomicU8, Ordering};

/// Rows of the packed A block held in L1/L2 per iteration.
const MC: usize = 128;
/// Depth of the packed panels (k-extent per blocking step).
const KC: usize = 256;
/// Columns of the packed B panel held in L2/L3 per iteration.
const NC: usize = 1024;
/// Microkernel register tile rows.
const MR: usize = 4;
/// Microkernel register tile columns.
const NR: usize = 8;

/// Pack the `mc × kc` block of `a` starting at `(ic, pc)` into MR-row
/// strips: strip `ir` stores `a[ic+ir*MR+m][pc+k]` at `[k*MR + m]`,
/// zero-padded where `ir*MR + m >= mc`.
fn pack_a(a: &[f64], lda: usize, ic: usize, pc: usize, mc: usize, kc: usize, out: &mut Vec<f64>) {
    let n_strips = mc.div_ceil(MR);
    out.clear();
    out.resize(n_strips * kc * MR, 0.0);
    for ir in 0..n_strips {
        let strip = &mut out[ir * kc * MR..(ir + 1) * kc * MR];
        let m_eff = (mc - ir * MR).min(MR);
        for m in 0..m_eff {
            let row = &a[(ic + ir * MR + m) * lda + pc..][..kc];
            for (k, &v) in row.iter().enumerate() {
                strip[k * MR + m] = v;
            }
        }
    }
}

/// Pack the `kc × nc` panel of `b` starting at `(pc, jc)` into NR-column
/// strips: strip `jr` stores `b[pc+k][jc+jr*NR+n]` at `[k*NR + n]`,
/// zero-padded where `jr*NR + n >= nc`.
fn pack_b(b: &[f64], ldb: usize, pc: usize, jc: usize, kc: usize, nc: usize, out: &mut Vec<f64>) {
    let n_strips = nc.div_ceil(NR);
    out.clear();
    out.resize(n_strips * kc * NR, 0.0);
    for jr in 0..n_strips {
        let strip = &mut out[jr * kc * NR..(jr + 1) * kc * NR];
        let n_eff = (nc - jr * NR).min(NR);
        for k in 0..kc {
            let row = &b[(pc + k) * ldb + jc + jr * NR..][..n_eff];
            strip[k * NR..k * NR + n_eff].copy_from_slice(row);
        }
    }
}

/// Microkernel selector: resolved once from CPUID on first use,
/// switchable afterwards via [`set_microkernel`].
const KERNEL_UNINIT: u8 = 0;
const KERNEL_SCALAR: u8 = 1;
const KERNEL_AVX2: u8 = 2;

static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNINIT);

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The fastest kernel this host runs.
fn detected_kernel() -> u8 {
    if avx2_available() {
        KERNEL_AVX2
    } else {
        KERNEL_SCALAR
    }
}

fn kernel_kind() -> u8 {
    let k = KERNEL.load(Ordering::Relaxed);
    if k != KERNEL_UNINIT {
        return k;
    }
    let resolved = detected_kernel();
    KERNEL.store(resolved, Ordering::Relaxed);
    resolved
}

fn kernel_name(kind: u8) -> &'static str {
    if kind == KERNEL_AVX2 {
        "avx2"
    } else {
        "scalar"
    }
}

/// Name of the microkernel GEMM calls currently dispatch to
/// (`"avx2"` or `"scalar"`).
pub fn active_microkernel() -> &'static str {
    kernel_name(kernel_kind())
}

/// Force the microkernel (`"scalar"`, `"avx2"`, `"auto"`). Returns the
/// kernel actually in effect; `Err` if `"avx2"` is requested on a host
/// without it or the name is unknown. Safe to flip at any time — both
/// kernels produce bit-identical results, so in-flight GEMMs are
/// unaffected. Intended for tests and benches.
pub fn set_microkernel(choice: &str) -> Result<&'static str, String> {
    let kind = match choice {
        "scalar" => KERNEL_SCALAR,
        "avx2" => {
            if !avx2_available() {
                return Err("avx2 microkernel unavailable on this host".to_string());
            }
            KERNEL_AVX2
        }
        "auto" => detected_kernel(),
        other => return Err(format!("unknown microkernel {other:?}")),
    };
    KERNEL.store(kind, Ordering::Relaxed);
    Ok(kernel_name(kind))
}

/// MR×NR register microkernel (portable scalar form):
/// `acc[m][n] += Σ_k ap[k*MR+m] · bp[k*NR+n]` over one packed-A strip and
/// one packed-B strip of depth `kc`.
#[inline]
fn microkernel_scalar(ap: &[f64], bp: &[f64], kc: usize, acc: &mut [f64; MR * NR]) {
    for k in 0..kc {
        let av = &ap[k * MR..k * MR + MR];
        let bv = &bp[k * NR..k * NR + NR];
        for m in 0..MR {
            let a = av[m];
            let row = &mut acc[m * NR..m * NR + NR];
            for n in 0..NR {
                row[n] += a * bv[n];
            }
        }
    }
}

/// AVX2 form of the same kernel: each 4×8 tile is held in eight `__m256d`
/// accumulators seeded from `acc` (not zero — a trailing `acc + 0.0`-style
/// merge could flip signed-zero bits) and updated with separate
/// `_mm256_mul_pd`/`_mm256_add_pd`. No FMA: fusing would change rounding
/// versus the scalar kernel and break SIMD/scalar bit-identity. Per C
/// element the operation sequence — ascending-`k` multiply, then add —
/// is exactly the scalar kernel's, so the results match bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(ap: &[f64], bp: &[f64], kc: usize, acc: &mut [f64; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    let pa = ap.as_ptr();
    let pb = bp.as_ptr();
    let pacc = acc.as_mut_ptr();
    let mut c: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
    for (m, cm) in c.iter_mut().enumerate() {
        cm[0] = _mm256_loadu_pd(pacc.add(m * NR));
        cm[1] = _mm256_loadu_pd(pacc.add(m * NR + 4));
    }
    for k in 0..kc {
        let b0 = _mm256_loadu_pd(pb.add(k * NR));
        let b1 = _mm256_loadu_pd(pb.add(k * NR + 4));
        for (m, cm) in c.iter_mut().enumerate() {
            let a = _mm256_set1_pd(*pa.add(k * MR + m));
            cm[0] = _mm256_add_pd(cm[0], _mm256_mul_pd(a, b0));
            cm[1] = _mm256_add_pd(cm[1], _mm256_mul_pd(a, b1));
        }
    }
    for (m, cm) in c.iter().enumerate() {
        _mm256_storeu_pd(pacc.add(m * NR), cm[0]);
        _mm256_storeu_pd(pacc.add(m * NR + 4), cm[1]);
    }
}

/// Dispatch one microkernel call to the active implementation.
#[inline]
fn microkernel(kind: u8, ap: &[f64], bp: &[f64], kc: usize, acc: &mut [f64; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if kind == KERNEL_AVX2 {
        // SAFETY: KERNEL_AVX2 is only ever selected after a positive
        // `is_x86_feature_detected!("avx2")` check.
        unsafe { microkernel_avx2(ap, bp, kc, acc) };
        return;
    }
    let _ = kind;
    microkernel_scalar(ap, bp, kc, acc);
}

/// One MC×KC block of A against the current packed-B panel, accumulating
/// into the C rows owned by this block (disjoint across blocks — this is
/// the parallel unit).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    a: &[f64],
    lda: usize,
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    ic: usize,
    jc: usize,
    pc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    let mut ap = Vec::new();
    pack_a(a, lda, ic, pc, mc, kc, &mut ap);
    let kernel = kernel_kind();
    let m_strips = mc.div_ceil(MR);
    let n_strips = nc.div_ceil(NR);
    let mut acc = [0.0f64; MR * NR];
    for jr in 0..n_strips {
        let bstrip = &bp[jr * kc * NR..(jr + 1) * kc * NR];
        let n_eff = (nc - jr * NR).min(NR);
        for ir in 0..m_strips {
            let astrip = &ap[ir * kc * MR..(ir + 1) * kc * MR];
            let m_eff = (mc - ir * MR).min(MR);
            acc.fill(0.0);
            microkernel(kernel, astrip, bstrip, kc, &mut acc);
            for m in 0..m_eff {
                let ci = ic + ir * MR + m;
                let cj = jc + jr * NR;
                for n in 0..n_eff {
                    // SAFETY: (ci, cj+n) lies inside this block's disjoint
                    // row range [ic, ic+mc) — no other block writes it.
                    unsafe {
                        *c.add(ci * ldc + cj + n) += acc[m * NR + n];
                    }
                }
            }
        }
    }
}

/// Raw-pointer wrapper so the parallel closure can write its disjoint C
/// rows without aliasing checks the borrow checker cannot express.
struct CPtr(*mut f64);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Depth of one k-accumulation group: each C element is accumulated as
/// `c += chain(k-segment)` per ascending KC-aligned segment. Restricted
/// contractions that skip exact-zero k ranges (the screened Sternheimer
/// path) must align their gemm calls to this grid — a call per aligned
/// segment reproduces the dense grouping and therefore the dense bits.
pub const K_GROUP: usize = KC;

/// Rows per parallel row block of an `m`-row product on `threads` pool
/// threads: [`MC`], except that a product of at most `2·MC` rows splits
/// into MR-aligned blocks of about `m / threads` rows, so every thread
/// gets a share (ligand-49's n = 145 products would otherwise split
/// 128 + 17, and any m ≤ 128 would run on one thread).
fn row_block(m: usize, threads: usize) -> usize {
    if m <= 2 * MC && threads > 1 {
        m.div_ceil(threads).next_multiple_of(MR).min(MC)
    } else {
        MC
    }
}

/// `c += a·b` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// `parallel` fans the row blocks ([`row_block`]) out over the qp-par
/// pool behind a cost hint of a few flops per ns, so small products stay
/// inline; the result is bit-identical either way (see module docs: a
/// row's C elements accumulate in the same k order in any block).
pub fn gemm(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64], parallel: bool) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    record_roofline(m, n, k);
    let mb = if parallel {
        row_block(m, qp_par::active_threads())
    } else {
        MC
    };
    let n_row_blocks = m.div_ceil(mb);
    let mut bp = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        // Ascending pc keeps each C element's accumulation order fixed.
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b(b, n, pc, jc, kc, nc, &mut bp);
            let cptr = CPtr(c.as_mut_ptr());
            let run_block = |blk: usize| {
                let ic = blk * mb;
                let mc = (m - ic).min(mb);
                macro_kernel(a, k, &bp, cptr.get(), n, ic, jc, pc, mc, nc, kc);
            };
            if parallel && n_row_blocks > 1 {
                // 2·mb·nc·kc flops per block at about 4 per ns.
                let est = (mb * nc * kc / 2) as u64;
                qp_par::for_each_index_hinted(n_row_blocks, est, run_block);
            } else {
                (0..n_row_blocks).for_each(run_block);
            }
        }
    }
}

/// Roofline accounting: count this GEMM's flops and compulsory traffic
/// against the submitting thread's phase label, so the profiler can report
/// achieved GFLOP/s and arithmetic intensity per pipeline phase. The flop
/// count is the algebraic `2mnk`; bytes are the compulsory reads/writes
/// (`A + B` read, `C` read-modify-written), i.e. an upper bound on
/// intensity, not measured cache traffic. Gated on the trace recorder:
/// one relaxed load when profiling is off.
pub(crate) fn record_roofline(m: usize, n: usize, k: usize) {
    if !qp_trace::enabled() {
        return;
    }
    let phase = qp_par::telemetry::current_label();
    let labels: &[(&str, &str)] = &[("phase", phase)];
    let reg = qp_trace::global_metrics();
    reg.counter("linalg.gemm.flops", labels)
        .add(2 * (m as u64) * (n as u64) * (k as u64));
    reg.counter("linalg.gemm.bytes", labels)
        .add(8 * ((m * k) as u64 + (k * n) as u64 + 2 * (m * n) as u64));
    reg.counter("linalg.gemm.calls", labels).inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn pseudo(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        let mut seed = 7u64;
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 16),
            (5, 9, 7),
            (17, 33, 129),
            (130, 70, 300),
        ] {
            let a: Vec<f64> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, &a, &b, &mut c, false);
            let r = reference(m, n, k, &a, &b);
            for (x, y) in c.iter().zip(r.iter()) {
                assert!((x - y).abs() < 1e-12 * (1.0 + y.abs()), "{m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        // MC row blocks (m = 300) and the per-thread split of a product of
        // at most 2·MC rows (ligand-49's n = 145), at 1, 2 and 4 threads.
        let mut seed = 99u64;
        for (m, n, k) in [(300, 257, 190), (145, 145, 145)] {
            let a: Vec<f64> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
            let mut c_serial = vec![0.0; m * n];
            gemm(m, n, k, &a, &b, &mut c_serial, false);
            for threads in [1, 2, 4] {
                let _g = qp_par::ThreadLease::exactly(threads);
                let mut c_par = vec![0.0; m * n];
                gemm(m, n, k, &a, &b, &mut c_par, true);
                let same = c_serial
                    .iter()
                    .zip(&c_par)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{m}x{n}x{k} at {threads} threads: parallel GEMM bits differ"
                );
            }
        }
    }

    #[test]
    fn small_products_split_once_per_thread() {
        assert_eq!(row_block(145, 2), 76);
        assert_eq!(row_block(145, 4), 40);
        assert_eq!(row_block(96, 2), 48);
        assert_eq!(row_block(145, 1), MC);
        assert_eq!(row_block(2 * MC + 1, 2), MC);
        assert_eq!(row_block(1000, 8), MC);
    }

    #[test]
    fn simd_and_scalar_microkernels_are_bit_identical() {
        if set_microkernel("avx2").is_err() {
            // Host without AVX2: dispatch already pins scalar; nothing to
            // compare.
            return;
        }
        let mut seed = 4242u64;
        // Ragged shape: exercises the zero-padded strip tails too.
        let (m, n, k) = (97, 61, 143);
        let a: Vec<f64> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
        let mut c_simd = vec![0.0; m * n];
        gemm(m, n, k, &a, &b, &mut c_simd, false);
        set_microkernel("scalar").unwrap();
        let mut c_scalar = vec![0.0; m * n];
        gemm(m, n, k, &a, &b, &mut c_scalar, false);
        set_microkernel("auto").unwrap();
        let same = c_simd
            .iter()
            .zip(c_scalar.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "avx2 and scalar microkernels must agree bit-for-bit");
    }

    #[test]
    fn microkernel_override_reports_active_kernel() {
        assert_eq!(set_microkernel("scalar").unwrap(), "scalar");
        assert!(set_microkernel("neon").is_err());
        // Restore auto-dispatch for the rest of the suite.
        let auto = set_microkernel("auto").unwrap();
        assert!(auto == "avx2" || auto == "scalar");
        assert_eq!(active_microkernel(), auto);
    }

    #[test]
    fn accumulates_into_nonzero_c() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        gemm(2, 2, 2, &a, &b, &mut c, false);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }
}
