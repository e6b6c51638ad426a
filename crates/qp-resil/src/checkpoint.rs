//! The `QPCK` checkpoint format: versioned, checksummed, hand-rolled binary.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QPCK"
//! 4       4     format version (u32, currently 2)
//! 8       1     kind (2 = DFPT direction, 3 = job)
//! 9       8     payload length (u64)
//! 17      8     FNV-1a 64 checksum of the payload
//! 25      —     payload
//! ```
//!
//! A job's resume state is one kind-3 [`JobCheckpoint`]: the SCF seed, the
//! finished directions and the in-flight direction's loop state. Kind 2
//! ([`DfptCheckpoint`]) is one direction's loop state on its own, which no
//! driver writes any more. Kind 1, a standalone SCF record, is retired.
//!
//! Version history: v1 carried `(dir, iteration, c1, p1, residual)` for
//! DFPT; v2 appends the Pulay/DIIS mixer history (`diis_in`, `diis_res`)
//! so a restarted direction replays the DIIS-accelerated sequence
//! bit-exactly. Loads reject other versions (a v1 file cannot seed a v2
//! mixer without silently changing the replayed trajectory).
//!
//! Matrices are encoded as `rows:u64, cols:u64, data:f64×(rows·cols)` with
//! `f64::to_le_bytes`, so a save→load round trip is **bit-exact** — the
//! restored run replays the identical floating-point sequence, which is what
//! lets a resumed job land on the uninterrupted answer to the last bit.
//!
//! Writes are atomic: the bytes go to `<path>.tmp` and are `rename`d into
//! place, so a crash mid-write leaves the previous checkpoint intact.
//! Loads verify magic, version, kind, length, and checksum before decoding;
//! corruption or truncation is a clean [`ResilError`], never a panic.

use crate::{ResilError, Result};
use qp_linalg::DMatrix;
use std::path::Path;

const MAGIC: [u8; 4] = *b"QPCK";
const VERSION: u32 = 2;
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 8;

const KIND_DFPT: u8 = 2;
const KIND_JOB: u8 = 3;

/// FNV-1a 64-bit checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- encoding

#[derive(Default)]
struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_matrix(&mut self, m: &DMatrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.as_slice() {
            self.put_f64(v);
        }
    }

    fn put_matrices(&mut self, ms: &[DMatrix]) {
        self.put_usize(ms.len());
        for m in ms {
            self.put_matrix(m);
        }
    }
}

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ResilError::Format("payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ResilError::Format("length overflows usize"))
    }

    fn f64(&mut self) -> Result<f64> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn matrix(&mut self) -> Result<DMatrix> {
        let rows = self.counted(8)?;
        let cols = self.counted(8)?;
        let n = rows
            .checked_mul(cols)
            .ok_or(ResilError::Format("matrix dims overflow"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64()?);
        }
        DMatrix::from_vec(rows, cols, data).map_err(|_| ResilError::Format("bad matrix dims"))
    }

    fn matrices(&mut self) -> Result<Vec<DMatrix>> {
        let n = self.counted(16)?;
        (0..n).map(|_| self.matrix()).collect()
    }

    /// A count whose items occupy at least `min_item_bytes` each — rejects
    /// absurd counts before any allocation (defense against corrupted
    /// lengths that survived the checksum only in adversarial tests).
    fn counted(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(min_item_bytes) > self.buf.len() {
            return Err(ResilError::Format("count exceeds payload"));
        }
        Ok(n)
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ResilError::Format("trailing bytes after payload"))
        }
    }
}

// ------------------------------------------------------------- the framing

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn unframe(bytes: &[u8], want_kind: u8) -> Result<&[u8]> {
    if bytes.len() < HEADER_LEN {
        return Err(ResilError::Format("shorter than header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(ResilError::Format("bad magic (not a QPCK checkpoint)"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(ResilError::Format("unsupported checkpoint version"));
    }
    let kind = bytes[8];
    if kind != want_kind {
        return Err(ResilError::Format("checkpoint kind mismatch"));
    }
    let len = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes")) as usize;
    let stored_sum = u64::from_le_bytes(bytes[17..25].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len {
        return Err(ResilError::Format("payload length mismatch (truncated?)"));
    }
    let got = fnv1a(payload);
    if got != stored_sum {
        return Err(ResilError::Checksum {
            expected: stored_sum,
            got,
        });
    }
    Ok(payload)
}

fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ----------------------------------------------------------------- payloads

/// Loop-carried SCF state: everything needed to resume the ground-state
/// cycle at `iteration + 1` and replay the remaining iterations exactly.
/// It is written only as the SCF seed of a [`JobCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScfCheckpoint {
    /// Completed SCF iterations.
    pub iteration: usize,
    /// Kohn–Sham total energy at `iteration` (diagnostic only).
    pub energy: f64,
    /// The mixed density matrix that seeds iteration `iteration + 1`.
    pub p_mat: DMatrix,
    /// Pulay/DIIS input-density history.
    pub diis_in: Vec<DMatrix>,
    /// Pulay/DIIS residual history (same length as `diis_in`).
    pub diis_res: Vec<DMatrix>,
}

impl ScfCheckpoint {
    fn encode_payload(&self, e: &mut Encoder) {
        e.put_usize(self.iteration);
        e.put_f64(self.energy);
        e.put_matrix(&self.p_mat);
        e.put_matrices(&self.diis_in);
        e.put_matrices(&self.diis_res);
    }

    fn decode_payload(d: &mut Decoder) -> Result<Self> {
        Ok(ScfCheckpoint {
            iteration: d.usize()?,
            energy: d.f64()?,
            p_mat: d.matrix()?,
            diis_in: d.matrices()?,
            diis_res: d.matrices()?,
        })
    }
}

/// Loop-carried DFPT state for one field direction, as a kind-2 record of
/// its own: resume the Sternheimer cycle at `iteration + 1` with the mixed
/// `P¹` and its mixer history. No driver writes or reads it; a job's
/// in-flight direction lives in its [`JobCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct DfptCheckpoint {
    /// Cartesian direction (0 = x, 1 = y, 2 = z).
    pub dir: usize,
    /// Completed DFPT iterations.
    pub iteration: usize,
    /// Response coefficients `C¹` of the earlier driver that mixed `C¹`
    /// rather than `P¹` (empty otherwise).
    pub c1: DMatrix,
    /// Mixed response density matrix `P¹` entering the next iteration.
    pub p1: DMatrix,
    /// `‖ΔP¹‖` at `iteration` (diagnostic only).
    pub residual: f64,
    /// Pulay/DIIS mixer input history (empty under linear mixing).
    pub diis_in: Vec<DMatrix>,
    /// Pulay/DIIS mixer residual history (same length as `diis_in`).
    pub diis_res: Vec<DMatrix>,
}

impl DfptCheckpoint {
    /// Serialize to the framed `QPCK` byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::default();
        e.put_usize(self.dir);
        e.put_usize(self.iteration);
        e.put_matrix(&self.c1);
        e.put_matrix(&self.p1);
        e.put_f64(self.residual);
        e.put_matrices(&self.diis_in);
        e.put_matrices(&self.diis_res);
        frame(KIND_DFPT, &e.buf)
    }

    /// Decode from framed bytes, verifying header and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(unframe(bytes, KIND_DFPT)?);
        let out = DfptCheckpoint {
            dir: d.usize()?,
            iteration: d.usize()?,
            c1: d.matrix()?,
            p1: d.matrix()?,
            residual: d.f64()?,
            diis_in: d.matrices()?,
            diis_res: d.matrices()?,
        };
        d.finish()?;
        Ok(out)
    }

    /// Atomically write to `path` (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes())
    }

    /// Load and verify from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// A finished DFPT direction inside a [`JobCheckpoint`]: only the numbers
/// that survive into the final answer.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDoneDirection {
    /// DFPT iterations the direction took.
    pub iterations: usize,
    /// The direction's polarizability column `α_{·,J} = Tr[P¹_J D_I]`.
    pub alpha_col: [f64; 3],
}

/// The in-flight DFPT direction of a preempted job: the same loop state as
/// [`DfptCheckpoint`], without the `c1` slot.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDirCheckpoint {
    /// Cartesian direction (0 = x, 1 = y, 2 = z).
    pub dir: usize,
    /// Completed DFPT iterations.
    pub iteration: usize,
    /// `‖ΔP¹‖` at `iteration` (diagnostic only).
    pub residual: f64,
    /// Mixed response density matrix entering the next iteration.
    pub p1: DMatrix,
    /// Pulay/DIIS mixer input history (empty under linear mixing).
    pub diis_in: Vec<DMatrix>,
    /// Pulay/DIIS mixer residual history (same length as `diis_in`).
    pub diis_res: Vec<DMatrix>,
}

impl JobDirCheckpoint {
    fn encode_payload(&self, e: &mut Encoder) {
        e.put_usize(self.dir);
        e.put_usize(self.iteration);
        e.put_f64(self.residual);
        e.put_matrix(&self.p1);
        e.put_matrices(&self.diis_in);
        e.put_matrices(&self.diis_res);
    }

    fn decode_payload(d: &mut Decoder) -> Result<Self> {
        Ok(JobDirCheckpoint {
            dir: d.usize()?,
            iteration: d.usize()?,
            residual: d.f64()?,
            p1: d.matrix()?,
            diis_in: d.matrices()?,
            diis_res: d.matrices()?,
        })
    }
}

/// The resume state of one job, and its only on-disk record: where the job
/// stood at an iteration boundary, and everything needed to replay the
/// remainder bit-exactly. The job pipeline writes it for `qperturb
/// --checkpoint-dir` and for `qp-serve` alike — a job preempted at an
/// iteration boundary, or killed with its process, resumes from this state
/// and lands on the identical SCF energy and polarizability as an
/// uninterrupted run.
///
/// Layout choices mirror the driver: the SCF seed is the *latest
/// non-converged* [`ScfCheckpoint`] (resume replays the short tail of the
/// ground-state cycle — determinism makes the replay exact); finished
/// directions keep only their α columns; the in-flight direction carries
/// its full mixer state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobCheckpoint {
    /// Content key of the job this state belongs to, over the canonical
    /// string of its physics inputs (a front end refuses to resume a job
    /// from another job's state).
    pub key: [u64; 2],
    /// Latest captured SCF state (`None` = SCF had not yet reached its
    /// first iteration boundary; resume recomputes from scratch).
    pub scf: Option<ScfCheckpoint>,
    /// Directions already converged, in direction order.
    pub dirs_done: Vec<JobDoneDirection>,
    /// The direction that was interrupted mid-cycle, if any.
    pub cur_dir: Option<JobDirCheckpoint>,
}

impl JobCheckpoint {
    /// Serialize to the framed `QPCK` byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(self.cur_dir.as_ref())
    }

    /// The framed bytes of this state with `cur_dir` as its in-flight
    /// direction.
    fn encode(&self, cur_dir: Option<&JobDirCheckpoint>) -> Vec<u8> {
        let mut e = Encoder::default();
        e.put_u64(self.key[0]);
        e.put_u64(self.key[1]);
        match &self.scf {
            Some(scf) => {
                e.put_u64(1);
                scf.encode_payload(&mut e);
            }
            None => e.put_u64(0),
        }
        e.put_usize(self.dirs_done.len());
        for d in &self.dirs_done {
            e.put_usize(d.iterations);
            for &a in &d.alpha_col {
                e.put_f64(a);
            }
        }
        match cur_dir {
            Some(cur) => {
                e.put_u64(1);
                cur.encode_payload(&mut e);
            }
            None => e.put_u64(0),
        }
        frame(KIND_JOB, &e.buf)
    }

    /// Decode from framed bytes, verifying header and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(unframe(bytes, KIND_JOB)?);
        let key = [d.u64()?, d.u64()?];
        let scf = match d.u64()? {
            0 => None,
            1 => Some(ScfCheckpoint::decode_payload(&mut d)?),
            _ => return Err(ResilError::Format("bad option tag")),
        };
        let n_done = d.counted(8 + 24)?;
        let mut dirs_done = Vec::with_capacity(n_done);
        for _ in 0..n_done {
            let iterations = d.usize()?;
            let mut alpha_col = [0.0; 3];
            for a in &mut alpha_col {
                *a = d.f64()?;
            }
            dirs_done.push(JobDoneDirection {
                iterations,
                alpha_col,
            });
        }
        let cur_dir = match d.u64()? {
            0 => None,
            1 => Some(JobDirCheckpoint::decode_payload(&mut d)?),
            _ => return Err(ResilError::Format("bad option tag")),
        };
        d.finish()?;
        Ok(JobCheckpoint {
            key,
            scf,
            dirs_done,
            cur_dir,
        })
    }

    /// Atomically write to `path` (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        self.save_with(path, self.cur_dir.as_ref())
    }

    /// [`save`](Self::save) this state with `cur_dir` as its in-flight
    /// direction: a job mid-direction writes its record without copying
    /// the direction's loop state in.
    pub fn save_with(&self, path: &Path, cur_dir: Option<&JobDirCheckpoint>) -> Result<()> {
        atomic_write(path, &self.encode(cur_dir))
    }

    /// Load and verify from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, vals: &[f64]) -> DMatrix {
        DMatrix::from_vec(rows, cols, vals.to_vec()).unwrap()
    }

    fn sample_dfpt() -> DfptCheckpoint {
        DfptCheckpoint {
            dir: 2,
            iteration: 7,
            c1: mat(2, 2, &[0.1, -0.2, 0.3, f64::MIN_POSITIVE]),
            p1: mat(2, 2, &[1.0, 2.0, 3.0, -4.0]),
            residual: 1.25e-5,
            diis_in: vec![mat(2, 2, &[0.9, 0.8, 0.7, 0.6]), mat(2, 2, &[0.5; 4])],
            diis_res: vec![mat(2, 2, &[1e-2; 4]), mat(2, 2, &[-1e-3, 1e-3, 0.0, 2e-3])],
        }
    }

    #[test]
    fn dfpt_round_trip_is_bit_exact() {
        let ck = sample_dfpt();
        let back = DfptCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back, ck);
        for (a, b) in back.c1.as_slice().iter().zip(ck.c1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn sample_job() -> JobCheckpoint {
        JobCheckpoint {
            key: [0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321],
            scf: Some(ScfCheckpoint {
                iteration: 9,
                energy: -75.123,
                p_mat: mat(2, 2, &[1.0, 0.5, 0.5, 2.0]),
                diis_in: vec![mat(2, 2, &[0.25; 4])],
                diis_res: vec![mat(2, 2, &[1e-4; 4])],
            }),
            dirs_done: vec![JobDoneDirection {
                iterations: 11,
                alpha_col: [8.25, -0.001, f64::MIN_POSITIVE],
            }],
            cur_dir: Some(JobDirCheckpoint {
                dir: 1,
                iteration: 4,
                residual: 3.5e-4,
                p1: mat(2, 2, &[0.0, 1.0, 1.0, -2.0]),
                diis_in: vec![mat(2, 2, &[0.125; 4]); 2],
                diis_res: vec![mat(2, 2, &[-1e-5; 4]); 2],
            }),
        }
    }

    #[test]
    fn job_round_trip_is_bit_exact() {
        let ck = sample_job();
        let back = JobCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back, ck);
        let a = back.dirs_done[0].alpha_col[2];
        assert_eq!(a.to_bits(), f64::MIN_POSITIVE.to_bits());
        // Sparse variants (no SCF seed, no in-flight direction) too.
        let bare = JobCheckpoint {
            scf: None,
            cur_dir: None,
            ..ck
        };
        assert_eq!(JobCheckpoint::from_bytes(&bare.to_bytes()).unwrap(), bare);
    }

    #[test]
    fn job_file_round_trip_and_kind_isolation() {
        let dir = std::env::temp_dir().join("qp_resil_job_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.qpck");
        let ck = sample_job();
        ck.save(&path).unwrap();
        assert_eq!(JobCheckpoint::load(&path).unwrap(), ck);
        // The atomic-write temp file must not survive.
        assert!(!path.with_extension("tmp").exists());
        // The DFPT reader must refuse a job checkpoint, and vice versa.
        assert!(matches!(
            DfptCheckpoint::from_bytes(&ck.to_bytes()),
            Err(ResilError::Format(_))
        ));
        assert!(matches!(
            JobCheckpoint::from_bytes(&sample_dfpt().to_bytes()),
            Err(ResilError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn job_corruption_and_truncation_detected() {
        let bytes = sample_job().to_bytes();
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 2] ^= 0x10;
        assert!(JobCheckpoint::from_bytes(&corrupt).is_err());
        assert!(JobCheckpoint::from_bytes(&bytes[..n - 9]).is_err());
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut bytes = sample_dfpt().to_bytes();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        assert!(matches!(
            DfptCheckpoint::from_bytes(&bytes),
            Err(ResilError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let bytes = sample_dfpt().to_bytes();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            let out = DfptCheckpoint::from_bytes(&bytes[..cut]);
            assert!(
                matches!(out, Err(ResilError::Format(_))),
                "cut at {cut}: {out:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_version_and_kind_rejected() {
        let ck = sample_dfpt();
        let mut bad_magic = ck.to_bytes();
        bad_magic[0] = b'X';
        assert!(matches!(
            DfptCheckpoint::from_bytes(&bad_magic),
            Err(ResilError::Format(_))
        ));

        let mut bad_version = ck.to_bytes();
        bad_version[4] = 99;
        assert!(matches!(
            DfptCheckpoint::from_bytes(&bad_version),
            Err(ResilError::Format(_))
        ));

        // Kind 1, the retired standalone SCF record, is refused.
        let mut retired_kind = ck.to_bytes();
        retired_kind[8] = 1;
        assert!(matches!(
            DfptCheckpoint::from_bytes(&retired_kind),
            Err(ResilError::Format(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn round_trip_preserves_every_bit(
            rows in 1usize..6,
            cols in 1usize..6,
            iteration in 0usize..1000,
            vals in prop::collection::vec(-1.0e3f64..1.0e3, 200),
            hist in 0usize..4,
        ) {
            let n = rows * cols;
            let take = |k: usize| mat(rows, cols, &vals[k * n..(k + 1) * n]);
            let ck = JobCheckpoint {
                scf: Some(ScfCheckpoint {
                    iteration,
                    energy: vals[0],
                    p_mat: take(0),
                    diis_in: (0..hist).map(take).collect(),
                    diis_res: (0..hist).map(|k| take(k + hist)).collect(),
                }),
                ..JobCheckpoint::default()
            };
            let back = JobCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
            prop_assert_eq!(&back, &ck);
            let (p, q) = (back.scf.unwrap().p_mat, ck.scf.unwrap().p_mat);
            for (a, b) in p.as_slice().iter().zip(q.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn any_single_bit_flip_is_detected(
            byte_frac in 0.0f64..1.0,
            bit in 0usize..8,
        ) {
            let bytes = sample_dfpt().to_bytes();
            let mut mutated = bytes.clone();
            let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            mutated[idx] ^= 1 << bit;
            // Either the structure check or the checksum must catch it —
            // a flipped bit may corrupt the header or the payload.
            prop_assert!(DfptCheckpoint::from_bytes(&mutated).is_err());
        }
    }
}
