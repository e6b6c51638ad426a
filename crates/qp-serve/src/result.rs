//! The served result record and its canonical JSON form.
//!
//! A record is built from a finished job by one function
//! (`From<&JobOutput>`), which the engine and the CLI's `--result-json`
//! both call, and one writer serves three consumers — the protocol's
//! `done` responses, the `--result-json` file, and the CI smoke leg's byte
//! comparison — so "bit-identical results" is checkable with `cmp(1)`:
//! every `f64` is rendered with shortest-round-trip `Display` by the
//! `json` writer.

use crate::json::{obj, Json};
use qp_core::JobOutput;
use qp_linalg::DMatrix;

/// Everything a completed job reports.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultData {
    /// Kohn–Sham total energy (Hartree).
    pub energy: f64,
    /// Ground-state SCF iterations.
    pub scf_iterations: usize,
    /// Dipole moment (a.u.).
    pub dipole: [f64; 3],
    /// Polarizability tensor `α` (Bohr³), 3×3.
    pub alpha: DMatrix,
    /// DFPT iterations per Cartesian direction.
    pub dfpt_iterations: [usize; 3],
    /// `Tr(α)/3` (Bohr³).
    pub isotropic: f64,
    /// Polarizability anisotropy (Bohr³).
    pub anisotropy: f64,
}

impl From<&JobOutput> for JobResultData {
    fn from(out: &JobOutput) -> Self {
        JobResultData {
            energy: out.ground.energy,
            scf_iterations: out.ground.iterations,
            dipole: out.dipole,
            alpha: out.alpha.clone(),
            dfpt_iterations: out.dfpt_iterations,
            isotropic: out.isotropic,
            anisotropy: out.anisotropy,
        }
    }
}

impl JobResultData {
    /// The canonical JSON object (see module docs).
    pub fn to_json(&self) -> Json {
        let alpha_rows: Vec<Json> = (0..3)
            .map(|i| Json::Arr((0..3).map(|j| Json::Num(self.alpha[(i, j)])).collect()))
            .collect();
        obj(vec![
            ("energy", Json::Num(self.energy)),
            ("scf_iterations", Json::Num(self.scf_iterations as f64)),
            (
                "dipole",
                Json::Arr(self.dipole.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("alpha", Json::Arr(alpha_rows)),
            (
                "dfpt_iterations",
                Json::Arr(
                    self.dfpt_iterations
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("isotropic", Json::Num(self.isotropic)),
            ("anisotropy", Json::Num(self.anisotropy)),
        ])
    }

    /// Parse back from the canonical JSON object (state-dir recovery).
    pub fn from_json(v: &Json) -> Option<JobResultData> {
        let alpha_rows = v.get("alpha")?.as_arr()?;
        if alpha_rows.len() != 3 {
            return None;
        }
        let mut alpha = DMatrix::zeros(3, 3);
        for (i, row) in alpha_rows.iter().enumerate() {
            let row = row.as_arr()?;
            if row.len() != 3 {
                return None;
            }
            for (j, x) in row.iter().enumerate() {
                alpha[(i, j)] = x.as_f64()?;
            }
        }
        let tri = |key: &str| -> Option<Vec<f64>> {
            let a = v.get(key)?.as_arr()?;
            if a.len() != 3 {
                return None;
            }
            a.iter().map(|x| x.as_f64()).collect()
        };
        let dipole_v = tri("dipole")?;
        let iters = v.get("dfpt_iterations")?.as_arr()?;
        if iters.len() != 3 {
            return None;
        }
        let mut dfpt_iterations = [0usize; 3];
        for (k, n) in iters.iter().enumerate() {
            dfpt_iterations[k] = n.as_usize()?;
        }
        Some(JobResultData {
            energy: v.get("energy")?.as_f64()?,
            scf_iterations: v.get("scf_iterations")?.as_usize()?,
            dipole: [dipole_v[0], dipole_v[1], dipole_v[2]],
            alpha,
            dfpt_iterations,
            isotropic: v.get("isotropic")?.as_f64()?,
            anisotropy: v.get("anisotropy")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut alpha = DMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                alpha[(i, j)] = (1.0 + i as f64) / (3.0 + j as f64);
            }
        }
        let r = JobResultData {
            energy: -76.12345678901234,
            scf_iterations: 17,
            dipole: [0.1, -0.2, 1.0 / 3.0],
            alpha,
            dfpt_iterations: [8, 9, 10],
            isotropic: 9.87654321,
            anisotropy: 0.000123456,
        };
        let text = r.to_json().to_string();
        let back = JobResultData::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // And the serialized form is stable (same bits in -> same bytes out).
        assert_eq!(back.to_json().to_string(), text);
    }
}
