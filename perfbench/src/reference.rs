//! Reference results and the correctness gate.
//!
//! `reference.json` holds result records of the direct `qperturb` path
//! (`--result-json`), taken at the commit that introduced this benchmark.
//! A job passes when its α matches the reference within [`ALPHA_RTOL`] of
//! max |α| — the tolerance the far field already works to — and its energy
//! within the same relative tolerance. Iteration counts are recorded and
//! reported, not gated: a solver change may legitimately move them.

use qp_linalg::DMatrix;
use qp_serve::json::{parse, Json};
use qp_serve::JobResultData;

/// Relative tolerance on α (against max |α_ref|) and on the energy.
pub const ALPHA_RTOL: f64 = 1e-6;

const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The reference record stored under `key` (`ligand49`, `polymer8`,
/// `serve:polymer:2`, `serve:water`).
pub fn record(key: &str) -> JobResultData {
    let doc: Json = parse(REFERENCE_JSON).expect("reference.json is valid JSON");
    doc.get(key)
        .and_then(JobResultData::from_json)
        .unwrap_or_else(|| panic!("reference.json has no result record '{key}'"))
}

/// Check a computed energy and α against a reference record.
pub fn check(reference: &JobResultData, energy: f64, alpha: &DMatrix) -> Result<(), String> {
    let entries = || (0..3).flat_map(|i| (0..3).map(move |j| (i, j)));
    if !energy.is_finite() || entries().any(|ij| !alpha[ij].is_finite()) {
        return Err("energy or alpha is not finite".into());
    }
    let scale = entries()
        .map(|ij| reference.alpha[ij].abs())
        .fold(0.0, f64::max);
    let dev = entries()
        .map(|ij| (alpha[ij] - reference.alpha[ij]).abs())
        .fold(0.0, f64::max);
    if dev > ALPHA_RTOL * scale {
        return Err(format!(
            "alpha deviates by {dev:.3e} (limit {:.3e})",
            ALPHA_RTOL * scale
        ));
    }
    let de = (energy - reference.energy).abs();
    if de > ALPHA_RTOL * reference.energy.abs() {
        return Err(format!(
            "energy {energy} deviates from {} by {de:.3e}",
            reference.energy
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_loads() {
        for key in ["ligand49", "polymer8", "serve:polymer:2", "serve:water"] {
            let r = record(key);
            assert!(r.energy < 0.0 && r.isotropic > 0.0, "{key}");
        }
    }

    #[test]
    fn the_reference_passes_its_own_check() {
        let r = record("ligand49");
        assert!(check(&r, r.energy, &r.alpha).is_ok());
    }

    #[test]
    fn a_perturbed_alpha_fails_the_check() {
        let r = record("ligand49");
        let scale = 1020.195; // ≈ max |α| of ligand49
                              // Within tolerance: a few ulps' worth of drift passes.
        let mut close = r.alpha.clone();
        close[(2, 2)] += 1e-3 * ALPHA_RTOL * scale;
        assert!(check(&r, r.energy, &close).is_ok());
        // Beyond tolerance: one element off by 2e-6 of max |α| fails.
        let mut off = r.alpha.clone();
        off[(2, 2)] += 2.0 * ALPHA_RTOL * scale;
        assert!(check(&r, r.energy, &off).is_err());
        // A NaN fails too.
        let mut nan = r.alpha.clone();
        nan[(0, 1)] = f64::NAN;
        assert!(check(&r, r.energy, &nan).is_err());
    }

    #[test]
    fn a_perturbed_energy_fails_the_check() {
        let r = record("polymer8");
        assert!(check(&r, r.energy * (1.0 + 1e-5), &r.alpha).is_err());
    }
}
