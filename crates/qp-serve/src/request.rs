//! Typed job requests: parse-and-validate untrusted protocol JSON into the
//! engine's option structs, and derive the canonical content address the
//! result cache and checkpoint store key on.
//!
//! ## Content addressing
//!
//! Two requests share a cache entry iff they describe the *same physics*:
//! geometry (element + position bits per atom), basis, grid, SCF and DFPT
//! options. Execution knobs — thread count, cache policy, tenant — are
//! deliberately excluded: the engine's determinism invariant guarantees the
//! result is bit-identical at any thread count, so caching across them is
//! sound. The canonical form renders every `f64` as `to_bits()` hex, so two
//! floats collide only when they are the same bit pattern. The 128-bit FNV
//! pair is the index; the full canonical string is stored alongside and
//! compared exactly, so hash collisions cannot alias results.

use crate::json::Json;
use crate::ServeError;
use qp_chem::angular::AVAILABLE_ORDERS;
use qp_chem::basis::BasisSettings;
use qp_chem::geometry::Structure;
use qp_chem::grids::GridSettings;
use qp_chem::structures::{Builtin, BuiltinError};
use qp_core::{check_solver_options, DfptOptions, FarFieldMode, ScfOptions, ScreeningMode};
use std::fmt::Write as _;

/// Where the molecule comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MoleculeSpec {
    /// A named builtin from `qp_chem::structures` (`water`, `ligand`,
    /// `polymer:N`, `helix:N`).
    Builtin(String),
    /// Inline XYZ text (Å).
    Xyz(String),
    /// Inline FHI-aims `geometry.in` text (Å).
    GeometryIn(String),
}

/// One validated simulation request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Fair-share accounting bucket.
    pub tenant: String,
    /// The molecule source, as submitted.
    pub molecule: MoleculeSpec,
    /// The parsed structure (validated at admission, not at run time).
    pub structure: Structure,
    /// NAO basis setting.
    pub basis: BasisSettings,
    /// Integration grid.
    pub grid: GridSettings,
    /// Ground-state SCF options.
    pub scf: ScfOptions,
    /// DFPT response-cycle options.
    pub dfpt: DfptOptions,
    /// Worker thread-pool size for this job (`None` = server default).
    pub threads: Option<usize>,
    /// Skip the cache lookup (result is still stored).
    pub cache_bypass: bool,
    /// Cutoff-sphere screening control. Execution knob: the screened path
    /// is bit-identical to dense, so this is excluded from the cache key.
    pub screening: ScreeningMode,
    /// Hartree far-field evaluation control. Execution knob like
    /// `screening`: the tree path agrees with direct within
    /// `QP_FARFIELD_TOL`, so it is excluded from the cache key.
    pub farfield: FarFieldMode,
}

/// Guardrail on admitted structure size: the serial engine is O(N³) in
/// basis functions; anything past this is a denial-of-service, not a job.
const MAX_ATOMS: usize = 4096;

/// Guardrail on per-job thread requests.
const MAX_THREADS: usize = 1024;

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

fn opt_f64(obj: &Json, key: &str, what: &str) -> Result<Option<f64>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| bad(format!("{what}.{key} must be a number")))?;
            if !x.is_finite() {
                return Err(bad(format!("{what}.{key} must be finite")));
            }
            Ok(Some(x))
        }
    }
}

fn opt_usize(obj: &Json, key: &str, what: &str) -> Result<Option<usize>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| bad(format!("{what}.{key} must be a non-negative integer"))),
    }
}

impl JobRequest {
    /// Parse and validate a request object. Every field except `molecule`
    /// is optional; every present field is type- and range-checked so a
    /// malformed request is rejected at admission with a typed error, never
    /// handed to the engine.
    pub fn from_json(v: &Json) -> Result<JobRequest, ServeError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        let tenant = match v.get("tenant") {
            None => "default".to_string(),
            Some(t) => {
                let t = t.as_str().ok_or_else(|| bad("tenant must be a string"))?;
                if t.is_empty() || t.len() > 64 {
                    return Err(bad("tenant must be 1..=64 characters"));
                }
                t.to_string()
            }
        };

        let mol = v.get("molecule").ok_or_else(|| bad("missing 'molecule'"))?;
        let molecule = if let Some(b) = mol.get("builtin") {
            MoleculeSpec::Builtin(
                b.as_str()
                    .ok_or_else(|| bad("molecule.builtin must be a string"))?
                    .to_string(),
            )
        } else if let Some(x) = mol.get("xyz") {
            MoleculeSpec::Xyz(
                x.as_str()
                    .ok_or_else(|| bad("molecule.xyz must be a string"))?
                    .to_string(),
            )
        } else if let Some(g) = mol.get("geometry_in") {
            MoleculeSpec::GeometryIn(
                g.as_str()
                    .ok_or_else(|| bad("molecule.geometry_in must be a string"))?
                    .to_string(),
            )
        } else {
            return Err(bad(
                "molecule must have one of 'builtin', 'xyz', 'geometry_in'",
            ));
        };
        let structure = resolve_molecule(&molecule)?;
        if structure.atoms.is_empty() {
            return Err(bad("molecule has no atoms"));
        }
        if structure.atoms.len() > MAX_ATOMS {
            return Err(bad(format!(
                "molecule has {} atoms (limit {MAX_ATOMS})",
                structure.atoms.len()
            )));
        }

        let basis = match v.get("basis") {
            None => BasisSettings::Light,
            Some(b) => match b.as_str() {
                Some("light") => BasisSettings::Light,
                Some("tier2") => BasisSettings::Tier2,
                _ => return Err(bad("basis must be 'light' or 'tier2'")),
            },
        };

        let gv = v.get("grid");
        let mut grid = match gv.and_then(|g| g.get("preset")) {
            None => GridSettings::light(),
            Some(p) => match p.as_str() {
                Some("light") => GridSettings::light(),
                Some("coarse") => GridSettings::coarse(),
                _ => return Err(bad("grid.preset must be 'light' or 'coarse'")),
            },
        };
        if let Some(g) = gv {
            if let Some(n) = opt_usize(g, "n_radial", "grid")? {
                if n == 0 || n > 4096 {
                    return Err(bad("grid.n_radial must be 1..=4096"));
                }
                grid.n_radial = n;
            }
            if let Some(n) = opt_usize(g, "max_angular", "grid")? {
                grid.max_angular = n;
            }
            if let Some(n) = opt_usize(g, "min_angular", "grid")? {
                grid.min_angular = n;
            }
            if grid.min_angular > grid.max_angular {
                return Err(bad("grid.min_angular must be <= grid.max_angular"));
            }
        }
        // With both ends in the table, every order the radial ramp picks
        // between them is too.
        for (key, order) in [
            ("min_angular", grid.min_angular),
            ("max_angular", grid.max_angular),
        ] {
            if !AVAILABLE_ORDERS.contains(&order) {
                return Err(bad(format!(
                    "grid.{key} must be a Lebedev order in {AVAILABLE_ORDERS:?}"
                )));
            }
        }

        let mut scf = ScfOptions::default();
        if let Some(s) = v.get("scf") {
            if let Some(t) = opt_f64(s, "tol", "scf")? {
                scf.tol = t;
            }
            if let Some(m) = opt_f64(s, "mixing", "scf")? {
                scf.mixing = m;
            }
            if let Some(n) = opt_usize(s, "max_iter", "scf")? {
                scf.max_iter = n;
            }
            if let Some(kt) = opt_f64(s, "smearing", "scf")? {
                scf.smearing = Some(kt);
            }
            match s.get("pulay") {
                None => {}
                Some(Json::Null) => scf.pulay = None,
                Some(p) => {
                    let d = p
                        .as_usize()
                        .ok_or_else(|| bad("scf.pulay must be an integer or null"))?;
                    scf.pulay = if d == 0 { None } else { Some(d.min(64)) };
                }
            }
        }

        let mut dfpt = DfptOptions::default();
        if let Some(d) = v.get("dfpt") {
            if let Some(t) = opt_f64(d, "tol", "dfpt")? {
                dfpt.tol = t;
            }
            if let Some(m) = opt_f64(d, "mixing", "dfpt")? {
                dfpt.mixing = m;
            }
            if let Some(n) = opt_usize(d, "max_iter", "dfpt")? {
                dfpt.max_iter = n;
            }
        }
        check_solver_options(&scf, &dfpt).map_err(|e| bad(e.to_string()))?;

        let threads = opt_usize(v, "threads", "request")?;
        if let Some(t) = threads {
            if t == 0 || t > MAX_THREADS {
                return Err(bad(format!("threads must be 1..={MAX_THREADS}")));
            }
        }

        let cache_bypass = match v.get("cache") {
            None => false,
            Some(c) => match c.as_str() {
                Some("use") => false,
                Some("bypass") => true,
                _ => return Err(bad("cache must be 'use' or 'bypass'")),
            },
        };

        let screening = match v.get("screening") {
            None | Some(Json::Null) => ScreeningMode::Auto,
            Some(s) => s
                .as_str()
                .ok_or_else(|| bad("screening must be a string"))?
                .parse()
                .map_err(bad)?,
        };

        let farfield = match v.get("farfield") {
            None | Some(Json::Null) => FarFieldMode::Auto,
            Some(s) => s
                .as_str()
                .ok_or_else(|| bad("farfield must be a string"))?
                .parse()
                .map_err(bad)?,
        };

        Ok(JobRequest {
            tenant,
            molecule,
            structure,
            basis,
            grid,
            scf,
            dfpt,
            threads,
            cache_bypass,
            screening,
            farfield,
        })
    }

    /// The canonical content-address string: physics in, execution knobs
    /// out (see module docs). Stable across protocol versions that do not
    /// change the physics inputs.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(256 + 56 * self.structure.atoms.len());
        s.push_str("qp-serve/v1;mol=");
        for a in &self.structure.atoms {
            let _ = write!(
                s,
                "{}:{:016x}:{:016x}:{:016x};",
                a.element.symbol(),
                a.position[0].to_bits(),
                a.position[1].to_bits(),
                a.position[2].to_bits()
            );
        }
        let _ = write!(
            s,
            "basis={};",
            match self.basis {
                BasisSettings::Light => "light",
                BasisSettings::Tier2 => "tier2",
            }
        );
        let g = &self.grid;
        let _ = write!(
            s,
            "grid=nr:{},rmin:{:016x},rmax:{:016x},maxang:{},minang:{},pcut:{:016x};",
            g.n_radial,
            g.r_min.to_bits(),
            g.r_max.to_bits(),
            g.max_angular,
            g.min_angular,
            g.partition_cutoff.to_bits()
        );
        let c = &self.scf;
        let _ = write!(
            s,
            "scf=maxit:{},tol:{:016x},mix:{:016x},smear:{},pulay:{};",
            c.max_iter,
            c.tol.to_bits(),
            c.mixing.to_bits(),
            match c.smearing {
                Some(kt) => format!("{:016x}", kt.to_bits()),
                None => "none".to_string(),
            },
            match c.pulay {
                Some(d) => d.to_string(),
                None => "none".to_string(),
            }
        );
        let d = &self.dfpt;
        let _ = write!(
            s,
            "dfpt=maxit:{},tol:{:016x},mix:{:016x},mixer:{}",
            d.max_iter,
            d.tol.to_bits(),
            d.mixing.to_bits(),
            match d.mixer {
                qp_core::DfptMixer::Linear => "linear".to_string(),
                qp_core::DfptMixer::Pulay { depth } => format!("pulay{depth}"),
            }
        );
        s
    }

    /// 128-bit FNV-1a pair over the canonical string — the cache/checkpoint
    /// index key. Collisions are tolerated: lookups compare the full
    /// canonical string before serving.
    pub fn key(&self) -> [u64; 2] {
        let canon = self.canonical();
        [
            fnv1a64(canon.as_bytes(), 0xcbf2_9ce4_8422_2325),
            fnv1a64(canon.as_bytes(), 0x6c62_272e_07bb_0142),
        ]
    }
}

fn fnv1a64(bytes: &[u8], offset_basis: u64) -> u64 {
    let mut h = offset_basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Resolve a molecule spec into a validated structure.
fn resolve_molecule(spec: &MoleculeSpec) -> Result<Structure, ServeError> {
    match spec {
        MoleculeSpec::Builtin(name) => {
            let builtin: Builtin = name.parse().map_err(|e: BuiltinError| bad(e.to_string()))?;
            // Checked before the chain is generated: the length is untrusted.
            if let Builtin::Polymer(n) | Builtin::Helix(n) = builtin {
                if n > 512 {
                    return Err(bad("builtin chain length must be 1..=512"));
                }
            }
            Ok(builtin.structure())
        }
        MoleculeSpec::Xyz(text) => {
            qp_chem::io::parse_xyz(text).map_err(|e| ServeError::BadRequest(format!("xyz: {e}")))
        }
        MoleculeSpec::GeometryIn(text) => qp_chem::io::parse_geometry_in(text)
            .map_err(|e| ServeError::BadRequest(format!("geometry.in: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn req(s: &str) -> Result<JobRequest, ServeError> {
        JobRequest::from_json(&parse(s).unwrap())
    }

    #[test]
    fn minimal_request_defaults() {
        let r = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        assert_eq!(r.tenant, "default");
        assert_eq!(r.structure.atoms.len(), 3);
        assert_eq!(r.scf.tol, ScfOptions::default().tol);
        assert!(!r.cache_bypass);
    }

    #[test]
    fn key_ignores_execution_knobs() {
        let a = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        let b = req(
            r#"{"tenant":"other","molecule":{"builtin":"water"},"threads":4,"cache":"bypass","screening":"on","farfield":"tree"}"#,
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn key_sees_physics_changes() {
        let a = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        for other in [
            r#"{"molecule":{"builtin":"polymer:2"}}"#,
            r#"{"molecule":{"builtin":"water"},"basis":"tier2"}"#,
            r#"{"molecule":{"builtin":"water"},"scf":{"tol":1e-9}}"#,
            r#"{"molecule":{"builtin":"water"},"dfpt":{"mixing":0.5}}"#,
            r#"{"molecule":{"builtin":"water"},"grid":{"n_radial":24}}"#,
        ] {
            let b = req(other).unwrap();
            assert_ne!(a.key(), b.key(), "{other}");
        }
    }

    #[test]
    fn same_geometry_different_sources_share_a_key() {
        // The key is over the *parsed* structure, so an inline XYZ carrying
        // the same coordinates as the builtin hits the same cache line.
        let a = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        let mut xyz = String::from("3\nwater\n");
        const BOHR_TO_ANG: f64 = 0.529177210903;
        for at in &a.structure.atoms {
            xyz.push_str(&format!(
                "{} {:.17e} {:.17e} {:.17e}\n",
                at.element.symbol(),
                at.position[0] * BOHR_TO_ANG,
                at.position[1] * BOHR_TO_ANG,
                at.position[2] * BOHR_TO_ANG
            ));
        }
        let b = JobRequest::from_json(
            &parse(&format!(r#"{{"molecule":{{"xyz":{}}}}}"#, Json::Str(xyz))).unwrap(),
        )
        .unwrap();
        // Positions must round-trip bit-exactly for the keys to match; if
        // the io layer's unit conversion perturbs the last ulp the keys
        // (correctly) differ — assert only on the builtin path invariant.
        if b.structure.atoms == a.structure.atoms {
            assert_eq!(a.key(), b.key());
        } else {
            assert_ne!(a.key(), b.key());
        }
    }

    #[test]
    fn large_polymer_is_admitted_and_screening_parses() {
        // n=256 polyethylene (6n+2 = 1538 atoms) must clear MAX_ATOMS so the
        // weak-scaling scenario is servable end to end.
        let r = req(r#"{"molecule":{"builtin":"polymer:256"},"screening":"on"}"#).unwrap();
        assert_eq!(r.structure.atoms.len(), 1538);
        assert_eq!(r.screening, ScreeningMode::On);
        let r = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        assert_eq!(r.screening, ScreeningMode::Auto);
        let r = req(r#"{"molecule":{"builtin":"water"},"screening":"off"}"#).unwrap();
        assert_eq!(r.screening, ScreeningMode::Off);
    }

    #[test]
    fn farfield_parses_and_defaults_to_auto() {
        let r = req(r#"{"molecule":{"builtin":"water"}}"#).unwrap();
        assert_eq!(r.farfield, FarFieldMode::Auto);
        let r = req(r#"{"molecule":{"builtin":"water"},"farfield":"tree"}"#).unwrap();
        assert_eq!(r.farfield, FarFieldMode::Tree);
        let r = req(r#"{"molecule":{"builtin":"water"},"farfield":"direct"}"#).unwrap();
        assert_eq!(r.farfield, FarFieldMode::Direct);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad_req in [
            r#"{}"#,
            r#"{"molecule":{}}"#,
            r#"{"molecule":{"builtin":"plutonium"}}"#,
            r#"{"molecule":{"builtin":"polymer:0"}}"#,
            r#"{"molecule":{"builtin":"helix:0"}}"#,
            r#"{"molecule":{"builtin":"polymer:513"}}"#,
            r#"{"molecule":{"builtin":"polymer:x"}}"#,
            r#"{"molecule":{"builtin":"water"},"basis":"heavy"}"#,
            r#"{"molecule":{"builtin":"water"},"scf":{"tol":-1}}"#,
            r#"{"molecule":{"builtin":"water"},"scf":{"mixing":2}}"#,
            r#"{"molecule":{"builtin":"water"},"threads":0}"#,
            r#"{"molecule":{"builtin":"water"},"cache":"maybe"}"#,
            r#"{"molecule":{"builtin":"water"},"grid":{"preset":"ultrafine"}}"#,
            r#"{"molecule":{"builtin":"water"},"grid":{"preset":"coarse","max_angular":7}}"#,
            r#"{"molecule":{"builtin":"water"},"grid":{"min_angular":20}}"#,
            r#"{"molecule":{"builtin":"water"},"grid":{"min_angular":0,"max_angular":0}}"#,
            r#"{"molecule":{"builtin":"water"},"scf":{"smearing":0}}"#,
            r#"{"molecule":{"builtin":"water"},"scf":{"max_iter":100001}}"#,
            r#"{"molecule":{"builtin":"water"},"dfpt":{"mixing":0}}"#,
            r#"{"molecule":{"builtin":"water"},"dfpt":{"tol":-1}}"#,
            r#"{"molecule":{"xyz":"not an xyz file"}}"#,
            r#"{"molecule":{"builtin":"water"},"dfpt":{"max_iter":0}}"#,
            r#"{"molecule":{"builtin":"water"},"screening":"sometimes"}"#,
            r#"{"molecule":{"builtin":"water"},"screening":7}"#,
            r#"{"molecule":{"builtin":"water"},"farfield":"octree"}"#,
            r#"{"molecule":{"builtin":"water"},"farfield":3}"#,
        ] {
            let e = req(bad_req).unwrap_err();
            assert!(matches!(e, ServeError::BadRequest(_)), "{bad_req} -> {e:?}");
        }
    }
}
