//! Geometry file I/O: FHI-aims `geometry.in` and XYZ formats.
//!
//! The paper's artifact consumes FHI-aims input decks ("the testcase
//! directory which contains control file (control.in) and the geometry file
//! (geometry.in)"); this module reads and writes that geometry format plus
//! the ubiquitous XYZ interchange format, so downstream users can run their
//! own structures.

use crate::elements::Element;
use crate::geometry::{Atom, Structure};
use crate::structures::BOHR_PER_ANGSTROM;
use qp_linalg::vecops::dist3;

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed line (1-based line number, description).
    Malformed(usize, String),
    /// Unknown element symbol.
    UnknownElement(usize, String),
    /// Structurally valid but physically unusable input (no atoms,
    /// absurd atom count, two atoms at one point).
    Invalid(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(line, what) => write!(f, "line {line}: {what}"),
            ParseError::UnknownElement(line, sym) => {
                write!(f, "line {line}: unknown element '{sym}'")
            }
            ParseError::Invalid(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Largest accepted atom count. Geometry files now arrive over the serving
/// socket from untrusted clients; a header claiming 10⁹ atoms is a memory
/// bomb, not a molecule.
const MAX_ATOMS: usize = 1_000_000;

/// Closest approach (Bohr) two atoms of one structure may have: 0.26 Å,
/// well under the shortest real bond (H₂, 1.40 Bohr). Two atoms at one
/// point carry the same basis functions, so the overlap matrix is singular
/// and the SCF would end in an eigensolver error that names neither atom.
const MIN_ATOM_DISTANCE: f64 = 0.5;

/// The parsed atoms as a structure, or `ParseError::Invalid` naming the
/// first two atoms closer than [`MIN_ATOM_DISTANCE`].
fn checked_structure(atoms: Vec<Atom>) -> Result<Structure, ParseError> {
    let s = Structure::new(atoms);
    if let Some((i, j)) = s.first_pair_within(MIN_ATOM_DISTANCE) {
        let (a, b) = (&s.atoms[i], &s.atoms[j]);
        return Err(ParseError::Invalid(format!(
            "atoms {} ({}) and {} ({}) are {:.3} Å apart, closer than the {:.2} Å \
             minimum: coincident atoms make the basis linearly dependent",
            i + 1,
            a.element.symbol(),
            j + 1,
            b.element.symbol(),
            dist3(a.position, b.position) / BOHR_PER_ANGSTROM,
            MIN_ATOM_DISTANCE / BOHR_PER_ANGSTROM,
        )));
    }
    Ok(s)
}

/// Parse one coordinate token, rejecting the `NaN`/`inf` spellings Rust's
/// `f64::parse` otherwise accepts — a non-finite position poisons every
/// integral downstream.
fn parse_coord(token: &str, line: usize) -> Result<f64, ParseError> {
    let v: f64 = token
        .parse()
        .map_err(|_| ParseError::Malformed(line, format!("bad coordinate '{token}'")))?;
    if !v.is_finite() {
        return Err(ParseError::Malformed(
            line,
            format!("non-finite coordinate '{token}'"),
        ));
    }
    Ok(v)
}

/// Parse FHI-aims `geometry.in` text: lines of
/// `atom <x> <y> <z> <species>` with coordinates in Å (the FHI-aims
/// convention); `#` comments and blank lines are ignored. Lattice vectors
/// and other keywords are skipped (we treat everything as molecular).
pub fn parse_geometry_in(text: &str) -> Result<Structure, ParseError> {
    let mut atoms = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or("");
        if keyword != "atom" {
            continue; // lattice_vector, constrain_relaxation, ...
        }
        let coords: Vec<&str> = parts.collect();
        if coords.len() != 4 {
            return Err(ParseError::Malformed(
                idx + 1,
                format!("expected 'atom x y z species', got '{line}'"),
            ));
        }
        let mut pos = [0.0f64; 3];
        for (d, token) in coords[..3].iter().enumerate() {
            pos[d] = parse_coord(token, idx + 1)? * BOHR_PER_ANGSTROM;
        }
        let element = Element::from_symbol(coords[3])
            .ok_or_else(|| ParseError::UnknownElement(idx + 1, coords[3].to_string()))?;
        if atoms.len() >= MAX_ATOMS {
            return Err(ParseError::Invalid(format!("more than {MAX_ATOMS} atoms")));
        }
        atoms.push(Atom::new(element, pos));
    }
    if atoms.is_empty() {
        return Err(ParseError::Invalid("no atoms in geometry".into()));
    }
    checked_structure(atoms)
}

/// Write a structure as FHI-aims `geometry.in` text (coordinates in Å).
pub fn write_geometry_in(structure: &Structure) -> String {
    let mut out = String::from("# generated by qperturb\n");
    for a in &structure.atoms {
        out.push_str(&format!(
            "atom {:18.10} {:18.10} {:18.10} {}\n",
            a.position[0] / BOHR_PER_ANGSTROM,
            a.position[1] / BOHR_PER_ANGSTROM,
            a.position[2] / BOHR_PER_ANGSTROM,
            a.element.symbol()
        ));
    }
    out
}

/// Parse XYZ text: first line atom count, second a comment, then
/// `<symbol> <x> <y> <z>` in Å.
pub fn parse_xyz(text: &str) -> Result<Structure, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, count_line) = lines
        .next()
        .ok_or_else(|| ParseError::Malformed(1, "empty file".into()))?;
    let n: usize = count_line
        .trim()
        .parse()
        .map_err(|_| ParseError::Malformed(1, format!("bad atom count '{count_line}'")))?;
    if n == 0 {
        return Err(ParseError::Invalid("header declares zero atoms".into()));
    }
    if n > MAX_ATOMS {
        return Err(ParseError::Invalid(format!(
            "header declares {n} atoms (limit {MAX_ATOMS})"
        )));
    }
    lines.next(); // comment
                  // Capacity comes from the (bounded) header, but never trust it beyond
                  // a small starting allocation — the body may be far shorter.
    let mut atoms = Vec::with_capacity(n.min(1024));
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() < 4 {
            return Err(ParseError::Malformed(
                idx + 1,
                format!("short line '{line}'"),
            ));
        }
        let element = Element::from_symbol(parts[0])
            .ok_or_else(|| ParseError::UnknownElement(idx + 1, parts[0].to_string()))?;
        let mut pos = [0.0f64; 3];
        for d in 0..3 {
            pos[d] = parse_coord(parts[d + 1], idx + 1)? * BOHR_PER_ANGSTROM;
        }
        atoms.push(Atom::new(element, pos));
        if atoms.len() == n {
            break;
        }
    }
    if atoms.len() != n {
        return Err(ParseError::Malformed(
            1,
            format!("header promised {n} atoms, found {}", atoms.len()),
        ));
    }
    checked_structure(atoms)
}

/// Write a structure as XYZ text (Å).
pub fn write_xyz(structure: &Structure, comment: &str) -> String {
    let mut out = format!("{}\n{}\n", structure.len(), comment);
    for a in &structure.atoms {
        out.push_str(&format!(
            "{} {:16.8} {:16.8} {:16.8}\n",
            a.element.symbol(),
            a.position[0] / BOHR_PER_ANGSTROM,
            a.position[1] / BOHR_PER_ANGSTROM,
            a.position[2] / BOHR_PER_ANGSTROM,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::water;

    #[test]
    fn geometry_in_round_trip() {
        let w = water();
        let text = write_geometry_in(&w);
        let back = parse_geometry_in(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in w.atoms.iter().zip(back.atoms.iter()) {
            assert_eq!(a.element, b.element);
            for d in 0..3 {
                assert!((a.position[d] - b.position[d]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn xyz_round_trip() {
        let l = crate::structures::ligand49();
        let text = write_xyz(&l, "HIV-1 ligand");
        let back = parse_xyz(&text).unwrap();
        assert_eq!(back.len(), 49);
        assert_eq!(back.atoms[0].element, l.atoms[0].element);
    }

    #[test]
    fn geometry_in_ignores_comments_and_keywords() {
        let text = "# a comment\n\nlattice_vector 10 0 0\natom 0.0 0.0 0.0 O # inline\natom 0.96 0.0 0.0 H\n";
        let s = parse_geometry_in(text).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.atoms[0].element, Element::O);
        // Coordinates converted Å -> Bohr.
        assert!((s.atoms[1].position[0] - 0.96 * BOHR_PER_ANGSTROM).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_are_reported_with_line_numbers() {
        match parse_geometry_in("atom 1 2 three O") {
            Err(ParseError::Malformed(1, _)) => {}
            other => panic!("expected Malformed(1), got {other:?}"),
        }
        match parse_geometry_in("atom 1 2 3 Xx") {
            Err(ParseError::UnknownElement(1, s)) => assert_eq!(s, "Xx"),
            other => panic!("expected UnknownElement, got {other:?}"),
        }
        match parse_xyz("5\ncomment\nH 0 0 0\n") {
            Err(ParseError::Malformed(_, _)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn xyz_two_letter_symbols() {
        let text = "1\nchloride\nCl 0.0 0.0 0.0\n";
        let s = parse_xyz(text).unwrap();
        assert_eq!(s.atoms[0].element, Element::Cl);
    }

    #[test]
    fn hostile_inputs_are_rejected_not_trusted() {
        // A header promising a billion atoms must not drive an allocation.
        match parse_xyz("1000000000\nboom\nH 0 0 0\n") {
            Err(ParseError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Zero-atom and empty structures are not runnable jobs.
        assert!(matches!(
            parse_xyz("0\nempty\n"),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse_geometry_in("# only comments\n"),
            Err(ParseError::Invalid(_))
        ));
        // Rust's f64 parser accepts NaN/inf spellings; coordinates must not.
        for text in [
            "1\nnan\nH NaN 0 0\n",
            "1\ninf\nH 0 inf 0\n",
            "1\nneg\nH 0 0 -infinity\n",
        ] {
            match parse_xyz(text) {
                Err(ParseError::Malformed(_, what)) => {
                    assert!(what.contains("non-finite"), "{what}")
                }
                other => panic!("expected Malformed(non-finite), got {other:?}"),
            }
        }
        assert!(matches!(
            parse_geometry_in("atom nan 0 0 O\n"),
            Err(ParseError::Malformed(1, _))
        ));
        // Two atoms at one point make the overlap matrix singular; the
        // error names both, and a pile of them is refused at its second
        // atom, with no pairwise scan.
        match parse_xyz("2\nsame\nH 0 0 0\nH 0 0 0\n") {
            Err(ParseError::Invalid(what)) => {
                assert!(what.contains("atoms 1 (H) and 2 (H)"), "{what}")
            }
            other => panic!("expected Invalid(coincident), got {other:?}"),
        }
        match parse_geometry_in("atom 0 0 0 O\natom 1 0 0 H\natom 0.1 0.1 0 O\n") {
            Err(ParseError::Invalid(what)) => {
                assert!(what.contains("atoms 1 (O) and 3 (O)"), "{what}")
            }
            other => panic!("expected Invalid(coincident), got {other:?}"),
        }
        let n = 200_000;
        let pile = format!("{n}\npile\n{}", "H 0 0 0\n".repeat(n));
        assert!(matches!(parse_xyz(&pile), Err(ParseError::Invalid(_))));
    }
}
