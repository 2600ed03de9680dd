//! Names for the pluggable set representations.

use std::fmt;

/// Which set representation a backend iterates on.
///
/// The first three are the paper's own axis (χ vs. BFV vs. conjunctive
/// decomposition); [`ReprKind::Zdd`] and [`ReprKind::Zonotope`] are the
/// related-work lanes (Kojima's sets-of-sets argument for ZDDs, Alanwar
/// et al.'s logical zonotopes). Labels double as the CLI `--repr`
/// spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Monolithic characteristic function over the state variables.
    Chi,
    /// Canonical Boolean functional vector (the paper's contribution).
    Bfv,
    /// McMillan's conjunctive decomposition of the characteristic function.
    Cdec,
    /// Zero-suppressed decision diagram over the state variables.
    Zdd,
    /// Logical zonotope: a GF(2) affine subspace (over-approximating).
    Zonotope,
}

impl ReprKind {
    /// Stable lowercase label (CLI `--repr` values, report tags).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReprKind::Chi => "chi",
            ReprKind::Bfv => "bfv",
            ReprKind::Cdec => "cdec",
            ReprKind::Zdd => "zdd",
            ReprKind::Zonotope => "zono",
        }
    }

    /// All representations, for sweeps.
    #[must_use]
    pub fn all() -> [ReprKind; 5] {
        [
            ReprKind::Chi,
            ReprKind::Bfv,
            ReprKind::Cdec,
            ReprKind::Zdd,
            ReprKind::Zonotope,
        ]
    }

    /// Parses a CLI label (the inverse of [`ReprKind::label`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<ReprKind> {
        ReprKind::all().into_iter().find(|k| k.label() == s)
    }

    /// Whether sets in this representation may over-approximate the
    /// exact reached set (affects race-winner eligibility and audit
    /// equivalence checks: containment instead of equality).
    #[must_use]
    pub fn over_approximates(self) -> bool {
        matches!(self, ReprKind::Zonotope)
    }

    /// Whether a lane iterating on this representation can honor a
    /// dynamic-reordering request (`--sift`). Mirrors
    /// [`crate::SetRepr::supports_reorder`] at the kind level, for lane
    /// display: only the plain χ representation survives a mid-run
    /// level permutation — BFV/CDEC tie component order to variable
    /// order (paper §3), ZDD label nodes fix their creation levels,
    /// and zonotope generators are bound to the encoding pass.
    #[must_use]
    pub fn supports_reorder(self) -> bool {
        matches!(self, ReprKind::Chi)
    }
}

impl fmt::Display for ReprKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for k in ReprKind::all() {
            assert_eq!(ReprKind::parse(k.label()), Some(k));
        }
        assert_eq!(ReprKind::parse("qdd"), None);
    }

    #[test]
    fn only_zonotopes_over_approximate() {
        assert!(ReprKind::Zonotope.over_approximates());
        for k in [ReprKind::Chi, ReprKind::Bfv, ReprKind::Cdec, ReprKind::Zdd] {
            assert!(!k.over_approximates());
        }
    }

    #[test]
    fn only_chi_supports_reorder() {
        assert!(ReprKind::Chi.supports_reorder());
        for k in [
            ReprKind::Bfv,
            ReprKind::Cdec,
            ReprKind::Zdd,
            ReprKind::Zonotope,
        ] {
            assert!(!k.supports_reorder());
        }
    }
}
