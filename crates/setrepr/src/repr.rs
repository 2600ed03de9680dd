//! The [`SetRepr`] trait: what a fixed-point loop needs from a set.

use crate::kind::ReprKind;
use crate::view::SetView;
use crate::zonotope::Zonotope;
use bfvr_bdd::{Bdd, BddManager, Func};
use bfvr_bfv::BfvError;
use std::time::Duration;

/// The representation half of a resumable checkpoint: the reached and
/// from sets re-expressed in manager-stable handles (RAII [`Func`] pins
/// for BDD-resident data, plain values for manager-free data).
///
/// The engine half (which engine, how many iterations) lives with the
/// reachability driver; a backend only needs to reconstruct its own
/// loop state. ZDD backends checkpoint through χ — ZDD node indexes are
/// private to a lane's store, so the canonical escape hatch is the
/// stable form — and therefore share the [`ReprCheckpoint::Chi`]
/// variant with the χ backends.
#[derive(Clone, Debug)]
pub enum ReprCheckpoint {
    /// χ-shaped state (χ backends and the ZDD backend).
    Chi {
        /// States reached so far.
        reached: Func,
        /// Start set of the next iteration.
        from: Func,
    },
    /// Canonical-vector state (the BFV backend).
    Vector {
        /// Components of the reached-set vector.
        reached: Vec<Func>,
        /// Components of the from-set vector.
        from: Vec<Func>,
    },
    /// Conjunctive-decomposition state (the CDEC backend).
    Cdec {
        /// Constraints of the reached-set decomposition.
        constraints: Vec<Func>,
        /// Components of the from-set vector.
        from: Vec<Func>,
    },
    /// Zonotope state: plain generator data, no manager handles at all.
    Zonotope {
        /// Hull of the states reached so far.
        reached: Zonotope,
        /// Hull of the start set of the next iteration.
        from: Zonotope,
    },
}

/// A restored reached/from pair, or `None` on a representation
/// mismatch (see [`SetRepr::restore`]).
pub type Restored<S> = Option<(S, S)>;

/// A pluggable set representation: exactly the operations the
/// reachability engines' shared fixed-point loop needs, so the loop is
/// written once against this trait instead of once per representation.
///
/// A backend owns everything representation-specific — the transition
/// relation or next-state functions it captured at construction, any
/// lane-private stores (ZDD arenas), conversion memos — and hands the
/// loop opaque `Set` values. All manager-allocating operations take
/// `&mut BddManager` and return `Result`, because the manager enforces
/// node-count and deadline limits (the paper's `M.O.`/`T.O.` outcomes).
///
/// ## Contract
///
/// * [`union`](SetRepr::union)`(s, s)` must equal `s` under
///   [`set_eq`](SetRepr::set_eq) (idempotence), and `union` must be
///   commutative up to `set_eq`;
/// * the loop reaches a fixpoint when
///   `set_eq(union(reached, image(reached)), reached)`;
/// * [`to_chi`](SetRepr::to_chi) is the canonicalization escape hatch:
///   exact backends must round-trip `to_chi ∘ from_chi = id` on their
///   representable sets, over-approximating backends
///   ([`over_approximates`](SetRepr::over_approximates)` == true`) must
///   guarantee `from_chi(χ)` represents a superset of χ;
/// * [`checkpoint`](SetRepr::checkpoint) followed by
///   [`restore`](SetRepr::restore) on a fresh backend of the same kind
///   must reproduce `set_eq`-equal reached/from sets.
///
/// These laws are enforced for every backend by the shared conformance
/// suite in `bfvr-reach`.
pub trait SetRepr {
    /// The backend's set value. `Clone` must be cheap-ish (handles or
    /// generator matrices, not deep graph copies).
    type Set: Clone;

    /// Which representation this backend implements.
    fn kind(&self) -> ReprKind;

    /// One-time setup before the loop: build the transition relation,
    /// cluster schedule, or conversion tables. Called exactly once,
    /// before [`initial`](SetRepr::initial) or
    /// [`restore`](SetRepr::restore).
    ///
    /// # Errors
    ///
    /// Resource limits tripped while building engine structures.
    fn prepare(&mut self, m: &mut BddManager) -> Result<(), BfvError> {
        let _ = m;
        Ok(())
    }

    /// The initial state set.
    ///
    /// # Errors
    ///
    /// Resource limits, or an FSM whose initial state is unrepresentable.
    fn initial(&mut self, m: &mut BddManager) -> Result<Self::Set, BfvError>;

    /// One image step: the successors of `from` under the transition
    /// structure captured at construction.
    ///
    /// # Errors
    ///
    /// Resource limits tripped mid-step.
    fn image(&mut self, m: &mut BddManager, from: &Self::Set) -> Result<Self::Set, BfvError>;

    /// Set union (for over-approximating backends: an upper bound of it).
    ///
    /// # Errors
    ///
    /// Resource limits tripped mid-union.
    fn union(
        &mut self,
        m: &mut BddManager,
        a: &Self::Set,
        b: &Self::Set,
    ) -> Result<Self::Set, BfvError>;

    /// Whether two sets are equal — the loop's fixpoint test. Must be
    /// allocation-free (canonical representations compare structurally).
    fn set_eq(&self, m: &BddManager, a: &Self::Set, b: &Self::Set) -> bool;

    /// Representation size used by the frontier heuristic (iterate from
    /// the image when it is smaller than the reached set).
    fn size(&self, m: &BddManager, s: &Self::Set) -> usize;

    /// Representation size reported in results (defaults to
    /// [`size`](SetRepr::size); CDEC reports the decomposition, not the
    /// companion vector).
    fn repr_nodes(&self, m: &BddManager, s: &Self::Set) -> usize {
        self.size(m, s)
    }

    /// Appends the manager-resident GC roots of `s` (nothing, for
    /// manager-free representations).
    fn append_roots(&self, s: &Self::Set, out: &mut Vec<Bdd>);

    /// Appends backend-persistent GC roots (transition relations,
    /// cluster relations) that must survive every collection.
    fn persistent_roots(&self, out: &mut Vec<Bdd>) {
        let _ = out;
    }

    /// RAII pins for `s`, guarding it across collections triggered by
    /// observers. Empty for manager-free representations.
    fn pin(&self, m: &BddManager, s: &Self::Set) -> Vec<Func>;

    /// The borrowed observer view of a reached/from pair.
    fn view<'a>(&'a self, reached: &'a Self::Set, from: &'a Self::Set) -> SetView<'a>;

    /// Exact state count if the representation yields one for free
    /// (χ/ZDD/zonotope); `None` when counting requires a conversion
    /// (the driver then counts through [`to_chi`](SetRepr::to_chi)).
    fn count_states(&self, m: &BddManager, s: &Self::Set) -> Option<f64>;

    /// Canonicalizes `s` into a characteristic function over the state
    /// variables — the cross-representation escape hatch used for
    /// result reporting and audit equivalence.
    ///
    /// # Errors
    ///
    /// Resource limits tripped during conversion.
    fn to_chi(&mut self, m: &mut BddManager, s: &Self::Set) -> Result<Bdd, BfvError>;

    /// Imports a characteristic function. Returns `Ok(None)` when χ is
    /// unrepresentable (⊥ has no functional vector or zonotope);
    /// over-approximating backends return a superset hull.
    ///
    /// # Errors
    ///
    /// Resource limits tripped during conversion.
    // Not a constructor: imports into an existing backend, whose captured
    // state (space, stores) the conversion needs.
    #[allow(clippy::wrong_self_convention)]
    fn from_chi(&mut self, m: &mut BddManager, chi: Bdd) -> Result<Option<Self::Set>, BfvError>;

    /// Re-expresses the loop state in manager-stable handles for resume.
    ///
    /// # Errors
    ///
    /// Resource limits tripped while canonicalizing (ZDD → χ).
    fn checkpoint(
        &mut self,
        m: &mut BddManager,
        reached: &Self::Set,
        from: &Self::Set,
    ) -> Result<ReprCheckpoint, BfvError>;

    /// Rebuilds a reached/from pair from a checkpoint taken by a backend
    /// of the same kind. Returns `Ok(None)` on a representation
    /// mismatch (the driver reports an error outcome).
    ///
    /// # Errors
    ///
    /// Resource limits tripped while rebuilding.
    fn restore(
        &mut self,
        m: &mut BddManager,
        cp: &ReprCheckpoint,
    ) -> Result<Restored<Self::Set>, BfvError>;

    /// End-of-iteration hook for lane-private housekeeping (the ZDD
    /// backend collects its store here). The manager's own collection is
    /// the driver's job.
    fn end_of_iteration(&mut self, reached: &Self::Set, from: &Self::Set) {
        let _ = (reached, from);
    }

    /// Whether sets may strictly over-approximate the exact reached set.
    /// Over-approximating lanes never win races and never cancel exact
    /// lanes; their results are checked by containment, not equality.
    fn over_approximates(&self) -> bool {
        false
    }

    /// Whether the backend tolerates dynamic variable reordering
    /// ([`BddManager::sift`]) between iterations. Defaults to `false`
    /// because most representations carry order-dependent structure the
    /// manager cannot see: the BFV/CDEC vectors require component order
    /// = variable order (paper §3) for `space()` and the reparameterized
    /// image, ZDD stores label nodes with fixed levels, and zonotope
    /// generators are bound to an encoding pass. Backends whose loop
    /// state is plain χ BDDs (semantic `Var`s resolve levels at the API
    /// boundary) opt in by returning `true`.
    fn supports_reorder(&self) -> bool {
        false
    }

    /// Drains time spent in representation conversions since the last
    /// call (CBM-style bridge costs are reported, not hidden).
    fn take_conversion(&mut self) -> Duration {
        Duration::ZERO
    }

    /// Drains a per-phase timing breakdown of the last
    /// [`image`](SetRepr::image) call. No backend reports one, and the
    /// driver no longer calls it; it stays only because the standing
    /// benchmark's replay driver (`perfbench/src/replay.rs`) still calls
    /// it, and goes at the next change to that benchmark.
    fn take_image_phases(&mut self) -> Vec<(&'static str, Duration)> {
        Vec::new()
    }
}
