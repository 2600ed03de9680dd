//! # bfvr-bdd — a reduced ordered binary decision diagram (ROBDD) package
//!
//! This crate is the Boolean-function substrate for the `bfvr` project, a
//! reproduction of *"Set Manipulation with Boolean Functional Vectors for
//! Symbolic Reachability Analysis"* (Goel & Bryant, DATE 2003). It provides
//! the machinery a 2003-era model checker obtained from CUDD/VIS:
//!
//! * hash-consed ROBDD nodes with a fixed variable order and **complement
//!   edges** ([`BddManager`]): `f` and `¬f` share one subgraph, and
//!   negation ([`BddManager::not`], [`BddManager::nvar`]) is a constant-time
//!   bit flip that can never fail or allocate,
//! * logical operations through an ITE core with per-operation computed
//!   caches ([`BddManager::ite`], [`BddManager::and`], ...; counters via
//!   [`BddManager::cache_stats`]),
//! * existential/universal quantification and the relational product
//!   ([`BddManager::exists`], [`BddManager::and_exists`]; `∀` is the free
//!   complement-edge dual of `∃`),
//! * functional composition, simultaneous vector composition and variable
//!   permutation ([`BddManager::compose`], [`BddManager::vector_compose`]),
//! * the generalized cofactor (`constrain`) and `restrict` operators of
//!   Coudert/Berthet/Madre ([`BddManager::constrain`],
//!   [`BddManager::restrict`]),
//! * structural exploration: support, DAG sizes, satisfying-assignment
//!   counts, minterm extraction and DOT export,
//! * irredundant sum-of-products extraction (Minato–Morreale ISOP,
//!   [`BddManager::isop`]),
//! * cross-manager transfer under a variable mapping
//!   ([`BddManager::transfer_from`]) for variable-order studies,
//! * manager-independent DAG export/import ([`BddManager::export_dag`],
//!   [`BddManager::import_dag`]) — the structural form behind durable
//!   on-disk checkpoints,
//! * mark-sweep garbage collection with stable node ids, RAII root
//!   handles ([`Func`], from [`BddManager::func`]) and live/peak node
//!   accounting (the "Peak(K)" metric of the paper's Table 2),
//! * **dynamic variable reordering**: an in-place adjacent-level swap
//!   kernel and a Rudell sifting pass ([`BddManager::sift`],
//!   [`BddManager::reorder_to`]) that shrink the live graph mid-run
//!   while every outstanding handle stays valid, and
//! * optional node-count and deadline resource limits so long traversals
//!   can reproduce the paper's `T.O.`/`M.O.` outcomes gracefully.
//!
//! Internally the manager is layered: arena node storage with a free
//! list, a per-level unique table for hash consing, and one computed
//! cache per operation. The package is deliberately
//! single-threaded and uses plain 4-byte edge handles ([`Bdd`]): exactly
//! one manager owns all nodes, and allocating operations take
//! `&mut BddManager`. Handles stay valid across garbage collections as
//! long as they are reachable from the roots passed to
//! [`BddManager::collect_garbage`] or pinned by a live [`Func`].
//!
//! ## Example
//!
//! ```
//! use bfvr_bdd::{BddManager, Var};
//!
//! # fn main() -> Result<(), bfvr_bdd::BddError> {
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)));
//! // f = (a ∧ b) ∨ c
//! let ab = m.and(a, b)?;
//! let f = m.or(ab, c)?;
//! assert_eq!(m.sat_count(f, 3), 5.0);
//! // Negation is free and involutive (complement edges).
//! let nf = m.not(f);
//! assert_eq!(m.not(nf), f);
//! // Pin f across garbage collection with an RAII handle.
//! let root = m.func(f);
//! m.collect_garbage(&[]);
//! assert_eq!(m.sat_count(root.bdd(), 3), 5.0);
//! // Quantify a out: ∃a. f = b ∨ c
//! let cube = m.cube_from_vars(&[Var(0)])?;
//! let g = m.exists(f, cube)?;
//! let bc = m.or(b, c)?;
//! assert_eq!(g, bc);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod apply;
mod arena;
pub mod audit;
mod cache;
mod compose;
mod constrain;
mod dag;
mod dot;
mod error;
mod explore;
mod fault;
mod func;
pub mod hash;
mod isop;
mod manager;
mod node;
mod quant;
mod sift;
mod transfer;
mod union;
mod unique;
pub mod zdd;

pub use audit::{Corruption, GraphIssue, GraphIssueKind};
pub use cache::CacheStats;
pub use dag::{BddDag, DagError, DagNode, DagRef, DAG_FALSE, DAG_TRUE};
pub use error::BddError;
pub use explore::{CubeIter, Support};
pub use fault::{FaultKind, FaultPlan};
pub use func::Func;
pub use isop::Cube;
pub use manager::{BddManager, GcStats, ManagerStats, UniqueTableStats};
pub use node::{Bdd, Var};
pub use sift::{SiftConfig, SiftStats, SIFT_SIZE_FLOOR};
pub use zdd::{bdd_from_zdd, zdd_from_bdd, Zdd, ZddStore};

/// Convenient result alias for fallible BDD operations.
///
/// All operations that may allocate nodes return `Result` because the
/// manager enforces optional node-count and deadline limits (used to
/// reproduce the `T.O.`/`M.O.` outcomes in the paper's Table 2).
pub type Result<T, E = BddError> = std::result::Result<T, E>;
