//! The standing reachability benchmark of the bfvr workspace.
//!
//! A *cell* is one circuit × lane: the circuit is generated as `.bench`
//! text, parsed, encoded into a fresh `BddManager`, run to its fixed
//! point and its states counted. A *pass* runs every cell of a workload
//! once. See `README.md` in this directory for the workloads, the
//! metrics and how to read them.

pub mod calib;
pub mod cells;
pub mod explicit;
pub mod replay;
pub mod report;
pub mod trace;
