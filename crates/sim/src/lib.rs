//! # bfvr-sim — symbolic simulation of sequential netlists
//!
//! Bridges the gate-level world (`bfvr-netlist`) and the symbolic world
//! (`bfvr-bdd`, `bfvr-bfv`):
//!
//! * [`OrderHeuristic`] computes static variable orders (the `S1`/`S2`/
//!   `D`/`O` columns of the paper's Table 2 are modeled by the
//!   [`OrderHeuristic::DfsFanin`], [`OrderHeuristic::Declaration`],
//!   [`OrderHeuristic::Reversed`] and [`OrderHeuristic::Random`]
//!   heuristics);
//! * [`EncodedFsm`] holds the BDD encoding of an FSM: one next-state
//!   function per latch over current-state and input variables, with
//!   current/next variables interleaved pairwise in the order;
//! * [`simulate_image`] performs the paper's symbolic-simulation step:
//!   simultaneous composition of the next-state functions with the
//!   components of the current reached set's Boolean functional vector;
//! * [`ternary`] adds an STE-style dual-rail three-valued simulator
//!   (the paper's §1 cites Symbolic Trajectory Evaluation as the
//!   established consumer of functional vectors).
//!
//! ```
//! use bfvr_bdd::BddManager;
//! use bfvr_bfv::StateSet;
//! use bfvr_netlist::generators;
//! use bfvr_sim::{EncodedFsm, OrderHeuristic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = generators::counter(3);
//! let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin)?;
//! let space = fsm.space();
//! let init = StateSet::singleton(&mut m, &space, &fsm.initial_state())?;
//! let image = bfvr_sim::simulate_image(&mut m, &fsm, init.as_bfv().unwrap())?;
//! // From state 0 the counter reaches {0, 1}.
//! assert_eq!(StateSet::NonEmpty(image).len(&mut m, &space)?, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod encode;
mod order;
mod simulate;
pub mod ternary;

pub use encode::EncodedFsm;
pub use order::{OrderHeuristic, Slot};
pub use simulate::{
    simulate_image, simulate_image_scratch, simulate_image_with, simulate_outputs, ImageScratch,
};
