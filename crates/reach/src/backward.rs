//! Backward reachability (pre-image traversal) on characteristic
//! functions — the dual traversal VIS-class tools pair with forward
//! reachability for invariant checking.
//!
//! The BFV representation has no natural pre-image (the paper's flow is
//! forward-only; a functional vector maps *into* a set, not out of it),
//! so this engine intentionally runs on characteristic functions with the
//! monolithic relation. It exists to cross-validate the forward engines:
//! `init ∈ backward(bad) ⟺ bad ∩ forward(init) ≠ ∅`.

use std::time::Instant;

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_sim::EncodedFsm;

use crate::cf::{count_states, initial_chi};
use crate::common::{
    arm_limits, disarm_limits, outcome_of_bdd_error, IterationStats, Outcome, ReachOptions,
    ReachResult,
};
use crate::EngineKind;

/// Computes the set of states that can reach `bad` (a characteristic
/// function over the *current*-state variables), as a characteristic
/// function over the current-state variables. The result includes `bad`
/// itself.
///
/// Reported under [`EngineKind::Monolithic`] in the result (it shares
/// that engine's relation construction).
pub fn reach_backward(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    bad: Bdd,
    opts: &ReachOptions,
) -> ReachResult {
    let start = Instant::now();
    arm_limits(m, opts);
    let mut per_iteration = Vec::new();
    let mut iterations = 0usize;
    let mut reached = bad;
    let mut outcome_opt = None;
    // Pin the caller's bad-set against mid-operation reclaim passes.
    let _bad_guard = m.func(bad);
    let run = (|| -> Result<(), bfvr_bdd::BddError> {
        let mut t = Bdd::TRUE;
        for l in 0..fsm.num_latches() {
            let (_, u) = fsm.state_vars(l);
            let uu = m.var(u);
            let eq = m.xnor(uu, fsm.next_fn(l))?;
            t = m.and(t, eq)?;
        }
        let _t_guard = m.func(t);
        // Pre-image quantifies the *next*-state and input variables.
        let mut qvars: Vec<Var> = (0..fsm.num_latches())
            .map(|l| fsm.state_vars(l).1)
            .collect();
        qvars.extend(fsm.input_vars());
        let cube = m.cube_from_vars(&qvars)?;
        let _cube_guard = m.func(cube);
        let pairs = fsm.swap_pairs();
        let mut from = reached;
        // Pin the loop state against mid-operation reclaim passes.
        let mut _state_guards = (m.func(reached), m.func(from));
        loop {
            if opts.max_iterations.is_some_and(|cap| iterations >= cap) {
                outcome_opt = Some(Outcome::IterationLimit);
                break;
            }
            let iter_start = Instant::now();
            m.check_deadline()?;
            // pre(R) = ∃u,w. T(v,u,w) ∧ R[v→u].
            let from_u = m.swap_vars(from, &pairs)?;
            let pre = m.and_exists(t, from_u, cube)?;
            let new_reached = m.or(reached, pre)?;
            iterations += 1;
            if new_reached == reached {
                break;
            }
            reached = new_reached;
            from = if opts.use_frontier && m.size(pre) <= m.size(reached) {
                pre
            } else {
                reached
            };
            _state_guards = (m.func(reached), m.func(from));
            let gc = m.maybe_collect_garbage(&[reached, from, t, cube, bad]);
            if opts.record_iterations {
                per_iteration.push(IterationStats {
                    reached_states: count_states(m, fsm, reached),
                    reached_nodes: m.size(reached),
                    frontier_nodes: m.size(from),
                    live_nodes: gc.live,
                    elapsed: iter_start.elapsed(),
                    conversion: std::time::Duration::ZERO,
                });
            }
        }
        Ok(())
    })();
    let outcome = match (&run, outcome_opt) {
        (_, Some(o)) => o,
        (Ok(()), None) => Outcome::FixedPoint,
        (Err(e), None) => outcome_of_bdd_error(e),
    };
    let elapsed = start.elapsed();
    let peak_nodes = m.peak_nodes();
    disarm_limits(m);
    ReachResult {
        engine: EngineKind::Monolithic,
        repr: bfvr_setrepr::ReprKind::Chi,
        over_approx: false,
        outcome,
        iterations,
        reached_states: Some(count_states(m, fsm, reached)),
        reached_chi: Some(m.func(reached)),
        representation_nodes: Some(m.size(reached)),
        peak_nodes,
        elapsed,
        conversion_time: std::time::Duration::ZERO,
        reorders: 0,
        reorder_nodes: (0, 0),
        per_iteration,
        // Backward traversal is a validation utility, not one of the
        // escalation-driven engines; it does not checkpoint.
        checkpoint: None,
    }
}

/// Backward invariant check: does some initial state reach `bad`?
///
/// Returns `Ok(true)` when the invariant *holds* (bad is unreachable).
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn check_invariant_backward(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    bad: Bdd,
    opts: &ReachOptions,
) -> Result<bool, bfvr_bdd::BddError> {
    let r = reach_backward(m, fsm, bad, opts);
    let init = initial_chi(m, fsm)?;
    // `reach_backward` always yields a χ; an absent one hits nothing.
    let hit = match r.reached_chi {
        Some(back) => m.and(back.bdd(), init)?,
        None => Bdd::FALSE,
    };
    Ok(hit.is_false())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_invariant, reach_monolithic, CheckResult};
    use bfvr_bfv::StateSet;
    use bfvr_netlist::generators;
    use bfvr_sim::OrderHeuristic;

    #[test]
    fn backward_from_rotator_state_is_the_onehot_ring() {
        let net = generators::rotator(6);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        // Bad: token at station 3.
        let space = fsm.space();
        let mut point = vec![false; 6];
        let comp_of_latch3 = (0..6)
            .position(|c| fsm.latch_of_component(c) == 3)
            .expect("latch 3 exists");
        point[comp_of_latch3] = true;
        let bad_set = StateSet::singleton(&mut m, &space, &point).unwrap();
        let bad = bad_set.to_characteristic(&mut m, &space).unwrap();
        let r = reach_backward(&mut m, &fsm, bad, &ReachOptions::default());
        assert_eq!(r.outcome, Outcome::FixedPoint);
        // Rotation is a permutation: exactly the 6 one-hot states can
        // reach a one-hot state.
        assert_eq!(r.reached_states, Some(6.0));
    }

    #[test]
    fn forward_and_backward_checks_agree() {
        // For assorted (circuit, bad-state) pairs, the forward checker and
        // the backward checker must give the same verdict.
        let cases: Vec<(bfvr_netlist::Netlist, Vec<bool>, bool)> = vec![
            // counter(4) reaches all states: bad = 1111 is reachable.
            (generators::counter(4), vec![true; 4], false),
            // johnson(4) cannot reach 0101 (latch order).
            (generators::johnson(4), vec![false, true, false, true], true),
            // mod-5 counter never shows value 7 (binary 111).
            (generators::counter_modk(3, 5), vec![true, true, true], true),
        ];
        for (net, bad_latch_bits, expect_holds) in cases {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let space = fsm.space();
            let comp_bits: Vec<bool> = (0..space.len())
                .map(|c| bad_latch_bits[fsm.latch_of_component(c)])
                .collect();
            let bad_set = StateSet::singleton(&mut m, &space, &comp_bits).unwrap();
            let bad_chi = bad_set.to_characteristic(&mut m, &space).unwrap();
            let _bad_guard = m.func(bad_chi);
            let back_holds =
                check_invariant_backward(&mut m, &fsm, bad_chi, &ReachOptions::default()).unwrap();
            let fwd = check_invariant(&mut m, &fsm, &bad_set, &ReachOptions::default()).unwrap();
            let fwd_holds = matches!(fwd, CheckResult::Holds { .. });
            assert_eq!(back_holds, fwd_holds, "{} verdicts disagree", net.name());
            assert_eq!(back_holds, expect_holds, "{} wrong verdict", net.name());
        }
    }

    #[test]
    fn backward_from_unreachable_state_misses_init() {
        let net = generators::lfsr(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // All-ones is the LFSR's lockout state; nothing else reaches it.
        let bad = StateSet::singleton(&mut m, &space, &[true; 4]).unwrap();
        let bad_chi = bad.to_characteristic(&mut m, &space).unwrap();
        let r = reach_backward(&mut m, &fsm, bad_chi, &ReachOptions::default());
        // The lockout state maps to itself under XNOR feedback, so the
        // backward set is just {1111}.
        assert_eq!(r.reached_states, Some(1.0));
        assert!(check_invariant_backward(&mut m, &fsm, bad_chi, &ReachOptions::default()).unwrap());
    }

    #[test]
    fn backward_of_full_space_is_full_space() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let r = reach_backward(&mut m, &fsm, Bdd::TRUE, &ReachOptions::default());
        assert_eq!(r.reached_states, Some(16.0));
        assert_eq!(r.iterations, 1);
        // Sanity: forward reach also completes in the same manager after.
        let f = reach_monolithic(&mut m, &fsm, &ReachOptions::default());
        assert_eq!(f.reached_states, Some(16.0));
    }
}
