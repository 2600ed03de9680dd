//! Symbolic simulation: image computation by functional composition.
//!
//! The image step of the paper's Figure 2 flow: compose the next-state
//! functions `δ(v, w)` with the components of the current state set's
//! canonical vector `R(v)` (simultaneous composition, because the
//! components themselves depend on the `v` variables), then re-parameterize
//! the resulting vector — whose parameters are the current-state choice
//! variables and the inputs — onto the next-state space, and finally
//! rename next-state variables back to current.

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{Bfv, BfvError};

use crate::encode::EncodedFsm;

/// Reusable per-call scratch of the image step: the substitution map
/// (sized by the manager's variable count), the re-parameterization
/// variable list and the u→v rename pairs. Holding one of these across
/// a fixed-point run makes every image after the first allocation-free
/// on these buffers instead of rebuilding them per call.
///
/// A scratch is keyed to one manager × FSM pair: do not share it across
/// encodings (the cached parameter list would be stale).
#[derive(Default)]
pub struct ImageScratch {
    map: Vec<Option<Bdd>>,
    params: Vec<Var>,
    pairs: Vec<(Var, Var)>,
    warm: bool,
    /// How many image calls ran on warm (reused) buffers — test
    /// observability for the reuse contract.
    reuses: usize,
}

impl ImageScratch {
    /// Sizes the substitution map for `num_vars` and counts a reuse when
    /// the buffers were already warm.
    fn prepare_for(&mut self, fsm: &EncodedFsm, num_vars: usize) {
        if self.warm {
            self.reuses += 1;
        } else {
            self.params.extend(fsm.space().vars());
            self.params.extend(fsm.input_vars());
            self.pairs = fsm.swap_pairs();
            self.warm = true;
        }
        // The map entries are reset after every compose loop, so a warm
        // map is already all-`None`; only the length may need fixing.
        self.map.resize(num_vars, None);
    }
}

/// Computes the canonical vector of the image
/// `{ δ(s, w) : s ∈ R, w ∈ inputs }` of a reached set `R`.
///
/// Uses the dynamic support-based quantification schedule (paper §3).
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_image(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
) -> Result<Bfv, BfvError> {
    simulate_image_with(m, fsm, reached, Schedule::DynamicSupport)
}

/// Like [`simulate_image`] with an explicit quantification schedule.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_image_with(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
    schedule: Schedule,
) -> Result<Bfv, BfvError> {
    simulate_image_scratch(m, fsm, reached, schedule, &mut ImageScratch::default())
}

/// Like [`simulate_image_with`], reusing the caller-held
/// [`ImageScratch`] buffers across calls — the form the fixed-point
/// backends drive, where the same scratch serves every iteration.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_image_scratch(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
    schedule: Schedule,
    scratch: &mut ImageScratch,
) -> Result<Bfv, BfvError> {
    let space = fsm.space();
    scratch.prepare_for(fsm, m.num_vars() as usize);
    // Substitution map: current-state variable of latch l ← component of
    // the reached vector representing that latch.
    for (c, &var) in space.vars().iter().enumerate() {
        scratch.map[var.0 as usize] = Some(reached.component(c));
    }
    // Symbolic simulation: one simultaneous composition per latch.
    let mut composed = Vec::with_capacity(fsm.num_latches());
    let mut compose_result = Ok(());
    for next_fn in fsm.next_fns_in_component_order() {
        match m.vector_compose(next_fn, &scratch.map) {
            Ok(c) => composed.push(c),
            Err(e) => {
                compose_result = Err(e);
                break;
            }
        }
    }
    // Leave the scratch map all-`None` for the next call even when a
    // resource limit tripped mid-loop.
    for &var in space.vars() {
        scratch.map[var.0 as usize] = None;
    }
    compose_result?;
    let next_space = fsm.next_space();
    let simulated = Bfv::from_components(&next_space, composed)?;
    // Parameters: the current-state choice variables and the inputs.
    let image_next = reparameterize_with(m, &next_space, &simulated, &scratch.params, schedule)?;
    // Rename u → v so the image lives in the current-state space again.
    let mut renamed = Vec::with_capacity(image_next.len());
    for &c in image_next.components() {
        renamed.push(m.swap_vars(c, &scratch.pairs)?);
    }
    Bfv::from_components(&space, renamed)
}

/// Evaluates the primary outputs over a state set: returns, per output,
/// the condition (over current-state and input variables) under which the
/// output is 1 *restricted to* states in the set — i.e. the output
/// function composed with the set's vector.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_outputs(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
) -> Result<Vec<Bdd>, BfvError> {
    let space = fsm.space();
    let mut map: Vec<Option<Bdd>> = vec![None; m.num_vars() as usize];
    for (c, &var) in space.vars().iter().enumerate() {
        map[var.0 as usize] = Some(reached.component(c));
    }
    let mut out = Vec::with_capacity(fsm.output_fns().len());
    for &f in fsm.output_fns() {
        out.push(m.vector_compose(f, &map)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderHeuristic;
    use bfvr_bfv::StateSet;
    use bfvr_netlist::generators;

    #[test]
    fn counter_image_steps() {
        let net = generators::counter(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        // Image of {0} = {0, 1}; of that = {0, 1, 2}; etc.
        let mut cur = init.as_bfv().unwrap().clone();
        for step in 1..=4u64 {
            cur = simulate_image(&mut m, &fsm, &cur).unwrap();
            assert!(
                cur.is_canonical(&mut m, &space).unwrap(),
                "step {step} not canonical"
            );
            let s = StateSet::NonEmpty(cur.clone());
            assert_eq!(
                s.len(&mut m, &space).unwrap() as u64,
                step + 1,
                "step {step}"
            );
        }
    }

    #[test]
    fn image_matches_relational_oracle() {
        // Cross-check symbolic simulation against the transition-relation
        // image on s27 for a couple of steps.
        let net = bfvr_netlist::circuits::s27();
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        // Build the monolithic transition relation over (v, u, w).
        let mut t = bfvr_bdd::Bdd::TRUE;
        for c in 0..fsm.num_latches() {
            let l = fsm.latch_of_component(c);
            let (_, u) = fsm.state_vars(l);
            let uu = m.var(u);
            let eq = m.xnor(uu, fsm.next_fn(l)).unwrap();
            t = m.and(t, eq).unwrap();
        }
        let mut quant_vars: Vec<Var> = space.vars().to_vec();
        quant_vars.extend(fsm.input_vars());
        let cube = m.cube_from_vars(&quant_vars).unwrap();
        let mut cur = init.as_bfv().unwrap().clone();
        let mut chi = StateSet::NonEmpty(cur.clone())
            .to_characteristic(&mut m, &space)
            .unwrap();
        for step in 0..3 {
            // Oracle image.
            let img = m.and_exists(t, chi, cube).unwrap();
            let img_v = m.swap_vars(img, &fsm.swap_pairs()).unwrap();
            // Symbolic simulation image.
            cur = simulate_image(&mut m, &fsm, &cur).unwrap();
            let got = StateSet::NonEmpty(cur.clone())
                .to_characteristic(&mut m, &space)
                .unwrap();
            assert_eq!(got, img_v, "image mismatch at step {step}");
            chi = img_v;
        }
    }

    #[test]
    fn fixed_and_dynamic_schedules_agree() {
        let net = generators::johnson(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let f = init.as_bfv().unwrap();
        let a = simulate_image_with(&mut m, &fsm, f, Schedule::DynamicSupport).unwrap();
        let b = simulate_image_with(&mut m, &fsm, f, Schedule::Fixed).unwrap();
        assert_eq!(a.components(), b.components());
    }

    #[test]
    fn scratch_buffers_are_reused_across_iterations() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let mut scratch = ImageScratch::default();
        let mut warm = init.as_bfv().unwrap().clone();
        let mut fresh = warm.clone();
        for step in 0..5 {
            warm =
                simulate_image_scratch(&mut m, &fsm, &warm, Schedule::DynamicSupport, &mut scratch)
                    .unwrap();
            fresh = simulate_image_with(&mut m, &fsm, &fresh, Schedule::DynamicSupport).unwrap();
            assert_eq!(warm.components(), fresh.components(), "step {step}");
        }
        // First call warmed the buffers, the next four reused them …
        assert_eq!(scratch.reuses, 4);
        // … and reuse left no stale substitution entries behind.
        assert!(scratch.map.iter().all(Option::is_none));
        assert_eq!(scratch.params.len(), 4 + 1);
        assert_eq!(scratch.pairs.len(), 4);
    }

    #[test]
    fn outputs_over_state_set() {
        let net = generators::counter(2);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let space = fsm.space();
        // At state 3 (both bits set) with en=1, the overflow output fires.
        let s3 = StateSet::singleton(&mut m, &space, &[true, true]).unwrap();
        let outs = simulate_outputs(&mut m, &fsm, s3.as_bfv().unwrap()).unwrap();
        // Output = en (since c0=c1=1 inside this set).
        let en = m.var(fsm.input_var(0));
        assert_eq!(outs[0], en);
    }
}
