//! The traced run: replays of the reach driver, the BFV image step and
//! the §2.6 re-parameterization, written against the crates' public API
//! with a span around every call.
//!
//! Each replay issues exactly the BDD operations of the code it mirrors,
//! in the same order, so a traced cell reproduces the untraced cell's
//! iterations, peak, state count, `mk_calls` and cache lookups exactly.
//! The caller checks that; [`verify_cell`] also checks the BFV image and
//! re-parameterization replays against the library, result for result.
//!
//! Mirrored code: `run_fixed_point` (crates/reach/src/driver.rs) under
//! default `ReachOptions` (no limits, no observer, no trace, no
//! checkpoints), `simulate_image_scratch`/`finish_image`
//! (crates/sim/src/simulate.rs) and `reparameterize_with` with the
//! dynamic schedule (crates/bfv/src/reparam.rs). When one of those
//! changes, the exactness check fails until the replay follows it.

use std::collections::BTreeMap;
use std::time::Instant;

use bfvr_bdd::{Bdd, BddManager, SiftConfig, Var, SIFT_SIZE_FLOOR};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{ops, Bfv, Space};
use bfvr_reach::backends::{BfvBackend, ChiBackend};
use bfvr_reach::{EngineKind, ReachOptions, SetRepr};
use bfvr_sim::EncodedFsm;

use crate::cells::{bench_text, check_answer, encode, parse, Cell, Columns};
use crate::trace::Tracer;

/// Work counts of the traced layers, summed over the cells of a pass.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Fixed-point iterations.
    pub iterations: u64,
    /// Garbage collections run by the manager.
    pub gc_runs: u64,
    /// Adjacent-level swaps across all sift passes.
    pub sift_swaps: u64,
    /// Live nodes entering the sift passes.
    pub sift_before: u64,
    /// Live nodes leaving the sift passes.
    pub sift_after: u64,
    /// Parameters the §2.6 schedule picked.
    pub params: u64,
    /// Picked parameters some component depended on (cofactor + union).
    pub params_dependent: u64,
    /// Node creations inside §2.3 unions (re-parameterization and driver).
    pub bfv_union_mk: u64,
    /// Node creations during the traversals.
    pub mk_calls: u64,
    /// Per-operation computed-cache `(lookups, hits)` during the traversals.
    pub cache_ops: BTreeMap<&'static str, (u64, u64)>,
}

/// Why a replay stopped: a library error or a replay mismatch.
#[derive(Debug)]
struct Failure(String);

impl<E: std::fmt::Display> From<E> for Failure {
    fn from(e: E) -> Self {
        Failure(e.to_string())
    }
}

/// What the driver replay returns.
struct Driven {
    iterations: usize,
    peak_nodes: usize,
    states: Option<f64>,
}

/// Replays `run_fixed_point` on `backend`, with `image` standing in for
/// the backend's image step.
fn drive<B: SetRepr>(
    backend: &mut B,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    mut image: impl FnMut(
        &mut B,
        &mut BddManager,
        &B::Set,
        &mut Tracer,
        &mut LayerCounts,
    ) -> Result<B::Set, Failure>,
) -> Result<Driven, Failure> {
    // `arm_limits` under default options: no ceilings, a fresh peak.
    m.set_deadline(None);
    m.reset_peak_nodes();
    let sift_enabled = opts.sift && backend.supports_reorder();
    let mut sift_baseline = m.allocated().max(1);
    let union_is_bfv = backend.kind() == bfvr_reach::ReprKind::Bfv;

    let s = tr.open("reach.prepare", Some(m));
    backend.prepare(m)?;
    tr.close(s, Some(m));
    let s = tr.open("reach.initial", Some(m));
    let init = backend.initial(m)?;
    tr.close(s, Some(m));
    let (mut reached, mut from, mut iterations) = (init.clone(), init, 0usize);
    backend.take_conversion();

    let s = tr.open("reach.pin", Some(m));
    let mut state_guards = (backend.pin(m, &reached), backend.pin(m, &from));
    tr.close(s, Some(m));

    loop {
        m.check_deadline()?;
        let s = tr.open("reach.image", Some(m));
        let img = image(backend, m, &from, tr, counts)?;
        tr.close(s, Some(m));
        let s = tr.open("reach.pin", Some(m));
        let img_guard = backend.pin(m, &img);
        tr.close(s, Some(m));
        let s = tr.open("reach.union", Some(m));
        let new_reached = backend.union(m, &reached, &img)?;
        tr.close(s, Some(m));
        if union_is_bfv {
            counts.bfv_union_mk += tr.spans()[s].mk_calls;
        }
        iterations += 1;
        let s = tr.open("reach.set_eq", Some(m));
        let done = backend.set_eq(m, &new_reached, &reached);
        tr.close(s, Some(m));
        if done {
            break;
        }
        reached = new_reached;
        let s = tr.open("reach.frontier", Some(m));
        from = if opts.use_frontier && backend.size(m, &img) <= backend.size(m, &reached) {
            img
        } else {
            reached.clone()
        };
        tr.close(s, Some(m));
        let s = tr.open("reach.pin", Some(m));
        state_guards = (backend.pin(m, &reached), backend.pin(m, &from));
        tr.close(s, Some(m));
        let s = tr.open("reach.gc", Some(m));
        let mut roots = Vec::new();
        backend.append_roots(&reached, &mut roots);
        backend.append_roots(&from, &mut roots);
        backend.persistent_roots(&mut roots);
        let gc = m.maybe_collect_garbage(&roots);
        tr.close(s, Some(m));
        if sift_enabled
            && gc.live >= SIFT_SIZE_FLOOR
            && gc.live as f64 >= sift_baseline as f64 * opts.sift_trigger.max(1.0)
        {
            let s = tr.open("reach.sift", Some(m));
            let stats = m.sift(
                &roots,
                &SiftConfig {
                    max_growth: opts.sift_max_growth,
                    converge: false,
                },
            );
            tr.close(s, Some(m));
            counts.sift_swaps += stats.swaps;
            counts.sift_before += stats.before as u64;
            counts.sift_after += stats.after as u64;
            sift_baseline = stats.after.max(1);
        }
        backend.take_conversion();
        backend.take_image_phases();
        backend.end_of_iteration(&reached, &from);
        drop(img_guard);
    }
    let peak_nodes = m.peak_nodes();

    let s = tr.open("reach.final", Some(m));
    let chi = backend.to_chi(m, &reached)?;
    let states = backend
        .count_states(m, &reached)
        .or_else(|| ChiBackend::iwls95(fsm, opts.cluster_threshold).count_states(m, &chi));
    tr.close(s, Some(m));
    drop(state_guards);
    Ok(Driven {
        iterations,
        peak_nodes,
        states,
    })
}

/// The BFV image step, replayed: compose per latch, re-parameterize,
/// rename. Mirrors `simulate_image_scratch` + `finish_image`.
struct BfvImage {
    space: Space,
    next_space: Space,
    next_fns: Vec<Bdd>,
    params: Vec<Var>,
    pairs: Vec<(Var, Var)>,
    map: Vec<Option<Bdd>>,
    /// Also compute the library's re-parameterization and compare.
    check: bool,
}

impl BfvImage {
    fn new(fsm: &EncodedFsm, m: &BddManager, check: bool) -> Self {
        let mut params: Vec<Var> = fsm.space().vars().to_vec();
        params.extend(fsm.input_vars());
        BfvImage {
            space: fsm.space(),
            next_space: fsm.next_space(),
            next_fns: fsm.next_fns_in_component_order(),
            params,
            pairs: fsm.swap_pairs(),
            map: vec![None; m.num_vars() as usize],
            check,
        }
    }

    fn image(
        &mut self,
        m: &mut BddManager,
        from: &Bfv,
        tr: &mut Tracer,
        counts: &mut LayerCounts,
    ) -> Result<Bfv, Failure> {
        let s = tr.open("sim.compose", Some(m));
        for (c, &v) in self.space.vars().iter().enumerate() {
            self.map[v.0 as usize] = Some(from.component(c));
        }
        let mut composed = Vec::with_capacity(self.next_fns.len());
        let mut result = Ok(());
        for &f in &self.next_fns {
            match m.vector_compose(f, &self.map) {
                Ok(c) => composed.push(c),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        for &v in self.space.vars() {
            self.map[v.0 as usize] = None;
        }
        tr.close(s, Some(m));
        result?;

        let s = tr.open("sim.reparam", Some(m));
        let simulated = Bfv::from_components(&self.next_space, composed)?;
        let image_next = reparameterize(m, &self.next_space, &simulated, &self.params, tr, counts)?;
        tr.close(s, Some(m));
        if self.check {
            let lib = reparameterize_with(
                m,
                &self.next_space,
                &simulated,
                &self.params,
                Schedule::DynamicSupport,
            )?;
            if lib.components() != image_next.components() {
                return Err(Failure(
                    "re-parameterization replay differs from reparameterize_with".into(),
                ));
            }
        }

        let s = tr.open("sim.rename", Some(m));
        let mut renamed = Vec::with_capacity(image_next.len());
        for &c in image_next.components() {
            renamed.push(m.swap_vars(c, &self.pairs)?);
        }
        let out = Bfv::from_components(&self.space, renamed)?;
        tr.close(s, Some(m));
        Ok(out)
    }
}

/// §2.6 re-parameterization with the dynamic support schedule,
/// replayed over `support`/`shared_size`, `ops::cofactor` and
/// `ops::union`. Mirrors `reparameterize_with(.., DynamicSupport)`.
fn reparameterize(
    m: &mut BddManager,
    space: &Space,
    vec: &Bfv,
    params: &[Var],
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Bfv, Failure> {
    let mut current = vec.clone();
    let mut remaining: Vec<Var> = params.to_vec();
    while !remaining.is_empty() {
        let s = tr.open("bfv.reparam.schedule", Some(m));
        let idx = cheapest_param(m, &current, &remaining);
        let p = remaining.swap_remove(idx);
        let dependent = current
            .components()
            .iter()
            .any(|&c| m.support(c).contains(p));
        tr.close(s, Some(m));
        counts.params += 1;
        if !dependent {
            continue;
        }
        counts.params_dependent += 1;
        let s = tr.open("bfv.reparam.cofactor", Some(m));
        let f0 = ops::cofactor(m, space, &current, p, false)?;
        let f1 = ops::cofactor(m, space, &current, p, true)?;
        tr.close(s, Some(m));
        let s = tr.open("bfv.reparam.union", Some(m));
        current = ops::union(m, space, &f0, &f1)?;
        tr.close(s, Some(m));
        counts.bfv_union_mk += tr.spans()[s].mk_calls;
    }
    Ok(current)
}

/// The dynamic schedule's cost: fewest dependent components, then the
/// smallest shared size of those components.
fn cheapest_param(m: &BddManager, vec: &Bfv, remaining: &[Var]) -> usize {
    let supports: Vec<_> = vec.components().iter().map(|&c| m.support(c)).collect();
    let mut best = 0usize;
    let mut best_cost = (usize::MAX, usize::MAX);
    for (i, &p) in remaining.iter().enumerate() {
        let dependents: Vec<Bdd> = (0..vec.len())
            .filter(|&j| supports[j].contains(p))
            .map(|j| vec.component(j))
            .collect();
        let size = if dependents.is_empty() {
            0
        } else {
            m.shared_size(&dependents)
        };
        let cost = (dependents.len(), size);
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    best
}

/// Runs the driver replay for `cell`'s lane on an encoded circuit.
fn drive_lane(
    cell: &Cell,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    check: bool,
) -> Result<Driven, Failure> {
    let opts = cell.options();
    match cell.engine {
        EngineKind::Bfv => {
            let mut img = BfvImage::new(fsm, m, check);
            let mut backend = BfvBackend::new(fsm, opts.schedule);
            drive(
                &mut backend,
                m,
                fsm,
                &opts,
                tr,
                counts,
                |b, m, from, tr, c| {
                    let ours = img.image(m, from, tr, c)?;
                    if check {
                        let lib = b.image(m, from)?;
                        if lib.components() != ours.components() {
                            return Err(Failure("image replay differs from SetRepr::image".into()));
                        }
                    }
                    Ok(ours)
                },
            )
        }
        EngineKind::Iwls95 | EngineKind::Monolithic | EngineKind::Cbm => {
            let mut backend = match cell.engine {
                EngineKind::Iwls95 => ChiBackend::iwls95(fsm, opts.cluster_threshold),
                EngineKind::Monolithic => ChiBackend::monolithic(fsm),
                _ => ChiBackend::cbm(fsm),
            };
            drive(
                &mut backend,
                m,
                fsm,
                &opts,
                tr,
                counts,
                |b, m, from, _, _| Ok(b.image(m, from)?),
            )
        }
        EngineKind::Cdec => Err(Failure("the benchmark runs no CDEC lane".into())),
    }
}

/// One traced cell: setup and traversal under spans, rooted in a `cell`
/// span. Returns the deterministic columns the untraced run must match.
///
/// # Errors
///
/// Describes a failed step or a wrong answer.
pub fn trace_cell(
    cell: &Cell,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Columns, String> {
    tr.set_cell(cell.id);
    let root = tr.open("cell", None);
    let out = trace_cell_inner(cell, tr, counts);
    tr.unwind_to(root);
    tr.close(root, None);
    out
}

fn trace_cell_inner(
    cell: &Cell,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Columns, String> {
    let s = tr.open("netlist.generate", None);
    let text = bench_text(cell.spec)?;
    tr.close(s, None);
    let s = tr.open("netlist.parse", None);
    let net = parse(&text, cell.spec)?;
    tr.close(s, None);
    let s = tr.open("sim.encode", None);
    let (mut m, fsm) = encode(&net, cell.order)?;
    tr.close(s, Some(&m));

    let before = m.stats();
    let ops_before = m.cache_stats();
    let s = tr.open("reach.run", Some(&m));
    let driven = drive_lane(cell, &mut m, &fsm, tr, counts, false).map_err(|e| e.0);
    tr.unwind_to(s);
    tr.close(s, Some(&m));
    let driven = driven?;
    let after = m.stats();
    counts.iterations += driven.iterations as u64;
    counts.gc_runs += after.gc_runs - before.gc_runs;
    counts.mk_calls += after.mk_calls - before.mk_calls;
    for (b, a) in ops_before.iter().zip(m.cache_stats()) {
        let e = counts.cache_ops.entry(a.name).or_default();
        e.0 += a.lookups - b.lookups;
        e.1 += a.hits - b.hits;
    }
    let states = check_answer(cell, bfvr_reach::Outcome::FixedPoint, driven.states)?;
    Ok(Columns {
        iterations: driven.iterations,
        peak_nodes: driven.peak_nodes,
        states,
        mk_calls: after.mk_calls - before.mk_calls,
        cache_lookups: after.cache_lookups - before.cache_lookups,
    })
}

/// Checks the BFV replays against the library on `cell`: at every
/// iteration the replayed image must equal `SetRepr::image` and the
/// replayed re-parameterization must equal `reparameterize_with`,
/// component for component. A no-op for χ lanes, whose image step is
/// the library's own.
///
/// # Errors
///
/// Describes the first mismatch or failure.
pub fn verify_cell(cell: &Cell) -> Result<(), String> {
    if cell.engine != EngineKind::Bfv {
        return Ok(());
    }
    let net = parse(&bench_text(cell.spec)?, cell.spec)?;
    let (mut m, fsm) = encode(&net, cell.order)?;
    let mut tr = Tracer::new(Instant::now());
    let driven = drive_lane(
        cell,
        &mut m,
        &fsm,
        &mut tr,
        &mut LayerCounts::default(),
        true,
    )
    .map_err(|e| format!("{} {}: {}", cell.spec, cell.lane(), e.0))?;
    check_answer(cell, bfvr_reach::Outcome::FixedPoint, driven.states).map(|_| ())
}
