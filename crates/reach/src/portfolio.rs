//! Portfolio drivers: budget escalation and engine racing.
//!
//! **Escalation.** A run that ends in `T.O.`/`M.O.` (the paper's Table 2
//! failure cells) has still computed a prefix of the reachable set.
//! Instead of restarting from scratch with a bigger machine,
//! [`run_escalating`] resumes the traversal from the [`crate::Checkpoint`] it
//! returned, multiplying the node/time budgets by a fixed factor each
//! round until the fixed point is reached, a budget ceiling is hit, or
//! the round cap runs out. Internal errors ([`Outcome::Error`]) are never
//! retried — a bug does not go away with a bigger budget.
//!
//! **Racing.** The paper's Table 2 story is that different engines win on
//! different circuits, and no static chooser predicts the winner.
//! [`run_racing`] runs a set of engine × representation lanes (see
//! [`Lane`]) concurrently on the same netlist and returns the first fixed
//! point any *exact* lane reaches — over-approximating lanes (zonotopes)
//! report early bounds but never win or cancel exact lanes. Because
//! [`BddManager`] is deliberately `!Send` (its [`bfvr_bdd::Func`] root
//! handles share an `Rc` root table), each lane runs a *private* manager
//! built by encoding the netlist in its own worker thread — there is no
//! shared mutable BDD state and therefore no locking on the op-cache and
//! unique-table hot paths. Losers are cancelled cooperatively: the winner
//! trips a shared [`AtomicBool`] that every manager polls at the same
//! points as its deadline (each fixed-point iteration and every few
//! thousand node allocations), so a cancelled lane unwinds as a clean
//! `T.O.`-shaped partial result, never an error.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bfvr_bdd::BddManager;
use bfvr_netlist::Netlist;
use bfvr_sim::{EncodedFsm, OrderHeuristic};

use crate::common::lane_label;
use crate::{
    resume, run_repr, EngineKind, IterationStats, Outcome, ReachOptions, ReachResult, ReprKind,
};

/// One engine × representation × ordering lane of a race: which image
/// computation runs, which set representation it iterates on, and —
/// optionally — a variable order overriding the race-wide base
/// ([`ReachOptions::order`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    /// The engine driving the image computation.
    pub engine: EngineKind,
    /// The set representation the fixed-point loop iterates on.
    pub repr: ReprKind,
    /// Variable-ordering override for this lane's private encoding;
    /// `None` inherits [`ReachOptions::order`].
    pub order: Option<OrderHeuristic>,
}

impl Lane {
    /// An engine on its native representation (the classic race lane).
    #[must_use]
    pub fn native(engine: EngineKind) -> Self {
        Lane {
            engine,
            repr: engine.native_repr(),
            order: None,
        }
    }

    /// An explicit engine × representation pair.
    #[must_use]
    pub fn new(engine: EngineKind, repr: ReprKind) -> Self {
        Lane {
            engine,
            repr,
            order: None,
        }
    }

    /// This lane with an explicit variable-ordering override — the third
    /// axis of the portfolio (engine × repr × ordering).
    #[must_use]
    pub fn with_order(mut self, order: OrderHeuristic) -> Self {
        self.order = Some(order);
        self
    }

    /// The lane's display label (`BFV`, `MONO+ZDD`, `BFV+ZONO`, …).
    /// Ordering overrides do not change the label (the trace schema keys
    /// race events by static engine labels); use [`Lane::display`] where
    /// the override matters.
    #[must_use]
    pub fn label(self) -> &'static str {
        lane_label(self.engine, self.repr)
    }

    /// The lane's full display name: the label, tagged `@ORDER` when the
    /// lane overrides the race's base order (`MONO+ZDD@COI`, `BFV@FORCE`).
    #[must_use]
    pub fn display(self) -> String {
        match self.order {
            Some(o) => format!("{}@{}", self.label(), o.label()),
            None => self.label().to_string(),
        }
    }

    /// Whether this lane's results may over-approximate the reached set.
    #[must_use]
    pub fn over_approximates(self) -> bool {
        self.repr.over_approximates()
    }

    /// Every engine on its native representation, in [`EngineKind::all`]
    /// order — the pre-representation race portfolio.
    #[must_use]
    pub fn native_lanes() -> Vec<Lane> {
        EngineKind::all().into_iter().map(Lane::native).collect()
    }

    /// The full engine × supported-representation matrix (native lanes
    /// first per engine, then the cross-representation lanes).
    #[must_use]
    pub fn all_lanes() -> Vec<Lane> {
        EngineKind::all()
            .into_iter()
            .flat_map(|e| e.supported_reprs().iter().map(move |&r| Lane::new(e, r)))
            .collect()
    }
}

/// How to raise budgets between escalation rounds.
#[derive(Clone, Debug)]
pub struct EscalationPolicy {
    /// Multiplier applied to the node and time budgets on every retry
    /// (must be > 1 to make progress; values ≤ 1 are treated as 2).
    pub factor: f64,
    /// Maximum number of retries after the initial run.
    pub max_rounds: usize,
    /// Hard ceiling on the node budget: escalation stops raising past
    /// it, and gives up once a capped run still exhausts.
    pub max_node_budget: Option<usize>,
    /// Hard ceiling on the time budget.
    pub max_time_budget: Option<Duration>,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        EscalationPolicy {
            factor: 2.0,
            max_rounds: 8,
            max_node_budget: None,
            max_time_budget: None,
        }
    }
}

/// One row of the escalation log.
#[derive(Clone, Debug)]
pub struct EscalationRound {
    /// Outcome of this round's (partial) run.
    pub outcome: Outcome,
    /// Cumulative image iterations after this round.
    pub iterations: usize,
    /// Node budget this round ran under.
    pub node_limit: Option<usize>,
    /// Time budget this round ran under.
    pub time_limit: Option<Duration>,
    /// Whether this round continued from a checkpoint (as opposed to
    /// starting from scratch).
    pub resumed: bool,
}

/// The escalation driver's verdict: the final result plus the per-round
/// log (round 0 is the initial run).
#[derive(Clone, Debug)]
pub struct EscalationReport {
    /// Result of the last round — final if its outcome is not a
    /// resource exhaustion, best-effort partial otherwise.
    pub result: ReachResult,
    /// One entry per round, in order.
    pub rounds: Vec<EscalationRound>,
}

impl EscalationReport {
    /// Whether the traversal eventually completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.result.outcome == Outcome::FixedPoint
    }
}

/// Raises the budgets in `opts` by the policy factor, respecting the
/// ceilings. Returns `false` when no budget could be raised any further
/// (both already at their ceilings, or no budget is set at all) — the
/// signal to stop escalating.
fn raise_budgets(opts: &mut ReachOptions, policy: &EscalationPolicy) -> bool {
    let factor = if policy.factor > 1.0 {
        policy.factor
    } else {
        2.0
    };
    let mut raised = false;
    if let Some(n) = opts.node_limit {
        let mut next = ((n as f64) * factor).ceil() as usize;
        next = next.max(n + 1);
        if let Some(cap) = policy.max_node_budget {
            next = next.min(cap);
        }
        if next > n {
            opts.node_limit = Some(next);
            raised = true;
        }
    }
    if let Some(t) = opts.time_limit {
        let mut next = t.mul_f64(factor);
        if let Some(cap) = policy.max_time_budget {
            next = next.min(cap);
        }
        if next > t {
            opts.time_limit = Some(next);
            raised = true;
        }
    }
    raised
}

/// Runs `kind` under `opts`, then — while the outcome is a resource
/// exhaustion and budgets can still be raised — resumes from the
/// returned checkpoint with the budgets multiplied by
/// [`EscalationPolicy::factor`].
///
/// A round that exhausts without leaving a checkpoint (it failed before
/// completing a single iteration) is restarted from scratch under the
/// raised budgets instead.
pub fn run_escalating(
    kind: EngineKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    policy: &EscalationPolicy,
) -> EscalationReport {
    run_escalating_repr(kind, kind.native_repr(), m, fsm, opts, policy)
}

/// [`run_escalating`] for an explicit engine × representation lane:
/// every round (initial, resumed, restarted) re-enters the same lane.
pub fn run_escalating_repr(
    kind: EngineKind,
    repr: ReprKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    policy: &EscalationPolicy,
) -> EscalationReport {
    let mut opts = opts.clone();
    let mut result = run_repr(kind, repr, m, fsm, &opts);
    let mut rounds = vec![EscalationRound {
        outcome: result.outcome,
        iterations: result.iterations,
        node_limit: opts.node_limit,
        time_limit: opts.time_limit,
        resumed: false,
    }];
    for _ in 0..policy.max_rounds {
        if !result.outcome.is_resource_exhaustion() {
            break;
        }
        if !raise_budgets(&mut opts, policy) {
            break;
        }
        let checkpoint = result.checkpoint.take();
        let resumed = checkpoint.is_some();
        result = match checkpoint {
            Some(c) => resume(m, fsm, &opts, c),
            None => run_repr(kind, repr, m, fsm, &opts),
        };
        rounds.push(EscalationRound {
            outcome: result.outcome,
            iterations: result.iterations,
            node_limit: opts.node_limit,
            time_limit: opts.time_limit,
            resumed,
        });
    }
    if let Some(trace) = &opts.trace {
        let mut t = trace.borrow_mut();
        for (i, round) in rounds.iter().enumerate() {
            t.round(
                lane_label(kind, repr),
                i as u64,
                round.outcome.label(),
                round.resumed,
                round.node_limit.map(|n| n as u64),
                round.time_limit.map(|d| d.as_micros() as u64),
            );
        }
    }
    EscalationReport { result, rounds }
}

/// Tuning for [`run_racing`].
#[derive(Clone, Debug, Default)]
pub struct RaceConfig {
    /// Worker-thread cap: at most this many lanes run at once (`0` means
    /// one thread per lane). Lanes beyond the cap queue and start as
    /// threads free up; queued lanes are skipped outright once a winner
    /// has been declared.
    pub jobs: usize,
    /// When set, every lane runs under [`run_escalating`] with this
    /// policy instead of a single [`crate::run`] — the race then composes with
    /// budget escalation (`--race --escalate` in the CLI).
    pub escalation: Option<EscalationPolicy>,
}

/// One engine × representation lane's report in a race.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// The engine this lane ran.
    pub engine: EngineKind,
    /// The set representation the lane iterated on.
    pub repr: ReprKind,
    /// The variable-ordering heuristic the lane's private encoding used
    /// (its override if it had one, else the race's base order).
    pub order: OrderHeuristic,
    /// Whether the lane's reached-state count may over-approximate
    /// (zonotope lanes). Over-approximating lanes never win a race.
    pub over_approx: bool,
    /// How the lane's traversal ended; `None` when the lane was skipped
    /// because the race was already decided before it could start.
    pub outcome: Option<Outcome>,
    /// Image iterations the lane completed.
    pub iterations: usize,
    /// States the lane had reached when it stopped.
    pub reached_states: Option<f64>,
    /// Final representation size (completed lanes only).
    pub representation_nodes: Option<usize>,
    /// Peak allocated nodes in the lane's private manager.
    pub peak_nodes: usize,
    /// Lane wall time, including its private FSM encoding.
    pub elapsed: Duration,
    /// Escalation rounds the lane ran (1 without an escalation policy).
    pub rounds: usize,
    /// Whether the lane was stopped by the race (a winner finished first)
    /// rather than by its own budget. Cancellation rides the deadline
    /// path, so a cancelled lane reports [`Outcome::TimeOut`] — never
    /// [`Outcome::Error`].
    pub cancelled: bool,
    /// Dynamic reorder (sift) passes the lane's driver triggered; zero
    /// unless the lane requested sifting and its representation supports
    /// it ([`bfvr_setrepr::SetRepr::supports_reorder`]).
    pub reorders: usize,
}

/// The race's verdict: the winning result plus every lane's report.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The winner's result — the first lane to reach its fixed point, or
    /// the best partial result when none did (completion beats iteration
    /// cap beats resource exhaustion; ties go to the lane with more
    /// iterations). `None` only when `lanes` was empty.
    ///
    /// The result crosses a thread boundary, so the fields that hold
    /// manager-owned state ([`ReachResult::reached_chi`] and
    /// [`ReachResult::checkpoint`]) are always `None`: the lane's private
    /// manager — and every `Func` rooted in it — dies with its thread.
    /// Race when you want the answer fast; run a single engine when you
    /// need the reached set itself afterwards.
    pub result: Option<ReachResult>,
    /// Index into `lanes` of the lane that produced [`RaceReport::result`].
    pub winner: Option<usize>,
    /// One report per lane, in the order given.
    pub lanes: Vec<LaneReport>,
    /// Wall time of the whole race.
    pub elapsed: Duration,
}

/// The `Send`able subset of [`ReachOptions`] shipped to lane threads: the
/// per-iteration observer is an `Rc` callback and stays on the caller's
/// thread (lanes run unobserved), and the tracer is `!Send` — lanes get
/// only its sampling stride and rebuild a private collector tracer.
#[derive(Clone, Copy)]
struct LaneOpts {
    node_limit: Option<usize>,
    time_limit: Option<Duration>,
    cache_limit: Option<usize>,
    max_iterations: Option<usize>,
    order: OrderHeuristic,
    schedule: bfvr_bfv::reparam::Schedule,
    cluster_threshold: usize,
    use_frontier: bool,
    sift: bool,
    sift_max_growth: f64,
    sift_trigger: f64,
    record_iterations: bool,
    /// `Some(stride)` when the race driver traces: the lane records its
    /// own stream into a collector tracer and ships the events home.
    trace_sample: Option<u64>,
}

impl LaneOpts {
    fn of(opts: &ReachOptions) -> Self {
        LaneOpts {
            node_limit: opts.node_limit,
            time_limit: opts.time_limit,
            cache_limit: opts.cache_limit,
            max_iterations: opts.max_iterations,
            order: opts.order,
            schedule: opts.schedule,
            cluster_threshold: opts.cluster_threshold,
            use_frontier: opts.use_frontier,
            sift: opts.sift,
            sift_max_growth: opts.sift_max_growth,
            sift_trigger: opts.sift_trigger,
            record_iterations: opts.record_iterations,
            trace_sample: opts.trace.as_ref().map(|t| t.borrow().sample_every()),
        }
    }

    fn into_options(self) -> ReachOptions {
        ReachOptions {
            node_limit: self.node_limit,
            time_limit: self.time_limit,
            cache_limit: self.cache_limit,
            max_iterations: self.max_iterations,
            order: self.order,
            schedule: self.schedule,
            cluster_threshold: self.cluster_threshold,
            use_frontier: self.use_frontier,
            sift: self.sift,
            sift_max_growth: self.sift_max_growth,
            sift_trigger: self.sift_trigger,
            record_iterations: self.record_iterations,
            observer: None,
            trace: self
                .trace_sample
                .map(|s| crate::telemetry::trace_handle(bfvr_obs::Tracer::collector(s))),
            // Periodic durable checkpointing is a single-lane facility:
            // the hook is an `Rc` callback and cannot cross the lane
            // thread boundary (racing lanes still checkpoint in memory
            // on exhaustion, as before).
            checkpoint_every: None,
            checkpoint_hook: None,
        }
    }
}

/// Everything a lane thread sends home. All fields are plain data —
/// [`IterationStats`] is `Copy` — so the message is `Send` even though
/// the result it summarizes was produced by a `!Send` manager.
struct LaneMessage {
    lane: usize,
    engine: EngineKind,
    repr: ReprKind,
    order: OrderHeuristic,
    outcome: Option<Outcome>,
    iterations: usize,
    reached_states: Option<f64>,
    representation_nodes: Option<usize>,
    peak_nodes: usize,
    elapsed: Duration,
    conversion_time: Duration,
    per_iteration: Vec<IterationStats>,
    rounds: usize,
    won: bool,
    cancelled: bool,
    reorders: usize,
    reorder_nodes: (usize, usize),
    /// The lane's collected trace stream ([`bfvr_obs::Event`] is plain
    /// data), empty when the race is untraced.
    events: Vec<bfvr_obs::Event>,
}

/// Runs one lane to completion (or cancellation) on the current thread.
fn race_lane(
    lane: usize,
    spec: Lane,
    net: &Netlist,
    opts: LaneOpts,
    escalation: Option<&EscalationPolicy>,
    cancel: &Arc<AtomicBool>,
) -> LaneMessage {
    let start = Instant::now();
    let Lane { engine, repr, .. } = spec;
    let order = spec.order.unwrap_or(opts.order);
    let skipped = LaneMessage {
        lane,
        engine,
        repr,
        order,
        outcome: None,
        iterations: 0,
        reached_states: None,
        representation_nodes: None,
        peak_nodes: 0,
        elapsed: Duration::ZERO,
        conversion_time: Duration::ZERO,
        per_iteration: Vec::new(),
        rounds: 0,
        won: false,
        cancelled: true,
        reorders: 0,
        reorder_nodes: (0, 0),
        events: Vec::new(),
    };
    if cancel.load(Ordering::Relaxed) {
        return skipped;
    }
    let Ok((mut m, fsm)) = EncodedFsm::encode(net, order) else {
        return LaneMessage {
            outcome: Some(Outcome::Error),
            elapsed: start.elapsed(),
            cancelled: false,
            ..skipped
        };
    };
    m.set_cancel_token(Some(Arc::clone(cancel)));
    let opts = opts.into_options();
    let (result, rounds) = match escalation {
        Some(policy) => {
            let report = run_escalating_repr(engine, repr, &mut m, &fsm, &opts, policy);
            let n = report.rounds.len();
            (report.result, n)
        }
        None => (run_repr(engine, repr, &mut m, &fsm, &opts), 1),
    };
    // First *exact* fixed point wins; `swap` makes exactly one lane the
    // winner even if two finish back-to-back. An over-approximating lane
    // finishing first proves nothing about the exact reached set, so it
    // neither wins nor cancels the exact lanes still running.
    let won = result.outcome == Outcome::FixedPoint
        && !result.over_approx
        && !cancel.swap(true, Ordering::AcqRel);
    // A loser whose run ended while the flag was up was (or would have
    // been) stopped by the race, not by its own budget.
    let cancelled =
        !won && result.outcome.is_resource_exhaustion() && cancel.load(Ordering::Acquire);
    let events = opts
        .trace
        .as_ref()
        .map_or_else(Vec::new, |t| t.borrow_mut().drain());
    LaneMessage {
        lane,
        engine,
        repr,
        order,
        outcome: Some(result.outcome),
        iterations: result.iterations,
        reached_states: result.reached_states,
        representation_nodes: result.representation_nodes,
        peak_nodes: result.peak_nodes,
        elapsed: start.elapsed(),
        conversion_time: result.conversion_time,
        per_iteration: result.per_iteration,
        rounds,
        won,
        cancelled,
        reorders: result.reorders,
        reorder_nodes: result.reorder_nodes,
        events,
    }
}

/// Lower ranks make better fallback winners when no lane completed.
fn outcome_rank(outcome: Option<Outcome>) -> u8 {
    match outcome {
        Some(Outcome::FixedPoint) => 0,
        Some(Outcome::IterationLimit) => 1,
        Some(Outcome::TimeOut | Outcome::MemOut) => 2,
        Some(Outcome::Error) => 3,
        None => 4,
    }
}

/// Races `lanes` on `net`: every engine × representation × ordering lane
/// encodes the netlist in its own worker thread with its own private
/// [`BddManager`] — under [`ReachOptions::order`] unless the lane
/// carries an override ([`Lane::with_order`]) — and the first *exact*
/// lane to reach the fixed point cancels the rest through the managers'
/// cooperative deadline poll.
///
/// The returned [`RaceReport`] carries the winning [`ReachResult`]
/// (reached-state count, iterations, peak nodes — but not the reached
/// set itself; see [`RaceReport::result`]) and a [`LaneReport`] per
/// lane. Reached-state counts are deterministic: every exact lane
/// converges to the same unique least fixed point, so whichever lane
/// wins, the count matches a sequential run bit for bit.
/// Over-approximating lanes ([`Lane::over_approximates`]) race for
/// information only — their counts upper-bound the exact answer and
/// their reports are flagged [`LaneReport::over_approx`].
#[must_use]
pub fn run_racing(
    lanes: &[Lane],
    net: &Netlist,
    opts: &ReachOptions,
    config: &RaceConfig,
) -> RaceReport {
    let start = Instant::now();
    let n = lanes.len();
    let jobs = if config.jobs == 0 {
        n
    } else {
        config.jobs.min(n)
    };
    let lane_opts = LaneOpts::of(opts);
    let cancel = Arc::new(AtomicBool::new(false));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<LaneMessage>();
    let mut messages: Vec<Option<LaneMessage>> = Vec::new();
    messages.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cancel = Arc::clone(&cancel);
            let next = &next;
            scope.spawn(move || {
                // Work-stealing loop: each thread pulls the next unstarted
                // lane until the queue is drained, so `jobs` caps
                // concurrency without dedicating a thread per engine.
                loop {
                    let lane = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = lanes.get(lane) else {
                        return;
                    };
                    let msg = race_lane(
                        lane,
                        spec,
                        net,
                        lane_opts,
                        config.escalation.as_ref(),
                        &cancel,
                    );
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        for msg in rx {
            let lane = msg.lane;
            messages[lane] = Some(msg);
        }
    });
    // Winner: the lane that won the swap; otherwise the best-ranked
    // partial result (exact lanes before over-approximating ones, then
    // most iterations, then lowest lane index).
    let winner = messages
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|m| (i, m)))
        .min_by_key(|(i, m)| {
            (
                !m.won,
                m.repr.over_approximates(),
                outcome_rank(m.outcome),
                std::cmp::Reverse(m.iterations),
                *i,
            )
        })
        .map(|(i, _)| i);
    let mut reports = Vec::with_capacity(n);
    let mut result = None;
    for (i, slot) in messages.into_iter().enumerate() {
        // Every spawned lane sends exactly one message, so the slot is
        // always populated; guard anyway so a panicked lane degrades to
        // a skipped report instead of poisoning the race.
        let mut msg = slot.unwrap_or(LaneMessage {
            lane: i,
            engine: lanes[i].engine,
            repr: lanes[i].repr,
            order: lanes[i].order.unwrap_or(opts.order),
            outcome: None,
            iterations: 0,
            reached_states: None,
            representation_nodes: None,
            peak_nodes: 0,
            elapsed: Duration::ZERO,
            conversion_time: Duration::ZERO,
            per_iteration: Vec::new(),
            rounds: 0,
            won: false,
            cancelled: true,
            reorders: 0,
            reorder_nodes: (0, 0),
            events: Vec::new(),
        });
        // Merge the lane's stream into the driver's trace, tagged with
        // its lane index, then synthesize the race-level events: one
        // `winner`, and one `cancel` per lane the race stopped (or
        // skipped) rather than its own budget.
        if let Some(trace) = &opts.trace {
            let mut t = trace.borrow_mut();
            t.ingest(i as u64, std::mem::take(&mut msg.events));
            if msg.cancelled {
                t.cancel(lane_label(msg.engine, msg.repr));
            }
            if winner == Some(i) {
                t.winner(lane_label(msg.engine, msg.repr));
            }
        }
        reports.push(LaneReport {
            engine: msg.engine,
            repr: msg.repr,
            order: msg.order,
            over_approx: msg.repr.over_approximates(),
            outcome: msg.outcome,
            iterations: msg.iterations,
            reached_states: msg.reached_states,
            representation_nodes: msg.representation_nodes,
            peak_nodes: msg.peak_nodes,
            elapsed: msg.elapsed,
            rounds: msg.rounds,
            cancelled: msg.cancelled,
            reorders: msg.reorders,
        });
        if winner == Some(i) {
            result = Some(ReachResult {
                engine: msg.engine,
                repr: msg.repr,
                over_approx: msg.repr.over_approximates(),
                outcome: msg.outcome.unwrap_or(Outcome::Error),
                iterations: msg.iterations,
                reached_states: msg.reached_states,
                reached_chi: None,
                representation_nodes: msg.representation_nodes,
                peak_nodes: msg.peak_nodes,
                elapsed: msg.elapsed,
                conversion_time: msg.conversion_time,
                reorders: msg.reorders,
                reorder_nodes: msg.reorder_nodes,
                per_iteration: msg.per_iteration,
                checkpoint: None,
            });
        }
    }
    RaceReport {
        result,
        winner,
        lanes: reports,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use bfvr_netlist::generators;
    use bfvr_sim::{EncodedFsm, OrderHeuristic};

    #[test]
    fn escalation_recovers_from_a_tight_node_budget() {
        let net = generators::queue_controller(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let baseline = run(
            EngineKind::Monolithic,
            &mut m,
            &fsm,
            &ReachOptions::default(),
        );
        assert_eq!(baseline.outcome, Outcome::FixedPoint);
        // Sweep the baseline run's garbage first: adaptive per-iteration
        // collection defers on small graphs and leaves it in the arena,
        // and a budget measured on top of reclaimable garbage would not
        // actually be tight.
        m.collect_garbage(&[]);
        let opts = ReachOptions {
            node_limit: Some(m.allocated() + 50),
            ..Default::default()
        };
        let report = run_escalating(
            EngineKind::Monolithic,
            &mut m,
            &fsm,
            &opts,
            &EscalationPolicy::default(),
        );
        assert!(report.completed(), "rounds: {:?}", report.rounds);
        assert!(report.rounds.len() > 1, "first run should have mem-out");
        assert_eq!(report.result.reached_states, baseline.reached_states);
    }

    #[test]
    fn error_outcomes_are_not_retried() {
        // A capacity fault is an internal failure: the driver must not
        // burn rounds on it.
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        m.set_fault_plan(bfvr_bdd::FaultPlan::capacity_at(5));
        let opts = ReachOptions {
            node_limit: Some(1_000_000),
            ..Default::default()
        };
        let report = run_escalating(
            EngineKind::Monolithic,
            &mut m,
            &fsm,
            &opts,
            &EscalationPolicy::default(),
        );
        m.clear_fault_plan();
        assert_eq!(report.result.outcome, Outcome::Error);
        assert_eq!(report.rounds.len(), 1);
    }

    #[test]
    fn budget_ceiling_stops_escalation() {
        let net = generators::queue_controller(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let base = m.allocated() + 40;
        let opts = ReachOptions {
            node_limit: Some(base),
            ..Default::default()
        };
        let policy = EscalationPolicy {
            max_node_budget: Some(base + 10),
            ..Default::default()
        };
        let report = run_escalating(EngineKind::Bfv, &mut m, &fsm, &opts, &policy);
        assert!(!report.completed());
        // Round 0 plus exactly one capped retry.
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.rounds[1].node_limit, Some(base + 10));
    }
}
