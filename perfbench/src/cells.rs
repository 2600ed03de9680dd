//! Workloads, their cells, the expected-answer table, and the untraced
//! cell run that the end-to-end metrics time.

use std::time::{Duration, Instant};

use bfvr_bdd::BddManager;
use bfvr_netlist::{bench, generators, Netlist};
use bfvr_reach::{EngineKind, Outcome, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// The expected-count table (`expected.tsv`): spec, states, closed form.
pub const EXPECTED_TSV: &str = include_str!("../expected.tsv");

/// Expected reachable-state count of `spec`, from [`EXPECTED_TSV`].
#[must_use]
pub fn expected_states(spec: &str) -> Option<u64> {
    expected_table()
        .into_iter()
        .find(|(s, _)| *s == spec)
        .map(|(_, n)| n)
}

/// Every `(spec, states)` entry of [`EXPECTED_TSV`].
///
/// # Panics
///
/// Panics on a malformed line: the table is compiled in.
#[must_use]
pub fn expected_table() -> Vec<(&'static str, u64)> {
    EXPECTED_TSV
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut f = l.split('\t');
            let spec = f.next().expect("expected.tsv: spec column");
            let n = f
                .next()
                .and_then(|s| s.parse().ok())
                .expect("expected.tsv: states column");
            (spec, n)
        })
        .collect()
}

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BFV lane, few iterations with wide images.
    BfvWide,
    /// BFV lane, thousands of small iterations.
    BfvDeep,
    /// The χ lanes on the circuits of both BFV workloads.
    ChiKernel,
    /// IWLS95 with sifting armed, from seeded random start orders.
    ChiSift,
}

/// Random start orders per chi-sift circuit. Pass `j` runs template
/// `j mod SIFT_ROTATION`, so one run averages over this many orders per
/// circuit and every order still repeats for the determinism check.
pub const SIFT_ROTATION: usize = 96;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::BfvWide,
        Workload::BfvDeep,
        Workload::ChiKernel,
        Workload::ChiSift,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BfvWide => "bfv-wide",
            Workload::BfvDeep => "bfv-deep",
            Workload::ChiKernel => "chi-kernel",
            Workload::ChiSift => "chi-sift",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn circuits(self, tiny: bool) -> Vec<&'static str> {
        const WIDE: [&str; 4] = ["mask:10", "mask:8", "load:14", "queue:4"];
        const WIDE_TINY: [&str; 4] = ["mask:6", "mask:4", "load:6", "queue:2"];
        const DEEP: [&str; 4] = ["lfsr:11", "gray:8", "traffic:4", "johnson:12"];
        const DEEP_TINY: [&str; 4] = ["lfsr:5", "gray:4", "traffic:2", "johnson:4"];
        const SIFT: [&str; 4] = ["pair:10", "queue:4", "mask:10", "load:12"];
        const SIFT_TINY: [&str; 4] = ["pair:4", "queue:2", "mask:6", "load:6"];
        let pick = |full: [&'static str; 4], small: [&'static str; 4]| {
            if tiny { small } else { full }.to_vec()
        };
        match self {
            Workload::BfvWide => pick(WIDE, WIDE_TINY),
            Workload::BfvDeep => pick(DEEP, DEEP_TINY),
            Workload::ChiKernel => {
                let mut all = pick(WIDE, WIDE_TINY);
                all.extend(pick(DEEP, DEEP_TINY));
                all
            }
            Workload::ChiSift => pick(SIFT, SIFT_TINY),
        }
    }

    fn lanes(self) -> &'static [EngineKind] {
        match self {
            Workload::BfvWide | Workload::BfvDeep => &[EngineKind::Bfv],
            Workload::ChiKernel => &[EngineKind::Iwls95, EngineKind::Monolithic, EngineKind::Cbm],
            Workload::ChiSift => &[EngineKind::Iwls95],
        }
    }

    /// The pass templates of this workload under `seed`: pass `j` runs
    /// every cell of template `j mod len` once. Only chi-sift has more
    /// than one template; its seed picks each cell's random start order.
    ///
    /// # Errors
    ///
    /// Fails when a circuit has no entry in the expected-count table.
    pub fn plan(self, seed: u64, tiny: bool) -> Result<Vec<Vec<Cell>>, String> {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0f0d_e5c1_f7a1);
        let rotation = if self == Workload::ChiSift {
            SIFT_ROTATION
        } else {
            1
        };
        let mut id = 0u32;
        let mut templates = Vec::with_capacity(rotation);
        for _ in 0..rotation {
            let mut cells = Vec::new();
            for spec in self.circuits(tiny) {
                let expected = expected_states(spec)
                    .ok_or_else(|| format!("no expected state count for {spec}"))?;
                for &engine in self.lanes() {
                    let (order, sift) = if self == Workload::ChiSift {
                        (OrderHeuristic::Random(rng.next_u64()), true)
                    } else {
                        (OrderHeuristic::DfsFanin, false)
                    };
                    cells.push(Cell {
                        id,
                        spec,
                        engine,
                        order,
                        sift,
                        expected,
                    });
                    id += 1;
                }
            }
            templates.push(cells);
        }
        Ok(templates)
    }
}

/// One circuit × lane.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Identifier, unique within a run's plan.
    pub id: u32,
    /// Generator spec, `family:param`.
    pub spec: &'static str,
    /// The engine; each runs on its native set representation.
    pub engine: EngineKind,
    /// Variable order the circuit is encoded under.
    pub order: OrderHeuristic,
    /// Whether dynamic sifting is armed.
    pub sift: bool,
    /// Expected reachable-state count, from the table.
    pub expected: u64,
}

impl Cell {
    /// Lane label as the per-cell rows print it.
    #[must_use]
    pub fn lane(&self) -> String {
        if self.sift {
            format!("{}~S@{}", self.engine.label(), self.order.label())
        } else {
            self.engine.label().to_string()
        }
    }

    /// The run options: defaults, with sifting when the cell asks.
    #[must_use]
    pub fn options(&self) -> ReachOptions {
        ReachOptions {
            sift: self.sift,
            ..ReachOptions::default()
        }
    }
}

/// Builds the netlist a spec names.
///
/// # Errors
///
/// Fails on an unknown family or a malformed parameter.
pub fn generate(spec: &str) -> Result<Netlist, String> {
    let (family, param) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad circuit spec `{spec}`"))?;
    let n: u32 = param
        .parse()
        .map_err(|_| format!("bad parameter in `{spec}`"))?;
    Ok(match family {
        "mask" => generators::masked_accumulator(n),
        "load" => generators::loadable_register(n),
        "queue" => generators::queue_controller(n),
        "lfsr" => generators::lfsr(n),
        "gray" => generators::gray(n),
        "traffic" => generators::traffic_chain(n),
        "johnson" => generators::johnson(n),
        "pair" => generators::paired_registers(n),
        other => return Err(format!("unknown family `{other}`")),
    })
}

/// Generates `spec` as `.bench` text.
///
/// # Errors
///
/// Fails on a bad spec or a netlist the writer cannot express.
pub fn bench_text(spec: &str) -> Result<String, String> {
    bench::write(&generate(spec)?).map_err(|e| e.to_string())
}

/// Parses `.bench` text back into a netlist.
///
/// # Errors
///
/// Fails on malformed text.
pub fn parse(text: &str, spec: &str) -> Result<Netlist, String> {
    bench::parse_named(text, spec).map_err(|e| e.to_string())
}

/// Encodes a netlist into a fresh manager under `order`.
///
/// # Errors
///
/// Fails on BDD resource exhaustion.
pub fn encode(net: &Netlist, order: OrderHeuristic) -> Result<(BddManager, EncodedFsm), String> {
    EncodedFsm::encode(net, order).map_err(|e| e.to_string())
}

/// The deterministic columns of one cell: they must repeat exactly on
/// every run of the cell, traced or not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Columns {
    /// Fixed-point iterations.
    pub iterations: usize,
    /// `ReachResult::peak_nodes`.
    pub peak_nodes: usize,
    /// Reached-state count.
    pub states: f64,
    /// Node creations during the traversal, final conversion included.
    pub mk_calls: u64,
    /// Computed-cache lookups during the same span.
    pub cache_lookups: u64,
}

/// One untraced run of a cell.
#[derive(Debug)]
pub struct CellRun {
    /// Generate + parse + encode.
    pub setup: Duration,
    /// Wall time of `bfvr_reach::run`, final conversion and count included.
    pub run: Duration,
    /// The columns, or why the cell failed.
    pub columns: Result<Columns, String>,
}

/// Checks a cell's outcome and count against its expected answer.
///
/// # Errors
///
/// Describes the failure: a limit, an error, or a wrong count.
pub fn check_answer(cell: &Cell, outcome: Outcome, states: Option<f64>) -> Result<f64, String> {
    if outcome != Outcome::FixedPoint {
        return Err(format!(
            "{} {}: {}",
            cell.spec,
            cell.lane(),
            outcome.label()
        ));
    }
    match states {
        Some(n) if n == cell.expected as f64 => Ok(n),
        got => Err(format!(
            "{} {}: {got:?} states, expected {}",
            cell.spec,
            cell.lane(),
            cell.expected
        )),
    }
}

/// Runs one cell through `bfvr_reach::run`, untraced.
#[must_use]
pub fn run_cell(cell: &Cell) -> CellRun {
    let t0 = Instant::now();
    let built = bench_text(cell.spec)
        .and_then(|text| parse(&text, cell.spec))
        .and_then(|net| encode(&net, cell.order));
    let setup = t0.elapsed();
    let (mut m, fsm) = match built {
        Ok(b) => b,
        Err(e) => {
            return CellRun {
                setup,
                run: Duration::ZERO,
                columns: Err(e),
            }
        }
    };
    let before = m.stats();
    let t1 = Instant::now();
    let r = bfvr_reach::run(cell.engine, &mut m, &fsm, &cell.options());
    let run = t1.elapsed();
    let after = m.stats();
    let columns = check_answer(cell, r.outcome, r.reached_states).map(|states| Columns {
        iterations: r.iterations,
        peak_nodes: r.peak_nodes,
        states,
        mk_calls: after.mk_calls - before.mk_calls,
        cache_lookups: after.cache_lookups - before.cache_lookups,
    });
    CellRun {
        setup,
        run,
        columns,
    }
}

/// SplitMix64: the benchmark's seeded generator (cell order shuffles
/// and chi-sift start orders).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
