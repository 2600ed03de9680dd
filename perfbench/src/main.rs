//! `perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny]`
//!
//! Runs one workload (or all four, one after another) for `S` seconds of
//! passes, checks every answer, and prints per-cell rows, the metrics
//! with their units, and as its last line one JSON object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced passes and reports the per-layer metrics. `--tiny` swaps in
//! small circuits for a quick smoke run. Exits nonzero on any wrong
//! answer, replay mismatch or nondeterministic column.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::calib::{host_scale, Reference, REF_NOMINAL_S};
use perfbench::cells::{run_cell, Cell, Columns, SplitMix64, Workload};
use perfbench::replay::{trace_cell, verify_cell, LayerCounts};
use perfbench::report::{
    json_line, median, peak_rss_mb, reset_peak_rss, tail, unit_of, END_TO_END, PER_LAYER,
};
use perfbench::trace::Tracer;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
    })
}

/// Per-cell samples behind the printed rows.
#[derive(Default)]
struct Row {
    run_s: Vec<f64>,
    peak: Vec<f64>,
    iterations: usize,
}

/// What one workload run produced.
struct WorkloadResult {
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    /// `(spec, lane) → samples`, in first-seen order.
    rows: Vec<((&'static str, String), Row)>,
    /// Why the run is not correct, if it is not.
    errors: Vec<String>,
}

/// What one untraced pass measured.
#[derive(Default)]
struct PassSample {
    /// Wall seconds of the cells.
    wall: f64,
    /// Generate + parse + encode seconds of the cells.
    setup: f64,
    /// `wall` at the reference kernel's nominal speed.
    scaled_wall: f64,
    /// `setup` at the reference kernel's nominal speed.
    scaled_setup: f64,
    /// Sum over cells of `ReachResult::peak_nodes`.
    peak: f64,
    /// Resident-memory high-water mark in MiB, the highest of any cell.
    rss_mb: f64,
}

/// Checks `columns` against the first run of the same cell.
fn check_repeat(
    reference: &mut HashMap<u32, Columns>,
    cell: &Cell,
    columns: Columns,
    what: &str,
) -> Result<(), String> {
    let first = *reference.entry(cell.id).or_insert(columns);
    if first == columns {
        Ok(())
    } else {
        Err(format!(
            "{} {}: {what} columns {columns:?} differ from the first run's {first:?}",
            cell.spec,
            cell.lane()
        ))
    }
}

struct Runner {
    reference: HashMap<u32, Columns>,
    kernel: Reference,
    rows: Vec<((&'static str, String), Row)>,
    attempted: u64,
    errors: Vec<String>,
}

impl Runner {
    fn row(&mut self, cell: &Cell) -> &mut Row {
        let key = (cell.spec, lane_family(cell));
        let i = match self.rows.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.rows.push((key, Row::default()));
                self.rows.len() - 1
            }
        };
        &mut self.rows[i].1
    }

    /// One untraced pass. Every cell is bracketed by runs of the
    /// reference kernel (appended to `ref_s`) and its times are also
    /// given at the kernel's nominal speed, so a pass is measured at the
    /// host speed of the moments its cells ran.
    fn untraced_pass(
        &mut self,
        cells: &[Cell],
        ref_s: &mut Vec<f64>,
    ) -> Result<PassSample, String> {
        let mut p = PassSample::default();
        let mut before = self.kernel.run();
        ref_s.push(before);
        for cell in cells {
            reset_peak_rss()?;
            self.attempted += 1;
            let start = Instant::now();
            let r = run_cell(cell);
            let wall = start.elapsed().as_secs_f64();
            p.rss_mb = p.rss_mb.max(peak_rss_mb()?);
            let after = self.kernel.run();
            ref_s.push(after);
            let scale = host_scale(before, after);
            before = after;
            let setup = r.setup.as_secs_f64();
            p.wall += wall;
            p.setup += setup;
            p.scaled_wall += wall * scale;
            p.scaled_setup += setup * scale;
            let checked = r
                .columns
                .and_then(|c| check_repeat(&mut self.reference, cell, c, "untraced").map(|()| c));
            match checked {
                Ok(c) => {
                    p.peak += c.peak_nodes as f64;
                    let row = self.row(cell);
                    row.run_s.push(r.run.as_secs_f64());
                    row.peak.push(c.peak_nodes as f64);
                    row.iterations = c.iterations;
                }
                Err(e) => self.errors.push(e),
            }
        }
        Ok(p)
    }

    /// One traced pass: its wall seconds and the tracer holding its spans.
    fn traced_pass(&mut self, cells: &[Cell], counts: &mut LayerCounts) -> (f64, Tracer) {
        let start = Instant::now();
        let mut tr = Tracer::new(start);
        for cell in cells {
            self.attempted += 1;
            let checked = trace_cell(cell, &mut tr, counts)
                .and_then(|c| check_repeat(&mut self.reference, cell, c, "traced replay"));
            if let Err(e) = checked {
                self.errors.push(e);
            }
        }
        (start.elapsed().as_secs_f64(), tr)
    }
}

/// Row label of a cell: its lane without the per-cell start order.
fn lane_family(cell: &Cell) -> String {
    if cell.sift {
        format!("{}~S", cell.engine.label())
    } else {
        cell.engine.label().to_string()
    }
}

fn layer_metrics(tr: &Tracer, c: &LayerCounts, pass_s: f64) -> BTreeMap<&'static str, f64> {
    let totals = tr.totals();
    let incl = |n: &str| totals.get(n).map_or(0.0, |t| t.incl_s);
    let rate = |(lookups, hits): (u64, u64)| {
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    };
    let op = |n: &str| rate(c.cache_ops.get(n).copied().unwrap_or_default());
    let all_ops = c
        .cache_ops
        .values()
        .fold((0, 0), |(l, h), &(dl, dh)| (l + dl, h + dh));
    let attributed: f64 = totals
        .iter()
        .filter(|(n, _)| !matches!(**n, "cell" | "reach.run"))
        .map(|(_, t)| t.self_s)
        .sum();
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("reach.image_s", "reach.image"),
        ("reach.union_s", "reach.union"),
        ("reach.set_eq_s", "reach.set_eq"),
        ("reach.frontier_s", "reach.frontier"),
        ("reach.pin_s", "reach.pin"),
        ("reach.gc_s", "reach.gc"),
        ("reach.prepare_s", "reach.prepare"),
        ("reach.final_s", "reach.final"),
        ("reach.sift_s", "reach.sift"),
        ("sim.compose_s", "sim.compose"),
        ("sim.reparam_s", "sim.reparam"),
        ("sim.rename_s", "sim.rename"),
        ("sim.encode_s", "sim.encode"),
        ("netlist.generate_s", "netlist.generate"),
        ("netlist.parse_s", "netlist.parse"),
        ("bfv.reparam.schedule_s", "bfv.reparam.schedule"),
        ("bfv.reparam.cofactor_s", "bfv.reparam.cofactor"),
        ("bfv.reparam.union_s", "bfv.reparam.union"),
    ] {
        m.insert(metric, incl(span));
    }
    let shrink = if c.sift_before == 0 {
        1.0
    } else {
        c.sift_after as f64 / c.sift_before as f64
    };
    for (metric, value) in [
        ("reach.gc_runs", c.gc_runs as f64),
        ("reach.iterations", c.iterations as f64),
        ("reach.sift_swaps", c.sift_swaps as f64),
        ("reach.sift_shrink", shrink),
        ("bfv.union.mk_calls", c.bfv_union_mk as f64),
        ("bfv.reparam.params", c.params as f64),
        ("bfv.reparam.params_dependent", c.params_dependent as f64),
        ("bdd.mk_calls", c.mk_calls as f64),
        ("bdd.cache_lookups", all_ops.0 as f64),
        ("bdd.cache_hit_rate", rate(all_ops)),
        ("bdd.ite.hit_rate", op("ite")),
        ("bdd.and_exists.hit_rate", op("and_exists")),
        ("bdd.constrain.hit_rate", op("constrain")),
        ("bdd.subst.hit_rate", op("subst")),
        ("bdd.exists.hit_rate", op("exists")),
        ("bdd.cache_bytes", tr.cache_bytes_max as f64),
        ("bdd.unique_bytes", tr.unique_bytes_max as f64),
        ("trace.pass_s", pass_s),
        ("trace.attributed_frac", attributed / pass_s),
    ] {
        m.insert(metric, value);
    }
    m
}

/// Writes the last traced pass's spans, then one self-time record per
/// span name, as JSON lines.
fn write_spans(w: Workload, seed: u64, tr: &Tracer) -> Result<String, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    let mut text = tr.to_jsonl();
    for (name, t) in tr.totals() {
        text.push_str(&format!(
            "{{\"summary\":\"{name}\",\"calls\":{},\"incl_s\":{},\"self_s\":{},\"mk_calls\":{}}}\n",
            t.calls, t.incl_s, t.self_s, t.mk_calls
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn print_self_times(tr: &Tracer, pass_s: f64) {
    println!("self time by span (last traced pass, {pass_s:.4} s):");
    let mut totals: Vec<_> = tr.totals().into_iter().collect();
    totals.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, t) in totals {
        println!(
            "  {name:<24} {:>10.6} s  {:>5.1}%  ({} calls)",
            t.self_s,
            100.0 * t.self_s / pass_s,
            t.calls
        );
    }
}

fn run_workload(w: Workload, args: &Args) -> Result<WorkloadResult, String> {
    let plan = w.plan(args.seed, args.tiny)?;
    let mut rng = SplitMix64::new(args.seed);
    let mut runner = Runner {
        reference: HashMap::new(),
        kernel: Reference::default(),
        rows: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
    };

    // Warm-up pass, untimed: first-touch allocation and the reference
    // columns. The traced run also checks its replays against the
    // library here.
    runner.untraced_pass(&plan[0], &mut Vec::new())?;
    if args.trace {
        for cell in &plan[0] {
            if let Err(e) = verify_cell(cell) {
                runner.errors.push(e);
            }
        }
    }
    runner
        .rows
        .iter_mut()
        .for_each(|(_, r)| *r = Row::default());

    let (mut passes, mut ref_s) = (Vec::new(), Vec::new());
    let (mut traced_s, mut layers) = (Vec::new(), Vec::new());
    let mut last_trace = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut j = 0usize;
    while runner.errors.is_empty() && (j == 0 || Instant::now() < deadline) {
        let mut cells = plan[j % plan.len()].clone();
        rng.shuffle(&mut cells);
        let p = runner.untraced_pass(&cells, &mut ref_s)?;
        passes.push(p);
        if args.trace {
            let mut counts = LayerCounts::default();
            let (wall, tr) = runner.traced_pass(&cells, &mut counts);
            traced_s.push(wall);
            layers.push(layer_metrics(&tr, &counts, wall));
            last_trace = Some((wall, tr));
        }
        j += 1;
    }

    let mut metrics = Vec::new();
    let col = |f: fn(&PassSample) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    println!(
        "workload {}  seed {}  trace {}  {} passes of {} cells{}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        passes.len(),
        plan[0].len(),
        if plan.len() > 1 {
            format!(" ({} templates)", plan.len())
        } else {
            String::new()
        }
    );
    if args.trace {
        for (name, _) in PER_LAYER {
            let value = match name {
                "trace.overhead_s" => median(&traced_s) - median(&col(|p| p.wall)),
                _ => median(&layers.iter().map(|l| l[name]).collect::<Vec<_>>()),
            };
            metrics.push((name.to_string(), value));
        }
        if let Some((wall, tr)) = &last_trace {
            print_self_times(tr, *wall);
            println!("spans: {}", write_spans(w, args.seed, tr)?);
        }
    } else {
        let (tail_s, pct) = tail(&col(|p| p.scaled_wall));
        println!(
            "reference kernel p50 {:.6} s over {} runs (nominal {REF_NOMINAL_S} s); \
             wall time unscaled: pass_s.p50 {:.6} s, pass_s.tail {:.6} s, setup_s {:.6} s",
            median(&ref_s),
            ref_s.len(),
            median(&col(|p| p.wall)),
            tail(&col(|p| p.wall)).0,
            median(&col(|p| p.setup))
        );
        println!(
            "pass_s.tail is p{pct:.1} of {} passes (10 or more passes above it)",
            passes.len()
        );
        for (name, _) in END_TO_END {
            let value = match name {
                "pass_s.p50" => median(&col(|p| p.scaled_wall)),
                "pass_s.tail" => tail_s,
                "setup_s" => median(&col(|p| p.scaled_setup)),
                "peak_nodes" => median(&col(|p| p.peak)),
                _ => median(&col(|p| p.rss_mb)),
            };
            metrics.push((name.to_string(), value));
        }
    }
    let failed = runner.errors.len() as u64;
    Ok(WorkloadResult {
        metrics,
        attempted: runner.attempted,
        failed,
        rows: runner.rows,
        errors: runner.errors,
    })
}

fn print_rows(rows: &[((&'static str, String), Row)]) {
    println!(
        "  {:<12} {:<10} {:>12} {:>12} {:>10}",
        "circuit", "lane", "run_ms.p50", "peak.p50", "iters"
    );
    for ((spec, lane), row) in rows {
        println!(
            "  {spec:<12} {lane:<10} {:>12.3} {:>12.0} {:>10}",
            median(&row.run_s) * 1e3,
            median(&row.peak),
            row.iterations
        );
    }
}

/// BFV ÷ IWLS95 run-time ratio per circuit that both lanes ran.
fn print_ratios(rows: &[((&'static str, String), Row)]) {
    let p50 = |spec: &str, lane: &str| {
        rows.iter()
            .find(|((s, l), r)| *s == spec && l == lane && !r.run_s.is_empty())
            .map(|(_, r)| median(&r.run_s))
    };
    println!("BFV ÷ IWLS95 run time:");
    for ((spec, lane), _) in rows {
        if lane != "BFV" {
            continue;
        }
        if let (Some(b), Some(i)) = (p50(spec, "BFV"), p50(spec, "IWLS95")) {
            println!("  {spec:<12} {:>8.2}×", b / i);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload bfv-wide|bfv-deep|chi-kernel|chi-sift|all \
                 --seed N --seconds S --trace 0|1 [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let (mut metrics, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut all_rows = Vec::new();
    let mut errors = Vec::new();
    for &w in &args.workloads {
        let out = match run_workload(w, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        println!("cells (median over timed untraced passes):");
        print_rows(&out.rows);
        println!("metrics:");
        for (name, value) in &out.metrics {
            println!("  {name:<30} {value:>16.6} {}", unit_of(name));
        }
        println!(
            "  {:<30} {:>16.6} (of {} cells attempted)",
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted
        );
        for e in &out.errors {
            println!("FAILED: {e}");
        }
        attempted += out.attempted;
        failed += out.failed;
        errors.extend(out.errors);
        let prefix = if args.workloads.len() > 1 {
            format!("{}/", w.name())
        } else {
            String::new()
        };
        metrics.extend(
            out.metrics
                .into_iter()
                .map(|(n, v)| (format!("{prefix}{n}"), v)),
        );
        all_rows.extend(out.rows);
    }
    if args.workloads.len() > 1 {
        print_ratios(&all_rows);
    }
    let correct = errors.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
