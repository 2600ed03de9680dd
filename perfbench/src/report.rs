//! Metric names, summary statistics and the printed result.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pass_s.p50", "s"),
    ("pass_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_nodes", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("reach.image_s", "s"),
    ("reach.union_s", "s"),
    ("reach.set_eq_s", "s"),
    ("reach.frontier_s", "s"),
    ("reach.pin_s", "s"),
    ("reach.gc_s", "s"),
    ("reach.gc_runs", "count"),
    ("reach.prepare_s", "s"),
    ("reach.final_s", "s"),
    ("reach.iterations", "count"),
    ("reach.sift_s", "s"),
    ("reach.sift_swaps", "count"),
    ("reach.sift_shrink", "ratio"),
    ("sim.compose_s", "s"),
    ("sim.reparam_s", "s"),
    ("sim.rename_s", "s"),
    ("sim.encode_s", "s"),
    ("netlist.generate_s", "s"),
    ("netlist.parse_s", "s"),
    ("bfv.reparam.schedule_s", "s"),
    ("bfv.reparam.cofactor_s", "s"),
    ("bfv.reparam.union_s", "s"),
    ("bfv.union.mk_calls", "count"),
    ("bfv.reparam.params", "count"),
    ("bfv.reparam.params_dependent", "count"),
    ("bdd.mk_calls", "count"),
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.ite.hit_rate", "ratio"),
    ("bdd.and_exists.hit_rate", "ratio"),
    ("bdd.constrain.hit_rate", "ratio"),
    ("bdd.subst.hit_rate", "ratio"),
    ("bdd.exists.hit_rate", "ratio"),
    ("bdd.cache_bytes", "bytes"),
    ("bdd.unique_bytes", "bytes"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_frac", "ratio"),
];

/// Unit of a metric listed in [`END_TO_END`] or [`PER_LAYER`].
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// Median of a non-empty sample (mean of the middle two when even).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(value, percentile)`; with ten samples or fewer, the maximum.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns free heap memory to the system, then restarts this process's
/// resident-memory high-water mark from its current resident size
/// (Linux `clear_refs`). Trimming first keeps free memory left over
/// from earlier passes out of the next pass's high-water mark.
///
/// # Errors
///
/// Fails where `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
    // at any time; it only releases free pages of the allocator's heaps.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Resident-memory high-water mark of this process in MiB (`VmHWM`),
/// since the start or the last [`reset_peak_rss`].
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result line: one JSON object, metric values with all their digits.
#[must_use]
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name.rsplit('/').next().unwrap_or(name))
        );
    }
    out.push_str("}}");
    out
}
