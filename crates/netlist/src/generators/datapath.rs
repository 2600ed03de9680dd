//! Datapath-style generators: registers guarded by wide pure-input
//! decode cones.
//!
//! The decode network (a popcount threshold over the whole data bus) is
//! a quadratic-size sub-DAG over *input* variables only, shared by every
//! next-state function. That is the structural phenomenon of parallel-
//! load datapaths the shift/counter families lack: an image engine that
//! re-traverses input-only logic once per latch pays for the cone `n`
//! times per step, while one that detects substitution-free sub-DAGs
//! skips it wholesale.

use crate::model::{GateKind, Netlist, NetlistBuilder};

use super::BuilderExt;

/// Builds the popcount-threshold DP network over inputs `d0..d{n-1}`:
/// `thr$i$j` = "at least `j` of the first `i` inputs are high", for
/// `1 ≤ j ≤ min(i, kmax)`. Returns the full-bus row `[th(1), …,
/// th(kmax)]`.
fn threshold_network(b: &mut NetlistBuilder, n: u32, kmax: u32) -> Vec<String> {
    debug_assert!(kmax >= 1 && kmax <= n);
    for i in 1..=n {
        let d = format!("d{}", i - 1);
        for j in 1..=kmax.min(i) {
            let out = format!("thr${i}${j}");
            let diag = format!("thr${}${}", i - 1, j - 1);
            let run = format!("thr${}${}", i - 1, j);
            if i == 1 {
                b.gate(&out, GateKind::Buf, &[d.as_str()]).expect("fresh");
            } else if j == i {
                // All of the first i inputs are high.
                b.gate(&out, GateKind::And, &[d.as_str(), diag.as_str()])
                    .expect("fresh");
            } else if j == 1 {
                b.gate(&out, GateKind::Or, &[run.as_str(), d.as_str()])
                    .expect("fresh");
            } else {
                let carry = format!("{out}$and");
                b.gate(&carry, GateKind::And, &[d.as_str(), diag.as_str()])
                    .expect("fresh");
                b.gate(&out, GateKind::Or, &[run.as_str(), carry.as_str()])
                    .expect("fresh");
            }
        }
    }
    (1..=kmax).map(|j| format!("thr${n}${j}")).collect()
}

/// An `n`-bit rotating register with majority-guarded parallel load:
/// when more than half the data bus is high the bus is loaded, otherwise
/// the register rotates by one position.
///
/// Reachable states are the all-zero reset plus every value with a
/// strict majority of ones (rotation preserves popcount, so the loaded
/// set is closed) — `1 + Σ_{j>n/2} C(n,j)` states in a 2–3 step
/// fix-point. The majority decode is a `O(n²)`-node pure-input cone
/// shared by all `n` next-state functions: the "wide decode" family.
///
/// # Panics
///
/// Panics if `n < 3` or `n > 24`.
#[must_use]
pub fn loadable_register(n: u32) -> Netlist {
    assert!(
        (3..=24).contains(&n),
        "loadable register supports 3..=24 bits"
    );
    let mut b = NetlistBuilder::new(format!("load{n}"));
    for i in 0..n {
        b.input(format!("d{i}")).expect("fresh");
    }
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), false)
            .expect("fresh");
    }
    let kmaj = n / 2 + 1;
    let th = threshold_network(&mut b, n, kmaj);
    b.gate("load", GateKind::Buf, &[th[kmaj as usize - 1].as_str()])
        .expect("fresh");
    for i in 0..n {
        let prev = format!("s{}", (i + n - 1) % n);
        b.mux(&format!("ns{i}"), "load", &format!("d{i}"), &prev);
    }
    b.output("load");
    b.finish().expect("loadable register is structurally valid")
}

/// An `n`-bit XOR accumulator with exact-popcount masking: the data bus
/// is folded into the register only when exactly `n/2` of its bits are
/// high, otherwise the state holds.
///
/// Reachable states are the span of the exact-`n/2` vectors over GF(2):
/// all `2^n` states when `n/2` is odd, the even-parity half (`2^{n-1}`)
/// when `n/2` is even. The exact-popcount decode (`th(k) ∧ ¬th(k+1)`) is
/// the same wide pure-input cone as [`loadable_register`] with an
/// accumulator-style update in place of the load mux.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 24`.
#[must_use]
pub fn masked_accumulator(n: u32) -> Netlist {
    assert!(
        (4..=24).contains(&n),
        "masked accumulator supports 4..=24 bits"
    );
    let mut b = NetlistBuilder::new(format!("mask{n}"));
    for i in 0..n {
        b.input(format!("d{i}")).expect("fresh");
    }
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), false)
            .expect("fresh");
    }
    let k = n / 2;
    let th = threshold_network(&mut b, n, k + 1);
    b.inv("nth$hi", th[k as usize].as_str());
    b.gate(
        "fire",
        GateKind::And,
        &[th[k as usize - 1].as_str(), "nth$hi"],
    )
    .expect("fresh");
    for i in 0..n {
        let mask = format!("m{i}");
        b.gate(&mask, GateKind::And, &[format!("d{i}").as_str(), "fire"])
            .expect("fresh");
        b.gate(
            format!("ns{i}"),
            GateKind::Xor,
            &[format!("s{i}").as_str(), mask.as_str()],
        )
        .expect("fresh");
    }
    b.output("fire");
    b.finish()
        .expect("masked accumulator is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::super::testutil::step;
    use super::*;

    #[test]
    fn loadable_register_loads_on_majority_and_rotates_otherwise() {
        let n = 8u32;
        let net = loadable_register(n);
        let mut st = net.initial_state();
        // Majority bus (5 of 8 high): loads the bus verbatim.
        let bus: Vec<bool> = (0..n).map(|i| i < 5).collect();
        st = step(&net, &st, &bus);
        assert_eq!(st, bus);
        // Minority bus: the register rotates by one instead.
        let idle = vec![false; n as usize];
        let rotated: Vec<bool> = (0..n as usize)
            .map(|i| bus[(i + n as usize - 1) % n as usize])
            .collect();
        st = step(&net, &st, &idle);
        assert_eq!(st, rotated);
    }

    #[test]
    fn masked_accumulator_folds_exact_popcount_only() {
        let n = 8u32;
        let net = masked_accumulator(n);
        let mut st = net.initial_state();
        // Exactly n/2 bits high: accumulated.
        let exact: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        st = step(&net, &st, &exact);
        assert_eq!(st, exact);
        // One bit over threshold: held.
        let over: Vec<bool> = (0..n).map(|i| i <= n / 2).collect();
        st = step(&net, &st, &over);
        assert_eq!(st, exact);
        // Folding the same mask again cancels back to zero.
        st = step(&net, &st, &exact);
        assert_eq!(st, net.initial_state());
    }
}
