//! Explicit-state reachability: the oracle the expected-count table is
//! checked against. It shares no code with the symbolic lanes: gates
//! are evaluated on 64-bit words, one input assignment per bit lane,
//! and reached states are kept in a hash set.

use std::collections::HashSet;

use bfvr_netlist::{topo, GateKind, Netlist};

/// Word `b` holds, in bit lane `i`, bit `b` of `i`: lanes enumerate the
/// low six input bits.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

fn eval_word(kind: &GateKind, ins: &[u64]) -> u64 {
    match kind {
        GateKind::And => ins.iter().fold(!0, |a, &b| a & b),
        GateKind::Or => ins.iter().fold(0, |a, &b| a | b),
        GateKind::Nand => !ins.iter().fold(!0, |a, &b| a & b),
        GateKind::Nor => !ins.iter().fold(0, |a, &b| a | b),
        GateKind::Not => !ins[0],
        GateKind::Buf => ins[0],
        GateKind::Xor => ins.iter().fold(0, |a, &b| a ^ b),
        GateKind::Xnor => !ins.iter().fold(0, |a, &b| a ^ b),
        GateKind::Const0 => 0,
        GateKind::Const1 => !0,
        GateKind::Cover(rows) => rows.iter().fold(0, |acc, row| {
            acc | row.iter().zip(ins).fold(!0, |a, (lit, &v)| match lit {
                Some(true) => a & v,
                Some(false) => a & !v,
                None => a,
            })
        }),
    }
}

/// Counts the states reachable from the reset state by breadth-first
/// search over every input assignment.
///
/// # Errors
///
/// Fails on a combinational cycle, or on more than 64 latches or 30
/// inputs (beyond what this oracle enumerates).
pub fn count_reachable(net: &Netlist) -> Result<u64, String> {
    let order = topo::order(net).map_err(|e| e.to_string())?;
    let latches = net.latches();
    let inputs = net.inputs();
    if latches.len() > 64 || inputs.len() > 30 {
        return Err(format!(
            "{}: too large to enumerate ({} latches, {} inputs)",
            net.name(),
            latches.len(),
            inputs.len()
        ));
    }
    let lanes = 1usize << inputs.len().min(6);
    let chunks = 1u64 << inputs.len().saturating_sub(6);
    let mut values = vec![0u64; net.num_signals()];
    let mut fanin = Vec::new();
    let reset = net
        .initial_state()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (k, &b)| acc | (u64::from(b) << k));
    let mut seen = HashSet::from([reset]);
    let mut frontier = vec![reset];
    while let Some(state) = frontier.pop() {
        for chunk in 0..chunks {
            for (k, l) in latches.iter().enumerate() {
                values[l.output.index()] = if state >> k & 1 == 1 { !0 } else { 0 };
            }
            for (b, inp) in inputs.iter().enumerate() {
                values[inp.index()] = match LANE_BITS.get(b) {
                    Some(&w) => w,
                    None if chunk >> (b - 6) & 1 == 1 => !0,
                    None => 0,
                };
            }
            for &g in &order {
                let gate = &net.gates()[g];
                fanin.clear();
                fanin.extend(gate.inputs.iter().map(|s| values[s.index()]));
                values[gate.output.index()] = eval_word(&gate.kind, &fanin);
            }
            for lane in 0..lanes {
                let next = latches.iter().enumerate().fold(0u64, |acc, (k, l)| {
                    acc | ((values[l.input.index()] >> lane & 1) << k)
                });
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
    }
    Ok(seen.len() as u64)
}
