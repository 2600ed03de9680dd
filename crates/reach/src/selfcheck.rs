//! Per-iteration engine self-checks (the `audit` feature).
//!
//! With `--features audit`, [`crate::common::notify_iteration`] routes
//! every engine's iteration boundary through [`selfcheck_iteration`],
//! which runs the full [`bfvr_audit`] pass battery against the engine's
//! live set representation and panics on any [`bfvr_audit::Severity`]
//! `Error` finding — turning a silent representation bug into an
//! immediate, located failure at the iteration that introduced it.
//!
//! The audit's own scratch work must not be throttled by the engine's
//! resource budget (nor count against it): the manager's node limit and
//! deadline are suspended around the passes and restored afterwards. An
//! audit that still fails with a BDD error — possible only under injected
//! faults, which stay armed on purpose so sticky fault ordinals keep
//! their meaning — is *inconclusive* and skipped, never reported as a
//! finding.

use bfvr_audit::{run_passes, AuditTargets, Report};
use bfvr_bdd::BddManager;
use bfvr_sim::EncodedFsm;

use crate::common::IterationView;
use bfvr_setrepr::SetView;

/// Audits one iteration's set representation, panicking on any
/// `Severity::Error` finding. See the module docs for the
/// suspend/restore and inconclusive-skip semantics.
pub(crate) fn selfcheck_iteration(m: &mut BddManager, fsm: &EncodedFsm, view: &IterationView<'_>) {
    // Zonotope lanes over-approximate by design: the exactness invariants
    // the pass battery checks do not apply to them.
    if matches!(view.set, SetView::Zonotope { .. }) {
        return;
    }
    let space = fsm.space();
    let scope = format!(
        "{}/iter[{}]",
        crate::common::lane_label(view.engine, view.repr),
        view.iteration
    );
    let mut report = Report::new();
    let conclusive = m.with_limits_suspended(|m| {
        // Pin for a χ derived from a lane-private representation (ZDD):
        // keeps it alive — and leak-pass-exempt — across the passes'
        // collections.
        let _chi_guard;
        let targets = match view.set {
            SetView::Chi { reached, .. } => AuditTargets::for_chi(&space, reached),
            SetView::Vector { reached, .. } => AuditTargets::for_bfv(&space, reached),
            SetView::Cdec { reached, .. } => AuditTargets::for_cdec(&space, reached),
            SetView::Zdd { store, reached, .. } => {
                // Audit the lane through the production ZDD → χ converter.
                // A conversion failure is possible only under injected
                // faults: inconclusive, skip.
                let Ok(chi) = bfvr_bdd::bdd_from_zdd(m, store, reached, space.vars()) else {
                    return false;
                };
                _chi_guard = m.func(chi);
                // Sweep the conversion's scratch so the leak pass sees only
                // what the engine itself left live.
                let mut roots = view.roots.to_vec();
                roots.push(chi);
                m.collect_garbage(&roots);
                AuditTargets::for_chi(&space, chi)
            }
            SetView::Zonotope { .. } => unreachable!("handled above"),
        }
        .with_leak_roots(view.roots);
        let run = run_passes(m, &targets, &scope, &mut report);
        // The passes derive representations and build violation BDDs;
        // sweep that scratch work away so the self-check leaves the heap
        // exactly as the engine's own collection established it — a
        // later auditor (the observer, or the next iteration's leak
        // pass) must not see our garbage as the engine's leak.
        m.collect_garbage(view.roots);
        run.is_ok()
    });

    if conclusive {
        assert!(
            !report.has_errors(),
            "audit self-check failed at {scope}:\n{}",
            report.render()
        );
    }
}
