//! Re-parameterization: canonicalizing a parameterized vector (§2.6).
//!
//! Symbolic simulation produces a vector `N = (n_1, …, n_k)` whose
//! components are functions of *parameters* — the input variables and the
//! choice variables of the current state set — rather than of the output
//! space's choice variables. For every assignment of the parameters, `N`
//! denotes a single point, so `N` is a *parameterized family* of
//! (trivially canonical) singleton vectors whose union over all parameter
//! assignments is the image set.
//!
//! Because the union of §2.3 is pointwise under parameters, existentially
//! quantifying one parameter `p` is a single vector-level operation,
//! `N|p=0 ∪ N|p=1` — no recursive splitting into exponentially many leaves
//! (the paper: "since we have a union algorithm, we do not necessarily
//! have to split recursively"). Eliminating every parameter yields the
//! canonical vector of the image.
//!
//! The order in which parameters are eliminated matters for intermediate
//! BDD sizes. The paper uses "a dynamic quantification schedule based on a
//! simple support based cost heuristic"; both that and a fixed schedule
//! are provided (the ablation bench compares them).

use bfvr_bdd::{Bdd, BddManager, Support, Var};

use crate::ops;
use crate::vector::Bfv;
use crate::{Result, Space};

/// Parameter-elimination order for [`reparameterize_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Eliminate parameters in the order given.
    Fixed,
    /// At each step eliminate the parameter on which the fewest components
    /// depend, breaking ties by total size of the dependent components —
    /// the paper's dynamic support-based cost heuristic (§3).
    #[default]
    DynamicSupport,
}

/// Canonicalizes `vec` by existentially quantifying out all `params`,
/// using the default dynamic schedule.
///
/// ```
/// use bfvr_bdd::{BddManager, Var};
/// use bfvr_bfv::{reparam, Bfv, Space, StateSet};
///
/// # fn main() -> Result<(), bfvr_bfv::BfvError> {
/// // Two output bits driven by one parameter p (variable 2):
/// // N = (p, ¬p) has image {01, 10}.
/// let mut m = BddManager::new(3);
/// let space = Space::contiguous(2);
/// let p = m.var(Var(2));
/// let np = m.not(p);
/// let n = Bfv::from_components(&space, vec![p, np])?;
/// let image = reparam::reparameterize(&mut m, &space, &n, &[Var(2)])?;
/// let set = StateSet::NonEmpty(image);
/// assert_eq!(set.len(&mut m, &space)?, 2);
/// assert!(set.contains(&m, &space, &[false, true])?);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn reparameterize(m: &mut BddManager, space: &Space, vec: &Bfv, params: &[Var]) -> Result<Bfv> {
    reparameterize_with(m, space, vec, params, Schedule::DynamicSupport)
}

/// Canonicalizes `vec` by existentially quantifying out all `params` in
/// the order chosen by `schedule`.
///
/// After the call, the result is the canonical vector (over the space's
/// choice variables) of `{ N(p) : p any parameter assignment }` — the set
/// union over the parameterized family.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn reparameterize_with(
    m: &mut BddManager,
    space: &Space,
    vec: &Bfv,
    params: &[Var],
    schedule: Schedule,
) -> Result<Bfv> {
    let mut current = vec.clone();
    let mut remaining: Vec<Var> = params.to_vec();
    let mut deps = Dependents::new(m, &current);
    while !remaining.is_empty() {
        let idx = match schedule {
            Schedule::Fixed => 0,
            Schedule::DynamicSupport => deps.cheapest(m, &remaining),
        };
        let p = remaining.swap_remove(idx);
        // Support check: a parameter no component depends on is free.
        if deps.count(p) == 0 {
            continue;
        }
        let f0 = ops::cofactor(m, space, &current, p, false)?;
        let f1 = ops::cofactor(m, space, &current, p, true)?;
        current = ops::union(m, space, &f0, &f1)?;
        deps.refresh(m, &current);
    }
    Ok(current)
}

/// The supports of the current vector's components and, per variable,
/// how many components depend on it. Built once and refreshed after each
/// union step — only for the components that step changed — so a pick
/// costs no support scan.
struct Dependents {
    /// The components the supports describe.
    comps: Vec<Bdd>,
    supports: Vec<Support>,
    /// Dependent-component count, indexed by variable.
    counts: Vec<u32>,
}

impl Dependents {
    fn new(m: &BddManager, vec: &Bfv) -> Self {
        let mut counts = vec![0; m.num_vars() as usize];
        let supports: Vec<Support> = vec.components().iter().map(|&c| m.support(c)).collect();
        for sup in &supports {
            tally(&mut counts, sup, true);
        }
        Dependents {
            comps: vec.components().to_vec(),
            supports,
            counts,
        }
    }

    /// Re-derives the supports of the components of `vec` that differ
    /// from the ones last seen.
    fn refresh(&mut self, m: &BddManager, vec: &Bfv) {
        for (j, &c) in vec.components().iter().enumerate() {
            if self.comps[j] != c {
                let sup = m.support(c);
                tally(&mut self.counts, &self.supports[j], false);
                tally(&mut self.counts, &sup, true);
                self.supports[j] = sup;
                self.comps[j] = c;
            }
        }
    }

    fn count(&self, p: Var) -> u32 {
        self.counts.get(p.0 as usize).copied().unwrap_or(0)
    }

    /// Index in `remaining` of the cheapest parameter to eliminate next:
    /// the fewest dependent components, ties broken by the smallest shared
    /// size of those components, then by the first index. A parameter
    /// nothing depends on wins outright; sizes are measured only for the
    /// candidates tied at the minimal count.
    fn cheapest(&self, m: &BddManager, remaining: &[Var]) -> usize {
        let min = remaining.iter().map(|&p| self.count(p)).min().unwrap_or(0);
        let mut tied = (0..remaining.len())
            .filter(|&i| self.count(remaining[i]) == min)
            .peekable();
        let first = tied.next().unwrap_or(0);
        if min == 0 || tied.peek().is_none() {
            return first;
        }
        let mut best = (self.shared_size(m, remaining[first]), first);
        for i in tied {
            let size = self.shared_size(m, remaining[i]);
            if size < best.0 {
                best = (size, i);
            }
        }
        best.1
    }

    /// Shared node count of the components that depend on `p`.
    fn shared_size(&self, m: &BddManager, p: Var) -> usize {
        let roots: Vec<Bdd> = (0..self.comps.len())
            .filter(|&j| self.supports[j].contains(p))
            .map(|j| self.comps[j])
            .collect();
        m.shared_size(&roots)
    }
}

/// Adds (or removes) one dependent component for every variable of `sup`.
fn tally(counts: &mut [u32], sup: &Support, add: bool) {
    for v in sup.vars() {
        let n = &mut counts[v.0 as usize];
        if add {
            *n += 1;
        } else {
            *n -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::to_characteristic;
    use crate::StateSet;

    /// Output space on vars 0..2, parameters on vars 3..5.
    fn setup() -> (BddManager, Space, [Var; 3]) {
        let m = BddManager::new(6);
        let space = Space::contiguous(3);
        (m, space, [Var(3), Var(4), Var(5)])
    }

    #[test]
    fn identity_image_of_universe() {
        // N_i = p_i: the image over all parameter values is the universe.
        let (mut m, space, ps) = setup();
        let comps = ps.iter().map(|&p| m.var(p)).collect();
        let n = Bfv::from_components(&space, comps).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let u = StateSet::universe(&m, &space).unwrap();
        assert_eq!(r.components(), u.as_bfv().unwrap().components());
    }

    #[test]
    fn constant_vector_gives_singleton() {
        let (mut m, space, ps) = setup();
        let n = Bfv::from_components(&space, vec![Bdd::TRUE, Bdd::FALSE, Bdd::TRUE]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert_eq!(r.components(), &[Bdd::TRUE, Bdd::FALSE, Bdd::TRUE]);
    }

    #[test]
    fn dependent_bits_image() {
        // N = (p0, p0, ¬p0): image = {110, 001}.
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let np0 = m.not(p0);
        let n = Bfv::from_components(&space, vec![p0, p0, np0]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(r);
        let members = s.members(&mut m, &space).unwrap();
        assert_eq!(
            members,
            vec![vec![false, false, true], vec![true, true, false]]
        );
    }

    #[test]
    fn schedules_agree() {
        // Image of a nontrivial function of 3 params under both schedules
        // must be identical (canonicity ⇒ unique representation).
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let p1 = m.var(ps[1]);
        let p2 = m.var(ps[2]);
        let a = m.xor(p0, p1).unwrap();
        let b = m.and(p1, p2).unwrap();
        let c = m.or(p0, p2).unwrap();
        let n = Bfv::from_components(&space, vec![a, b, c]).unwrap();
        let rd = reparameterize_with(&mut m, &space, &n, &ps, Schedule::DynamicSupport).unwrap();
        let rf = reparameterize_with(&mut m, &space, &n, &ps, Schedule::Fixed).unwrap();
        assert_eq!(rd.components(), rf.components());
        assert!(rd.is_canonical(&mut m, &space).unwrap());
    }

    #[test]
    fn matches_characteristic_image_oracle() {
        // Oracle: image χ(x) = ∃p. ⋀_i (x_i ↔ n_i(p)).
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let p1 = m.var(ps[1]);
        let x = m.xor(p0, p1).unwrap();
        let o = m.or(p0, p1).unwrap();
        let a = m.and(p0, p1).unwrap();
        let n = Bfv::from_components(&space, vec![x, o, a]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let got = to_characteristic(&mut m, &space, &r).unwrap();
        // Oracle.
        let mut rel = Bdd::TRUE;
        for i in 0..3 {
            let xi = m.var(space.var(i));
            let eq = m.xnor(xi, n.component(i)).unwrap();
            rel = m.and(rel, eq).unwrap();
        }
        let pcube = m.cube_from_vars(&ps).unwrap();
        let expect = m.exists(rel, pcube).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn mixed_params_and_choice_vars() {
        // Components already partially canonical (depend on v_0) plus a
        // parameter: quantify only the parameter.
        let (mut m, space, ps) = setup();
        let v0 = m.var(space.var(0));
        let p0 = m.var(ps[0]);
        let f1 = v0;
        let f2 = m.xor(v0, p0).unwrap(); // hmm: not canonical per-point? it is: f2 depends on params + v0
        let f3 = Bdd::FALSE;
        let n = Bfv::from_components(&space, vec![f1, f2, f3]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &[ps[0]]).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        // For p0 = 0: (v0, v0, 0) = {000, 110}; for p0 = 1: (v0, ¬v0, 0)
        // = {010, 100}; union = {000, 010, 100, 110} = bit3 = 0.
        let s = StateSet::NonEmpty(r);
        assert_eq!(s.len(&mut m, &space).unwrap(), 4);
        assert!(s.contains(&m, &space, &[true, false, false]).unwrap());
        assert!(!s.contains(&m, &space, &[true, false, true]).unwrap());
    }
}
