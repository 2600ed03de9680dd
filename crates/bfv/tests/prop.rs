//! Property tests: the BFV set algebra against the characteristic-function
//! oracle, on random sets and random parameterized vectors.
//!
//! Deterministic xorshift generation keeps the suite dependency-free; a
//! failing case is reproducible from the printed case number.

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_bfv::convert::{from_characteristic, to_characteristic};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{ops, Bfv, Conditions, Space, StateSet};

const N: usize = 4; // state bits
const P: usize = 2; // parameters of a parameterized operand
const CASES: u64 = 200;

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Non-empty 16-point set mask.
    fn mask(&mut self) -> u16 {
        let m = self.next() as u16;
        if m == 0 {
            1
        } else {
            m
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn for_cases(seed: u64, mut check: impl FnMut(u64, &mut Rng)) {
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

/// Builds the characteristic function of a set given as a 16-bit mask over
/// {0,1}^4 (bit k of the mask = membership of the point with value k,
/// reading component 0 as the MSB).
fn chi_of_mask(m: &mut BddManager, space: &Space, mask: u16) -> Bdd {
    let mut chi = Bdd::FALSE;
    for pt in 0..16u16 {
        if mask & (1 << pt) != 0 {
            let mut cube = Bdd::TRUE;
            #[allow(clippy::needless_range_loop)]
            for i in 0..N {
                let bit = (pt >> (N - 1 - i)) & 1 == 1;
                let v = space.var(i);
                let lit = if bit { m.var(v) } else { m.nvar(v) };
                cube = m.and(cube, lit).unwrap();
            }
            chi = m.or(chi, cube).unwrap();
        }
    }
    chi
}

fn set_of_mask(m: &mut BddManager, space: &Space, mask: u16) -> Option<Bfv> {
    let chi = chi_of_mask(m, space, mask);
    from_characteristic(m, space, chi).unwrap()
}

#[test]
fn union_matches_oracle() {
    for_cases(0xBF01, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let h = ops::union(&mut m, &space, &fa, &fb).unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &h).unwrap();
        let expect = chi_of_mask(&mut m, &space, a | b);
        assert_eq!(got, expect, "case {case}: {a:#06x} ∪ {b:#06x}");
    });
}

#[test]
fn intersect_matches_oracle() {
    for_cases(0xBF02, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let h = ops::intersect(&mut m, &space, &fa, &fb).unwrap();
        if a & b == 0 {
            assert!(h.is_none(), "case {case}");
        } else {
            let h = h.unwrap();
            assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
            let got = to_characteristic(&mut m, &space, &h).unwrap();
            let expect = chi_of_mask(&mut m, &space, a & b);
            assert_eq!(got, expect, "case {case}: {a:#06x} ∩ {b:#06x}");
        }
    });
}

#[test]
fn conversion_roundtrip_is_identity() {
    for_cases(0xBF03, |case, rng| {
        let a = rng.mask();
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        assert!(f.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let chi = to_characteristic(&mut m, &space, &f).unwrap();
        let g = from_characteristic(&mut m, &space, chi).unwrap().unwrap();
        assert_eq!(f.components(), g.components(), "case {case}");
    });
}

#[test]
fn union_associative_via_canonicity() {
    for_cases(0xBF04, |case, rng| {
        let (a, b, c) = (rng.mask(), rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let fc = set_of_mask(&mut m, &space, c).unwrap();
        let ab = ops::union(&mut m, &space, &fa, &fb).unwrap();
        let ab_c = ops::union(&mut m, &space, &ab, &fc).unwrap();
        let bc = ops::union(&mut m, &space, &fb, &fc).unwrap();
        let a_bc = ops::union(&mut m, &space, &fa, &bc).unwrap();
        assert_eq!(ab_c.components(), a_bc.components(), "case {case}");
    });
}

#[test]
fn quantification_matches_oracle() {
    for_cases(0xBF05, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let v = space.var(comp);
        // Oracle via characteristic functions.
        let chi = to_characteristic(&mut m, &space, &f).unwrap();
        let chi0 = m.cofactor(chi, v, false).unwrap();
        let chi1 = m.cofactor(chi, v, true).unwrap();
        let e = ops::exists(&mut m, &space, &f, v).unwrap();
        assert!(e.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &e).unwrap();
        let expect = m.or(chi0, chi1).unwrap();
        // ∃v F as a set = (F|v=0) ∪ (F|v=1): the oracle is the union of
        // the two cofactor sets.
        let f0 = ops::cofactor(&mut m, &space, &f, v, false).unwrap();
        let f1 = ops::cofactor(&mut m, &space, &f, v, true).unwrap();
        let c0 = to_characteristic(&mut m, &space, &f0).unwrap();
        let c1 = to_characteristic(&mut m, &space, &f1).unwrap();
        let set_expect = m.or(c0, c1).unwrap();
        assert_eq!(got, set_expect, "case {case}");
        // The smoothing view must contain the set view.
        let gap = m.diff(got, expect).unwrap();
        assert!(gap.is_false(), "case {case}");
    });
}

#[test]
fn forall_matches_cofactor_intersection() {
    for_cases(0xBF06, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let v = space.var(comp);
        let fa = ops::forall(&mut m, &space, &f, v).unwrap();
        let f0 = ops::cofactor(&mut m, &space, &f, v, false).unwrap();
        let f1 = ops::cofactor(&mut m, &space, &f, v, true).unwrap();
        let c0 = to_characteristic(&mut m, &space, &f0).unwrap();
        let c1 = to_characteristic(&mut m, &space, &f1).unwrap();
        let expect = m.and(c0, c1).unwrap();
        match fa {
            None => assert!(expect.is_false(), "case {case}"),
            Some(h) => {
                assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
                let got = to_characteristic(&mut m, &space, &h).unwrap();
                assert_eq!(got, expect, "case {case}");
            }
        }
    });
}

#[test]
fn cofactor_members_are_subset() {
    for_cases(0xBF07, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let val = rng.flip();
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let g = ops::cofactor(&mut m, &space, &f, space.var(comp), val).unwrap();
        assert!(g.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let sg = StateSet::NonEmpty(g);
        let sf = StateSet::NonEmpty(f);
        for mem in sg.members(&mut m, &space).unwrap() {
            assert!(sf.contains(&m, &space, &mem).unwrap(), "case {case}");
        }
    });
}

#[test]
fn reparam_matches_relational_image() {
    for_cases(0xBF08, |case, rng| {
        // Four random next-state functions of 4 parameters, given as
        // 16-entry truth tables. Oracle: χ_img(x) = ∃p. ⋀ x_i ↔ n_i(p).
        let tts = [
            rng.next() as u16,
            rng.next() as u16,
            rng.next() as u16,
            rng.next() as u16,
        ];
        let dynamic = rng.flip();
        let mut m = BddManager::new(8);
        let space = Space::contiguous(4);
        let params: Vec<Var> = (4..8).map(Var).collect();
        let mut comps = Vec::new();
        for tt in tts {
            // Build the function from its truth table over params.
            let mut f = Bdd::FALSE;
            for row in 0..16u16 {
                if tt & (1 << row) != 0 {
                    let mut cube = Bdd::TRUE;
                    for (j, &p) in params.iter().enumerate() {
                        let bit = (row >> (3 - j)) & 1 == 1;
                        let lit = if bit { m.var(p) } else { m.nvar(p) };
                        cube = m.and(cube, lit).unwrap();
                    }
                    f = m.or(f, cube).unwrap();
                }
            }
            comps.push(f);
        }
        let n = Bfv::from_components(&space, comps.clone()).unwrap();
        let sched = if dynamic {
            Schedule::DynamicSupport
        } else {
            Schedule::Fixed
        };
        let r = reparameterize_with(&mut m, &space, &n, &params, sched).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &r).unwrap();
        // Oracle.
        let mut rel = Bdd::TRUE;
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let xi = m.var(space.var(i));
            let eq = m.xnor(xi, comps[i]).unwrap();
            rel = m.and(rel, eq).unwrap();
        }
        let pcube = m.cube_from_vars(&params).unwrap();
        let expect = m.exists(rel, pcube).unwrap();
        assert_eq!(got, expect, "case {case}: tts {tts:?}");
    });
}

#[test]
fn permuted_component_order_still_canonical() {
    for_cases(0xBF09, |case, rng| {
        // The set algebra is correct for any component order over the
        // same variables (the future-work reordering experiments rely on
        // this).
        let a = rng.mask();
        let mut m = BddManager::new(N as u32);
        let mut perm: Vec<usize> = (0..N).collect();
        for i in (1..N).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let space = Space::contiguous(N as u32).permuted(&perm);
        let chi = chi_of_mask(&mut m, &Space::contiguous(N as u32), a);
        // chi is over vars 0..4 which are exactly the permuted space's
        // vars, just weighted differently.
        let f = from_characteristic(&mut m, &space, chi).unwrap().unwrap();
        assert!(f.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let back = to_characteristic(&mut m, &space, &f).unwrap();
        assert_eq!(back, chi, "case {case}");
        // Union in the permuted space matches the oracle too.
        let g = ops::union(&mut m, &space, &f, &f).unwrap();
        assert_eq!(g.components(), f.components(), "case {case}");
    });
}

/// The §2.3 union as three separate condition terms, an explicit
/// exclusion update and a reassembly from all three conditions: the
/// differential reference for the fused per-component step of
/// [`ops::union`].
fn reference_union(m: &mut BddManager, space: &Space, f: &Bfv, g: &Bfv) -> Bfv {
    /// `a·b ∨ a·bˣ ∨ aˣ·b`.
    fn three_way(m: &mut BddManager, a: Bdd, b: Bdd, ax: Bdd, bx: Bdd) -> Bdd {
        let t1 = m.and(a, b).unwrap();
        let t2 = m.and(a, bx).unwrap();
        let t3 = m.and(ax, b).unwrap();
        m.or_all(&[t1, t2, t3]).unwrap()
    }
    /// `x ∨ (x⁰ ∧ h) ∨ (x¹ ∧ ¬h)`.
    fn exclude(m: &mut BddManager, x: Bdd, c: Conditions, h: Bdd, nh: Bdd) -> Bdd {
        let z = m.and(c.zero, h).unwrap();
        let o = m.and(c.one, nh).unwrap();
        m.or_all(&[x, z, o]).unwrap()
    }
    let mut fx = Bdd::FALSE;
    let mut gx = Bdd::FALSE;
    let mut comps = Vec::with_capacity(space.len());
    for i in 0..space.len() {
        if fx.is_false() && gx.is_false() && f.component(i) == g.component(i) {
            comps.push(f.component(i));
            continue;
        }
        let cf = f.conditions(m, space, i).unwrap();
        let cg = g.conditions(m, space, i).unwrap();
        let h1 = three_way(m, cf.one, cg.one, fx, gx);
        let h0 = three_way(m, cf.zero, cg.zero, fx, gx);
        // h = one ∨ (choice ∧ v) with choice = ¬(one ∨ zero).
        let forced = m.or(h1, h0).unwrap();
        let choice = m.not(forced);
        let v = m.var(space.var(i));
        let cv = m.and(choice, v).unwrap();
        let h = m.or(h1, cv).unwrap();
        let nh = m.not(h);
        fx = exclude(m, fx, cf, h, nh);
        gx = exclude(m, gx, cg, h, nh);
        comps.push(h);
    }
    Bfv::from_components(space, comps).unwrap()
}

#[test]
fn union_matches_reference_formula_on_canonical_operands() {
    for_cases(0xBF0A, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let got = ops::union(&mut m, &space, &fa, &fb).unwrap();
        let want = reference_union(&mut m, &space, &fa, &fb);
        assert_eq!(
            got.components(),
            want.components(),
            "case {case}: {a:#06x} ∪ {b:#06x}"
        );
    });
}

/// Where the parameter variables sit in the BDD order relative to the
/// choice variables.
#[derive(Clone, Copy, Debug)]
enum ParamPlacement {
    Above,
    Below,
    Interleaved,
}

/// `(choice variables, parameter variables)` of a manager with `N` choice
/// and `P` parameter variables under `placement`.
fn placed_vars(placement: ParamPlacement) -> (Vec<Var>, Vec<Var>) {
    let all: Vec<Var> = (0..(N + P) as u32).map(Var).collect();
    match placement {
        ParamPlacement::Above => (all[P..].to_vec(), all[..P].to_vec()),
        ParamPlacement::Below => (all[..N].to_vec(), all[N..].to_vec()),
        // c p c p c c: parameters between the choice variables.
        ParamPlacement::Interleaved => (vec![all[0], all[2], all[4], all[5]], vec![all[1], all[3]]),
    }
}

/// A parameterized operand: for each of the `2^P` parameter assignments a
/// random non-empty set, combined as `⋁_p (p-cube ∧ F_p)` so that the
/// vector is canonical pointwise under the parameters. Returns the vector
/// and the per-assignment masks.
fn parameterized_operand(
    m: &mut BddManager,
    space: &Space,
    params: &[Var],
    rng: &mut Rng,
) -> (Bfv, Vec<u16>) {
    let mut comps = vec![Bdd::FALSE; N];
    let mut masks = Vec::new();
    for row in 0..1u32 << P {
        // A few assignments share one set, so the cofactors coincide in
        // some components and the union's fast path is taken too.
        let mask = match masks.last() {
            Some(&prev) if rng.below(4) == 0 => prev,
            _ => rng.mask(),
        };
        masks.push(mask);
        let f = set_of_mask(m, space, mask).unwrap();
        let cube = param_cube(m, params, row);
        for (i, c) in comps.iter_mut().enumerate() {
            let t = m.and(cube, f.component(i)).unwrap();
            *c = m.or(*c, t).unwrap();
        }
    }
    (Bfv::from_components(space, comps).unwrap(), masks)
}

/// The minterm of parameter assignment `row` (parameter 0 as the MSB).
fn param_cube(m: &mut BddManager, params: &[Var], row: u32) -> Bdd {
    let mut cube = Bdd::TRUE;
    for (j, &p) in params.iter().enumerate() {
        let bit = (row >> (params.len() - 1 - j)) & 1 == 1;
        let lit = if bit { m.var(p) } else { m.nvar(p) };
        cube = m.and(cube, lit).unwrap();
    }
    cube
}

#[test]
fn union_matches_reference_formula_on_parameterized_operands() {
    for placement in [
        ParamPlacement::Above,
        ParamPlacement::Below,
        ParamPlacement::Interleaved,
    ] {
        for_cases(0xBF0B, |case, rng| {
            let mut m = BddManager::new((N + P) as u32);
            let (choice, params) = placed_vars(placement);
            let space = Space::new(choice).unwrap();
            let (fa, ma) = parameterized_operand(&mut m, &space, &params, rng);
            let (fb, mb) = parameterized_operand(&mut m, &space, &params, rng);
            let got = ops::union(&mut m, &space, &fa, &fb).unwrap();
            let want = reference_union(&mut m, &space, &fa, &fb);
            assert_eq!(
                got.components(),
                want.components(),
                "{placement:?} case {case}"
            );
            // Pointwise under the parameters: each assignment's slice is
            // the canonical vector of the union of that assignment's sets.
            for row in 0..1u32 << P {
                let mut slice = got.clone();
                for (j, &p) in params.iter().enumerate() {
                    let bit = (row >> (P - 1 - j)) & 1 == 1;
                    slice = ops::cofactor(&mut m, &space, &slice, p, bit).unwrap();
                }
                let expect =
                    set_of_mask(&mut m, &space, ma[row as usize] | mb[row as usize]).unwrap();
                assert_eq!(
                    slice.components(),
                    expect.components(),
                    "{placement:?} case {case} row {row}"
                );
            }
        });
    }
}

/// Index of the cheapest parameter to eliminate next, recomputed from
/// scratch on every pick: every component's support, then, for each
/// remaining parameter, the dependent count and the dependents' shared
/// size, first index winning ties. The per-pick schedule
/// `reparameterize_with` replaced; its exact choices are the contract.
fn per_pick_cheapest(m: &BddManager, vec: &Bfv, remaining: &[Var]) -> usize {
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

/// §2.6 re-parameterization over public ops with the per-pick schedule.
fn per_pick_reparam(
    m: &mut BddManager,
    space: &Space,
    vec: &Bfv,
    params: &[Var],
    schedule: Schedule,
) -> Bfv {
    let mut current = vec.clone();
    let mut remaining = params.to_vec();
    while !remaining.is_empty() {
        let idx = match schedule {
            Schedule::Fixed => 0,
            Schedule::DynamicSupport => per_pick_cheapest(m, &current, &remaining),
        };
        let p = remaining.swap_remove(idx);
        if !current
            .components()
            .iter()
            .any(|&c| m.support(c).contains(p))
        {
            continue;
        }
        let f0 = ops::cofactor(m, space, &current, p, false).unwrap();
        let f1 = ops::cofactor(m, space, &current, p, true).unwrap();
        current = ops::union(m, space, &f0, &f1).unwrap();
    }
    current
}

/// A random parameterized vector over `params`: each component is a
/// small random DNF over a random subset of the parameters (possibly
/// none, so some parameters have no dependents and dependent counts
/// tie). Deterministic in `seed`, so two managers get identical graphs.
fn random_param_vector(m: &mut BddManager, space: &Space, params: &[Var], seed: u64) -> Bfv {
    let mut rng = Rng::new(seed);
    let mut comps = Vec::with_capacity(space.len());
    for _ in 0..space.len() {
        let subset: Vec<Var> = params
            .iter()
            .copied()
            .filter(|_| rng.below(3) == 0)
            .collect();
        let mut f = if rng.flip() { Bdd::FALSE } else { Bdd::TRUE };
        for _ in 0..rng.below(4) {
            let mut cube = Bdd::TRUE;
            for &p in &subset {
                let lit = match rng.below(3) {
                    0 => continue,
                    1 => m.var(p),
                    _ => m.nvar(p),
                };
                cube = m.and(cube, lit).unwrap();
            }
            f = if rng.flip() {
                m.or(f, cube).unwrap()
            } else {
                m.xor(f, cube).unwrap()
            };
        }
        comps.push(f);
    }
    Bfv::from_components(space, comps).unwrap()
}

#[test]
fn incremental_schedule_makes_the_per_pick_choices() {
    const PARAMS: u32 = 7;
    let mut dependent_picks = 0;
    for_cases(0xBF0C, |case, rng| {
        let seed = rng.next();
        let mut params: Vec<Var> = (N as u32..N as u32 + PARAMS).map(Var).collect();
        for i in (1..params.len()).rev() {
            params.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for schedule in [Schedule::DynamicSupport, Schedule::Fixed] {
            // Two managers built identically: node ids, counters and
            // cache contents agree before the call under test.
            let run = |incremental: bool| {
                let mut m = BddManager::new(N as u32 + PARAMS);
                let space = Space::contiguous(N as u32);
                let n = random_param_vector(&mut m, &space, &params, seed);
                let before = m.stats();
                let r = if incremental {
                    reparameterize_with(&mut m, &space, &n, &params, schedule).unwrap()
                } else {
                    per_pick_reparam(&mut m, &space, &n, &params, schedule)
                };
                let after = m.stats();
                let raw: Vec<u32> = r.components().iter().map(|c| c.index()).collect();
                (
                    raw,
                    after.mk_calls - before.mk_calls,
                    after.cache_lookups - before.cache_lookups,
                )
            };
            let (new, old) = (run(true), run(false));
            assert_eq!(
                new, old,
                "case {case} {schedule:?}: (components, mk, lookups)"
            );
            dependent_picks += u64::from(new.1 > 0);
        }
    });
    assert!(
        dependent_picks > 0,
        "no case eliminated a dependent parameter"
    );
}
