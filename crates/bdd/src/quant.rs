//! Quantification: `∃`, `∀` and the relational product (and-exists).
//!
//! Variable sets are passed as *positive cubes* — conjunctions of the
//! variables to quantify — the conventional CUDD interface. Cubes compose
//! naturally with the recursion (skip cube variables above the operand's
//! top) and give the computed cache a ready-made key. Under complement
//! edges, `∀` needs no cache or recursion of its own: it is
//! `¬∃ cube. ¬f` with both negations free.

use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::{BddError, Result};

impl BddManager {
    /// Builds the positive cube `⋀ vars` used to name a quantification set.
    ///
    /// Duplicate variables are fine (idempotent conjunction).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion or if a variable is out of range.
    pub fn cube_from_vars(&mut self, vars: &[Var]) -> Result<Bdd> {
        // Resolve variables to their *current* levels first: the cube's
        // node chain must be sorted by the active order, which a dynamic
        // reorder may have permuted away from variable numbering.
        let mut levels = Vec::with_capacity(vars.len());
        for &v in vars {
            if v.0 >= self.num_vars() {
                return Err(BddError::VarOutOfRange {
                    var: v.0,
                    num_vars: self.num_vars(),
                });
            }
            levels.push(self.var_to_level(v));
        }
        levels.sort_unstable();
        levels.dedup();
        self.recover(&[], |m| {
            // Build bottom-up so each mk respects the order invariant.
            let mut cube = Bdd::TRUE;
            for &lvl in levels.iter().rev() {
                cube = m.mk(lvl, Bdd::FALSE, cube)?;
            }
            Ok(cube)
        })
    }

    /// The variables of a positive cube, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `cube` is not a positive cube (some low edge not ⊥).
    pub fn cube_vars(&self, cube: Bdd) -> Vec<Var> {
        let mut vars = Vec::new();
        let mut c = cube;
        while !c.is_const() {
            assert!(self.low(c).is_false(), "not a positive cube");
            vars.push(self.top_var(c));
            c = self.high(c);
        }
        assert!(c.is_true(), "not a positive cube");
        vars
    }

    /// Existential quantification `∃ cube. f` (set smoothing).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Result<Bdd> {
        self.recover(&[f, cube], |m| m.exists_rec(f, cube))
    }

    /// The memoized smoothing recursion behind [`BddManager::exists`].
    fn exists_rec(&mut self, f: Bdd, cube: Bdd) -> Result<Bdd> {
        if f.is_const() || cube.is_true() {
            return Ok(f);
        }
        // Drop cube variables above f's top.
        let mut cube = cube;
        while !cube.is_const() && self.level(cube) < self.level(f) {
            cube = self.high(cube);
        }
        if cube.is_true() {
            return Ok(f);
        }
        let key = [f.0, cube.0, 0];
        if let Some(r) = self.caches.exists.get(key) {
            return Ok(r);
        }
        let lvl = self.level(f);
        let (f0, f1) = self.cofactors_at(f, lvl);
        let r = if self.level(cube) == lvl {
            let rest = self.high(cube);
            let e0 = self.exists_rec(f0, rest)?;
            if e0.is_true() {
                e0
            } else {
                let e1 = self.exists_rec(f1, rest)?;
                self.or(e0, e1)?
            }
        } else {
            let e0 = self.exists_rec(f0, cube)?;
            let e1 = self.exists_rec(f1, cube)?;
            self.mk(lvl, e0, e1)?
        };
        let limit = self.caches.limit;
        self.caches.exists.put(key, r, limit);
        Ok(r)
    }

    /// Universal quantification `∀ cube. f` (set consensus), computed as
    /// the complement-edge dual `¬∃ cube. ¬f` — it shares the `exists`
    /// cache and costs two free bit flips on top of the smoothing.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Result<Bdd> {
        let nf = self.not(f);
        let e = self.exists(nf, cube)?;
        Ok(self.not(e))
    }

    /// Relational product `∃ cube. (f ∧ g)` without building `f ∧ g`.
    ///
    /// This is the workhorse of characteristic-function image computation
    /// (the partitioned-transition-relation engines in `bfvr-reach`).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Result<Bdd> {
        self.recover(&[f, g, cube], |m| m.and_exists_rec(f, g, cube))
    }

    /// The memoized relational-product recursion behind
    /// [`BddManager::and_exists`].
    fn and_exists_rec(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Result<Bdd> {
        if f.is_false() || g.is_false() || f == g.complement() {
            return Ok(Bdd::FALSE);
        }
        if f.is_true() && g.is_true() {
            return Ok(Bdd::TRUE);
        }
        if f.is_true() {
            return self.exists_rec(g, cube);
        }
        if g.is_true() || f == g {
            return self.exists_rec(f, cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        let top = self.level(f).min(self.level(g));
        let mut cube = cube;
        while !cube.is_const() && self.level(cube) < top {
            cube = self.high(cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        // Normalize operand order for cache symmetry.
        let (f, g) = if f.index() <= g.index() {
            (f, g)
        } else {
            (g, f)
        };
        let key = [f.0, g.0, cube.0];
        if let Some(r) = self.caches.and_exists.get(key) {
            return Ok(r);
        }
        let lvl = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, lvl);
        let (g0, g1) = self.cofactors_at(g, lvl);
        let r = if self.level(cube) == lvl {
            let rest = self.high(cube);
            let r0 = self.and_exists_rec(f0, g0, rest)?;
            if r0.is_true() {
                r0
            } else {
                let r1 = self.and_exists_rec(f1, g1, rest)?;
                self.or(r0, r1)?
            }
        } else {
            let r0 = self.and_exists_rec(f0, g0, cube)?;
            let r1 = self.and_exists_rec(f1, g1, cube)?;
            self.mk(lvl, r0, r1)?
        };
        let limit = self.caches.limit;
        self.caches.and_exists.put(key, r, limit);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd, Bdd) {
        let m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let d = m.var(Var(3));
        (m, a, b, c, d)
    }

    #[test]
    fn cube_roundtrip() {
        let (mut m, ..) = setup();
        let cube = m.cube_from_vars(&[Var(2), Var(0), Var(2)]).unwrap();
        assert_eq!(m.cube_vars(cube), vec![Var(0), Var(2)]);
        assert!(m.cube_from_vars(&[]).unwrap().is_true());
    }

    #[test]
    fn cube_out_of_range() {
        let (mut m, ..) = setup();
        let err = m.cube_from_vars(&[Var(9)]).unwrap_err();
        assert_eq!(
            err,
            BddError::VarOutOfRange {
                var: 9,
                num_vars: 4
            }
        );
        // The failure leaves the manager structurally sound and usable.
        m.check_invariants().unwrap();
        let ok = m.cube_from_vars(&[Var(1), Var(3)]).unwrap();
        assert_eq!(m.cube_vars(ok), vec![Var(1), Var(3)]);
    }

    #[test]
    fn exists_removes_dependence() {
        let (mut m, a, b, _, _) = setup();
        let f = m.and(a, b).unwrap();
        let cube = m.cube_from_vars(&[Var(0)]).unwrap();
        let e = m.exists(f, cube).unwrap();
        assert_eq!(e, b);
        let all = m.cube_from_vars(&[Var(0), Var(1)]).unwrap();
        assert!(m.exists(f, all).unwrap().is_true());
    }

    #[test]
    fn forall_is_consensus() {
        let (mut m, a, b, _, _) = setup();
        let f = m.or(a, b).unwrap();
        let cube = m.cube_from_vars(&[Var(0)]).unwrap();
        // ∀a. a∨b = b
        assert_eq!(m.forall(f, cube).unwrap(), b);
        let g = m.and(a, b).unwrap();
        // ∀a. a∧b = 0
        assert!(m.forall(g, cube).unwrap().is_false());
    }

    #[test]
    fn duality_of_quantifiers() {
        let (mut m, a, b, c, _) = setup();
        let ab = m.xor(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let cube = m.cube_from_vars(&[Var(1), Var(2)]).unwrap();
        // ∀x. f  ==  ¬∃x. ¬f
        let lhs = m.forall(f, cube).unwrap();
        let nf = m.not(f);
        let e = m.exists(nf, cube).unwrap();
        let rhs = m.not(e);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn and_exists_matches_two_step() {
        let (mut m, a, b, c, d) = setup();
        let f = m.xor(a, b).unwrap();
        let gcd = m.and(c, d).unwrap();
        let g = m.or(b, gcd).unwrap();
        let cube = m.cube_from_vars(&[Var(1), Var(3)]).unwrap();
        let direct = m.and_exists(f, g, cube).unwrap();
        let fg = m.and(f, g).unwrap();
        let two_step = m.exists(fg, cube).unwrap();
        assert_eq!(direct, two_step);
    }

    #[test]
    fn and_exists_terminal_cases() {
        let (mut m, a, b, _, _) = setup();
        let cube = m.cube_from_vars(&[Var(0)]).unwrap();
        assert!(m.and_exists(Bdd::FALSE, a, cube).unwrap().is_false());
        assert!(m.and_exists(a, Bdd::TRUE, cube).unwrap().is_true());
        let na = m.not(a);
        assert!(
            m.and_exists(a, na, cube).unwrap().is_false(),
            "f ∧ ¬f is empty"
        );
        let e = m.and_exists(a, b, Bdd::TRUE).unwrap();
        let ab = m.and(a, b).unwrap();
        assert_eq!(e, ab);
    }

    #[test]
    fn quantifying_absent_variable_is_identity() {
        let (mut m, a, b, _, _) = setup();
        let f = m.and(a, b).unwrap();
        let cube = m.cube_from_vars(&[Var(3)]).unwrap();
        assert_eq!(m.exists(f, cube).unwrap(), f);
        assert_eq!(m.forall(f, cube).unwrap(), f);
    }

    #[test]
    fn exists_distributes_over_or() {
        let (mut m, a, b, c, _) = setup();
        let f = m.and(a, b).unwrap();
        let g = m.and(a, c).unwrap();
        let cube = m.cube_from_vars(&[Var(0)]).unwrap();
        let fog = m.or(f, g).unwrap();
        let lhs = m.exists(fog, cube).unwrap();
        let ef = m.exists(f, cube).unwrap();
        let eg = m.exists(g, cube).unwrap();
        let rhs = m.or(ef, eg).unwrap();
        assert_eq!(lhs, rhs);
    }
}
