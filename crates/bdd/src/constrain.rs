//! The generalized cofactor (`constrain`) and `restrict` operators.
//!
//! `constrain` is the operator of Coudert, Berthet and Madre used both for
//! range computation in the paper's Figure 1 flow and for the set
//! operations on McMillan's conjunctive decomposition (paper §2.7).
//! `restrict` is the don't-care minimization variant: it never enlarges the
//! support of `f` and usually shrinks the BDD. Both commute with
//! complementation in their first argument (`op(¬f, c) = ¬op(f, c)`), so
//! the recursion normalizes `f` to its regular edge and the cache serves
//! `f` and `¬f` from one entry.

use crate::manager::BddManager;
use crate::node::Bdd;
use crate::Result;

impl BddManager {
    /// Generalized cofactor `f ↓ c` (the BDD `constrain` operator).
    ///
    /// For every assignment `x` with `c(x) = 1`, `(f ↓ c)(x) = f(x)`;
    /// assignments outside `c` are mapped to the nearest assignment inside
    /// `c` under the variable-order-weighted distance. Consequently
    /// `f ∧ c = (f ↓ c) ∧ c`, and the *range* of a vector of constrained
    /// functions equals the image of the care set — the property the
    /// Coudert–Madre range computation relies on.
    ///
    /// ```
    /// use bfvr_bdd::{BddManager, Var};
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(2);
    /// let (a, b) = (m.var(Var(0)), m.var(Var(1)));
    /// // Inside the care set a=1, the function a∧b is just b.
    /// let f = m.and(a, b)?;
    /// assert_eq!(m.constrain(f, a)?, b);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant ⊥ (the generalized cofactor is
    /// undefined for an empty care set).
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        assert!(!c.is_false(), "constrain by empty care set");
        self.recover(&[f, c], |m| m.constrain_rec(f, c))
    }

    /// The memoized recursion behind [`BddManager::constrain`].
    fn constrain_rec(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        if c.is_true() || f.is_const() {
            return Ok(f);
        }
        if f == c {
            return Ok(Bdd::TRUE);
        }
        if f == c.complement() {
            return Ok(Bdd::FALSE);
        }
        // Normalize: constrain(¬f, c) = ¬constrain(f, c).
        if f.is_complemented() {
            let r = self.constrain_rec(f.complement(), c)?;
            return Ok(r.complement());
        }
        let key = [f.0, c.0, 0];
        if let Some(r) = self.caches.constrain.get(key) {
            return Ok(r);
        }
        let lvl = self.level(f).min(self.level(c));
        let (c0, c1) = self.cofactors_at(c, lvl);
        let (f0, f1) = self.cofactors_at(f, lvl);
        let r = if c1.is_false() {
            self.constrain_rec(f0, c0)?
        } else if c0.is_false() {
            self.constrain_rec(f1, c1)?
        } else {
            let r0 = self.constrain_rec(f0, c0)?;
            let r1 = self.constrain_rec(f1, c1)?;
            self.mk(lvl, r0, r1)?
        };
        let limit = self.caches.limit;
        self.caches.constrain.put(key, r, limit);
        Ok(r)
    }

    /// Don't-care minimization `restrict(f, c)`.
    ///
    /// Like [`BddManager::constrain`], satisfies `f ∧ c = restrict(f,c) ∧ c`,
    /// but additionally never introduces variables outside the support of
    /// `f`: when `f` does not depend on the top variable of `c`, that
    /// variable is smoothed out of `c` instead of being copied into the
    /// result.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant ⊥.
    pub fn restrict(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        assert!(!c.is_false(), "restrict by empty care set");
        self.recover(&[f, c], |m| m.restrict_rec(f, c))
    }

    /// The memoized recursion behind [`BddManager::restrict`].
    fn restrict_rec(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        if c.is_true() || f.is_const() {
            return Ok(f);
        }
        if f == c {
            return Ok(Bdd::TRUE);
        }
        if f == c.complement() {
            return Ok(Bdd::FALSE);
        }
        // Normalize: restrict(¬f, c) = ¬restrict(f, c).
        if f.is_complemented() {
            let r = self.restrict_rec(f.complement(), c)?;
            return Ok(r.complement());
        }
        let key = [f.0, c.0, 0];
        if let Some(r) = self.caches.restrict.get(key) {
            return Ok(r);
        }
        let lvl_f = self.level(f);
        let lvl_c = self.level(c);
        let r = if lvl_c < lvl_f {
            // f does not depend on c's top variable: smooth it away.
            let c0 = self.low(c);
            let c1 = self.high(c);
            let smoothed = self.or(c0, c1)?;
            self.restrict_rec(f, smoothed)?
        } else {
            let lvl = lvl_f;
            let (c0, c1) = self.cofactors_at(c, lvl);
            let f0 = self.low(f);
            let f1 = self.high(f);
            if c1.is_false() {
                self.restrict_rec(f0, c0)?
            } else if c0.is_false() {
                self.restrict_rec(f1, c1)?
            } else {
                let r0 = self.restrict_rec(f0, c0)?;
                let r1 = self.restrict_rec(f1, c1)?;
                self.mk(lvl, r0, r1)?
            }
        };
        let limit = self.caches.limit;
        self.caches.restrict.put(key, r, limit);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd, Bdd) {
        let m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let d = m.var(Var(3));
        (m, a, b, c, d)
    }

    /// The defining property: f ∧ c == op(f, c) ∧ c.
    fn check_care_agreement(m: &mut BddManager, f: Bdd, c: Bdd) {
        let g = m.constrain(f, c).unwrap();
        let lhs = m.and(f, c).unwrap();
        let rhs = m.and(g, c).unwrap();
        assert_eq!(lhs, rhs, "constrain violates care-set agreement");
        let g = m.restrict(f, c).unwrap();
        let rhs = m.and(g, c).unwrap();
        assert_eq!(lhs, rhs, "restrict violates care-set agreement");
    }

    #[test]
    fn identity_cases() {
        let (mut m, a, ..) = setup();
        assert_eq!(m.constrain(a, Bdd::TRUE).unwrap(), a);
        assert_eq!(m.restrict(a, Bdd::TRUE).unwrap(), a);
        assert_eq!(m.constrain(a, a).unwrap(), Bdd::TRUE);
        assert!(m.constrain(Bdd::FALSE, a).unwrap().is_false());
        let na = m.not(a);
        assert!(
            m.constrain(na, a).unwrap().is_false(),
            "f == ¬c is empty in the care set"
        );
        assert!(m.restrict(na, a).unwrap().is_false());
    }

    #[test]
    fn complement_commutes_with_constrain() {
        let (mut m, a, b, c, d) = setup();
        let ab = m.xor(a, b).unwrap();
        let f = m.or(ab, d).unwrap();
        let care = m.or(b, c).unwrap();
        let nf = m.not(f);
        let lhs = m.constrain(nf, care).unwrap();
        let pos = m.constrain(f, care).unwrap();
        assert_eq!(lhs, m.not(pos));
        let lhs = m.restrict(nf, care).unwrap();
        let pos = m.restrict(f, care).unwrap();
        assert_eq!(lhs, m.not(pos));
    }

    #[test]
    #[should_panic(expected = "empty care set")]
    fn constrain_by_false_panics() {
        let (mut m, a, ..) = setup();
        let _ = m.constrain(a, Bdd::FALSE);
    }

    #[test]
    fn care_agreement_on_assorted_functions() {
        let (mut m, a, b, c, d) = setup();
        let ab = m.xor(a, b).unwrap();
        let cd = m.and(c, d).unwrap();
        let f = m.or(ab, cd).unwrap();
        let bc = m.or(b, c).unwrap();
        let cares = [a, bc, cd, ab];
        for care in cares {
            check_care_agreement(&mut m, f, care);
        }
    }

    #[test]
    fn constrain_known_example() {
        // constrain(b, a) where order is a < b: outside a, the nearest
        // point with a=1 keeps b, so constrain(b, a) = b.
        let (mut m, a, b, ..) = setup();
        assert_eq!(m.constrain(b, a).unwrap(), b);
        // constrain(a∧b, a) = b: within a=1, f is b; mapping is var-wise.
        let ab = m.and(a, b).unwrap();
        assert_eq!(m.constrain(ab, a).unwrap(), b);
    }

    #[test]
    fn restrict_does_not_grow_support() {
        let (mut m, a, b, c, _) = setup();
        // f depends only on b; care set depends on a and c.
        let f = b;
        let ac = m.and(a, c).unwrap();
        let nb = m.not(b);
        let care = m.or(ac, nb).unwrap();
        let r = m.restrict(f, care).unwrap();
        let sup = m.support(r);
        assert!(!sup.contains(Var(0)), "restrict introduced a");
        assert!(!sup.contains(Var(2)), "restrict introduced c");
        // Whereas constrain may introduce them.
        check_care_agreement(&mut m, f, care);
    }

    #[test]
    fn restrict_simplifies_under_dont_cares() {
        let (mut m, a, b, ..) = setup();
        // f = a ∧ b; care set says a is always true: f simplifies to b.
        let f = m.and(a, b).unwrap();
        assert_eq!(m.restrict(f, a).unwrap(), b);
        assert_eq!(m.constrain(f, a).unwrap(), b);
    }

    #[test]
    fn constrain_is_identity_inside_care_set() {
        let (mut m, a, b, c, d) = setup();
        let xab = m.xor(a, b).unwrap();
        let f = m.or(xab, d).unwrap();
        let care = m.xnor(b, c).unwrap();
        let g = m.constrain(f, care).unwrap();
        // Check pointwise agreement on all assignments satisfying care.
        for x in 0u32..16 {
            let asg: Vec<bool> = (0..4).map(|i| (x >> (3 - i)) & 1 == 1).collect();
            if m.eval(care, &asg) {
                assert_eq!(m.eval(g, &asg), m.eval(f, &asg));
            }
        }
    }
}
