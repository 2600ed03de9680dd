//! The two per-component kernels of the paper's §2.3 union.
//!
//! A union step over Boolean functional vectors builds, per component,
//! two *forced conditions* and two *exclusion updates* (see
//! `bfvr_bfv::ops::union`). Composed from `ite`/`and`/`or`, each of them
//! costs two or three separate recursions and materializes intermediate
//! functions that are used once. Here each is one memoized four-operand
//! recursion: it splits all four operands at their top level, recurses
//! on both halves and ends in a single `mk` per node, so the
//! intermediates are never built. Once an operand turns constant the
//! remaining work is a plain connective, handed to the ITE core.
//!
//! Both kernels compute exactly the Boolean function of the composed
//! formula, so their results are the same canonical BDDs.

use crate::manager::BddManager;
use crate::node::Bdd;
use crate::Result;

impl BddManager {
    /// One forced condition of the §2.3 union,
    /// `ite(a, b ∨ bˣ, aˣ ∧ b)` — equivalently `a·b ∨ a·bˣ ∨ aˣ·b`: the
    /// bit is forced when both operands force it, or when one forces it
    /// and the other is excluded.
    ///
    /// ```
    /// use bfvr_bdd::{BddManager, Var};
    ///
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(4);
    /// let (a, b, ax, bx) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)), m.var(Var(3)));
    /// let hi = m.or(b, bx)?;
    /// let lo = m.and(ax, b)?;
    /// let composed = m.ite(a, hi, lo)?;
    /// assert_eq!(m.union_forced(a, b, ax, bx)?, composed);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn union_forced(&mut self, a: Bdd, b: Bdd, ax: Bdd, bx: Bdd) -> Result<Bdd> {
        self.recover(&[a, b, ax, bx], |m| m.union_forced_rec(a, b, ax, bx))
    }

    fn union_forced_rec(&mut self, a: Bdd, b: Bdd, ax: Bdd, bx: Bdd) -> Result<Bdd> {
        if a.is_true() {
            return self.ite_rec(b, Bdd::TRUE, bx); // b ∨ bˣ
        }
        if a.is_false() {
            return self.ite_rec(ax, b, Bdd::FALSE); // aˣ ∧ b
        }
        if b.is_false() {
            return self.ite_rec(a, bx, Bdd::FALSE); // a ∧ bˣ
        }
        if b.is_true() {
            return self.ite_rec(a, Bdd::TRUE, ax); // a ∨ aˣ
        }
        if ax.is_false() && bx.is_false() {
            return self.ite_rec(a, b, Bdd::FALSE); // a ∧ b
        }
        if a == b {
            return Ok(a); // a ∨ a·bˣ ∨ aˣ·a
        }
        if a == b.complement() {
            return self.ite_rec(a, bx, ax); // a·bˣ ∨ ¬a·aˣ
        }
        let key = [a.0, b.0, ax.0, bx.0];
        if let Some(r) = self.caches.union_forced.get(key) {
            return Ok(r);
        }
        let (av, al, ah) = self.expand(a);
        let (bv, bl, bh) = self.expand(b);
        let (axv, axl, axh) = self.expand(ax);
        let (bxv, bxl, bxh) = self.expand(bx);
        let lvl = av.min(bv).min(axv).min(bxv);
        let split = |v: u32, f: Bdd, lo: Bdd, hi: Bdd| if v == lvl { (lo, hi) } else { (f, f) };
        let (a0, a1) = split(av, a, al, ah);
        let (b0, b1) = split(bv, b, bl, bh);
        let (ax0, ax1) = split(axv, ax, axl, axh);
        let (bx0, bx1) = split(bxv, bx, bxl, bxh);
        let t = self.union_forced_rec(a1, b1, ax1, bx1)?;
        let e = self.union_forced_rec(a0, b0, ax0, bx0)?;
        let r = self.mk(lvl, e, t)?;
        let limit = self.caches.limit;
        self.caches.union_forced.put(key, r, limit);
        Ok(r)
    }

    /// One exclusion update of the §2.3 union, `x ∨ ite(h, x⁰, x¹)`: an
    /// operand becomes excluded once the selected bit `h` contradicts
    /// the value it forces (`x¹` forces a one, `x⁰` a zero).
    ///
    /// ```
    /// use bfvr_bdd::{BddManager, Var};
    ///
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(4);
    /// let (x, h, x0, x1) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)), m.var(Var(3)));
    /// let d = m.ite(h, x0, x1)?;
    /// let composed = m.or(x, d)?;
    /// assert_eq!(m.union_exclude(x, h, x0, x1)?, composed);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn union_exclude(&mut self, x: Bdd, h: Bdd, x0: Bdd, x1: Bdd) -> Result<Bdd> {
        self.recover(&[x, h, x0, x1], |m| m.union_exclude_rec(x, h, x0, x1))
    }

    fn union_exclude_rec(&mut self, x: Bdd, h: Bdd, x0: Bdd, x1: Bdd) -> Result<Bdd> {
        if x.is_true() {
            return Ok(Bdd::TRUE);
        }
        if x.is_false() {
            return self.ite_rec(h, x0, x1);
        }
        if h.is_true() || x0 == x1 {
            return self.ite_rec(x, Bdd::TRUE, x0); // x ∨ x⁰
        }
        if h.is_false() {
            return self.ite_rec(x, Bdd::TRUE, x1); // x ∨ x¹
        }
        // A regular selector: ite(¬h, x⁰, x¹) = ite(h, x¹, x⁰), so h and
        // ¬h share one cache entry.
        let (h, x0, x1) = if h.is_complemented() {
            (h.complement(), x1, x0)
        } else {
            (h, x0, x1)
        };
        let key = [x.0, h.0, x0.0, x1.0];
        if let Some(r) = self.caches.union_exclude.get(key) {
            return Ok(r);
        }
        let (xv, xl, xh) = self.expand(x);
        let (hv, hl, hh) = self.expand(h);
        let (x0v, x0l, x0h) = self.expand(x0);
        let (x1v, x1l, x1h) = self.expand(x1);
        let lvl = xv.min(hv).min(x0v).min(x1v);
        let split = |v: u32, f: Bdd, lo: Bdd, hi: Bdd| if v == lvl { (lo, hi) } else { (f, f) };
        let (xe, xt) = split(xv, x, xl, xh);
        let (he, ht) = split(hv, h, hl, hh);
        let (x0e, x0t) = split(x0v, x0, x0l, x0h);
        let (x1e, x1t) = split(x1v, x1, x1l, x1h);
        let t = self.union_exclude_rec(xt, ht, x0t, x1t)?;
        let e = self.union_exclude_rec(xe, he, x0e, x1e)?;
        let r = self.mk(lvl, e, t)?;
        let limit = self.caches.limit;
        self.caches.union_exclude.put(key, r, limit);
        Ok(r)
    }
}
