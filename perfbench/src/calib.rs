//! The reference kernel: a minimal BDD package of this file's own,
//! timed between cells so that pass times can be given at a fixed host
//! speed.
//!
//! The benchmark runs on shared hosts whose speed swings with what other
//! tenants run: the same build has measured 1.5–1.8× slower for minutes
//! at a time, and passes seconds apart differ by 10%, with no stolen
//! time showing in `/proc/stat`. The kernel builds the same function on
//! every run — the 7-queens constraint, by `ite` over a hash-consed node
//! table with a computed cache, in tables allocated once — so its time
//! changes only with the host.
//! Each cell is bracketed by two kernel runs, and [`host_scale`] turns
//! the cell's wall time into seconds on a host where the kernel takes
//! [`REF_NOMINAL_S`]. A change to the repository's crates cannot move
//! the kernel: it uses none of them.

use std::hint::black_box;
use std::time::Instant;

/// Board size of the kernel's function.
const QUEENS: u32 = 7;
/// Unique-table slots (`u32` node ids, 512 KiB).
const UNIQUE_BITS: u32 = 17;
/// Computed-cache slots (`[u32; 4]` entries, 512 KiB).
const CACHE_BITS: u32 = 15;

/// The kernel's median wall time on a quiet 2-core Xeon (Sapphire
/// Rapids) KVM guest, the host the benchmark was tuned on. Scaled times
/// are seconds on that host.
pub const REF_NOMINAL_S: f64 = 0.002;

/// The reference kernel with its tables, allocated once so that its
/// time does not depend on the state of the heap the cells leave.
pub struct Reference(Mini);

impl Default for Reference {
    fn default() -> Self {
        Reference(Mini::new())
    }
}

impl Reference {
    /// Builds the kernel's function twice and returns the wall seconds
    /// of the second build; the first brings the tables back into the
    /// core's caches after the cell that ran before.
    pub fn run(&mut self) -> f64 {
        black_box(build_queens(&mut self.0, QUEENS));
        let t = Instant::now();
        black_box(build_queens(&mut self.0, QUEENS));
        t.elapsed().as_secs_f64()
    }
}

/// Factor that turns wall seconds measured between kernel runs taking
/// `before` and `after` seconds into seconds at [`REF_NOMINAL_S`].
#[must_use]
pub fn host_scale(before: f64, after: f64) -> f64 {
    REF_NOMINAL_S / (0.5 * (before + after))
}

const FALSE: u32 = 0;
const TRUE: u32 = 1;

/// Nodes `[var, lo, hi]`, without complement edges; ids 0 and 1 are the
/// terminals, whose `var` is `u32::MAX`.
struct Mini {
    nodes: Vec<[u32; 3]>,
    unique: Vec<u32>,
    cache: Vec<[u32; 4]>,
}

fn hash3(a: u32, b: u32, c: u32) -> usize {
    let z = (u64::from(a) << 42 ^ u64::from(b) << 21 ^ u64::from(c))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (z ^ (z >> 31)) as usize
}

impl Mini {
    fn new() -> Self {
        Mini {
            nodes: vec![[u32::MAX, 0, 0], [u32::MAX, 1, 1]],
            unique: vec![0; 1 << UNIQUE_BITS],
            cache: vec![[u32::MAX; 4]; 1 << CACHE_BITS],
        }
    }

    /// Back to the two terminals, with empty tables.
    fn clear(&mut self) {
        self.nodes.truncate(2);
        self.unique.fill(0);
        self.cache.fill([u32::MAX; 4]);
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let mask = self.unique.len() - 1;
        let mut h = hash3(var, lo, hi) & mask;
        loop {
            let id = self.unique[h];
            if id == 0 {
                let id = self.nodes.len() as u32;
                self.nodes.push([var, lo, hi]);
                self.unique[h] = id;
                return id;
            }
            if self.nodes[id as usize] == [var, lo, hi] {
                return id;
            }
            h = (h + 1) & mask;
        }
    }

    fn cofactors(&self, f: u32, var: u32) -> (u32, u32) {
        let [v, lo, hi] = self.nodes[f as usize];
        if v == var {
            (lo, hi)
        } else {
            (f, f)
        }
    }

    fn ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
        if f == TRUE || g == h {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        let slot = hash3(f, g, h) & (self.cache.len() - 1);
        let entry = self.cache[slot];
        if entry[..3] == [f, g, h] {
            return entry[3];
        }
        let var = [f, g, h]
            .iter()
            .map(|&x| self.nodes[x as usize][0])
            .min()
            .unwrap_or(u32::MAX);
        let (f0, f1) = self.cofactors(f, var);
        let (g0, g1) = self.cofactors(g, var);
        let (h0, h1) = self.cofactors(h, var);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(var, lo, hi);
        self.cache[slot] = [f, g, h, r];
        r
    }

    fn and(&mut self, f: u32, g: u32) -> u32 {
        self.ite(f, g, FALSE)
    }
}

/// Builds the `n`-queens constraint over one variable per square, row
/// by row, in a cleared `m`; returns the root.
fn build_queens(m: &mut Mini, n: u32) -> u32 {
    m.clear();
    let square = |i: u32, j: u32| i * n + j;
    let mut all = TRUE;
    for i in 0..n {
        let mut row = FALSE;
        for j in 0..n {
            let x = m.mk(square(i, j), FALSE, TRUE);
            row = m.ite(x, TRUE, row);
        }
        all = m.and(all, row);
        for j in 0..n {
            let mut free = TRUE;
            for k in 0..n {
                for l in 0..n {
                    let attacks = k == i || l == j || k + j == i + l || k + l == i + j;
                    if (k, l) != (i, j) && attacks {
                        let empty = m.mk(square(k, l), TRUE, FALSE);
                        free = m.and(empty, free);
                    }
                }
            }
            let empty = m.mk(square(i, j), TRUE, FALSE);
            let placed_free = m.ite(empty, TRUE, free);
            all = m.and(all, placed_free);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Satisfying assignments of `f` over variables `0..vars`.
    fn count(m: &Mini, f: u32, vars: u32) -> u64 {
        let level = |x: u32| m.nodes[x as usize][0].min(vars);
        fn sat(m: &Mini, x: u32, vars: u32, memo: &mut HashMap<u32, u64>) -> u64 {
            let [var, lo, hi] = m.nodes[x as usize];
            if var == u32::MAX {
                return u64::from(x);
            }
            if let Some(&n) = memo.get(&x) {
                return n;
            }
            let below = |c: u32| m.nodes[c as usize][0].min(vars) - var - 1;
            let n = (sat(m, lo, vars, memo) << below(lo)) + (sat(m, hi, vars, memo) << below(hi));
            memo.insert(x, n);
            n
        }
        sat(m, f, vars, &mut HashMap::new()) << level(f)
    }

    #[test]
    fn kernel_builds_the_queens_function() {
        for (n, solutions) in [(4, 2), (5, 10), (6, 4), (QUEENS, 40)] {
            let mut m = Mini::new();
            let root = build_queens(&mut m, n);
            assert_eq!(count(&m, root, n * n), solutions, "{n}-queens");
        }
    }
}
