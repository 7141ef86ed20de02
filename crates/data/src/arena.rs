//! Struct-of-arrays kernel arenas for the refinement hot path.
//!
//! Every PNN query, trajectory step, and subscription miss bottoms out in the
//! same two inner loops: the `d_minmax` candidate screen over a leaf's
//! `<ID, MBC, ptr>` entries and the qualification-probability quadrature of
//! [`crate::probability`]. Both were scalar, pointer-chased, and allocation
//! heavy: the screen re-derived `dist(q, c_i)` once per predicate, and every
//! quadrature call rebuilt per-object ring tables ([`DistanceDistribution`])
//! and allocated two fresh `Vec<f64>` per integration step.
//!
//! The arenas flatten those structures into contiguous `f64` slices laid out
//! for autovectorization, hoist the per-object setup (ring radii/masses) into
//! tables built once per candidate set, and reuse scratch buffers across
//! integration steps and across queries.
//!
//! **Contract: strict bit-identity.** Every kernel here preserves the scalar
//! evaluation order per element — the same IEEE-754 operation sequence the
//! reference implementations in [`crate::probability`] and the callers'
//! scalar screens perform — so the existing brute-force/cold-rebuild oracles
//! remain the reviewer of this code. `tests/proptest_kernels.rs` asserts the
//! equivalence down to the bit.
//!
//! [`DistanceDistribution`]: crate::probability::DistanceDistribution

use crate::object::{ObjectId, UncertainObject};
use crate::probability::{ring_cdf, DEFAULT_RINGS};
use crate::storage::ObjectEntry;
use uv_geom::{Point, EPS};

/// Reusable scratch for the quadrature of
/// [`KernelArena::qualification_probabilities`]: the per-step cdf vectors the
/// scalar reference allocates afresh (`2 × steps` allocations per query)
/// live here instead and are recycled.
///
/// Between steps it holds one integration step of the bound candidates —
/// their cdfs at both step ends and the trapezoid midpoints — from which
/// [`term`](Self::term) computes a candidate's summand.
#[derive(Debug, Clone, Default)]
pub struct QuadratureScratch {
    cdf_lo: Vec<f64>,
    cdf_hi: Vec<f64>,
    cdf_mid: Vec<f64>,
    probs: Vec<f64>,
}

impl QuadratureScratch {
    /// Trapezoidal survival inputs of the held step, exactly as the scalar
    /// reference: every cdf averaged over the two step ends.
    fn fill_mid(&mut self) {
        self.cdf_mid.clear();
        self.cdf_mid.extend(
            self.cdf_lo
                .iter()
                .zip(&self.cdf_hi)
                .map(|(lo, hi)| 0.5 * (lo + hi)),
        );
    }

    /// Candidate `i`'s summand `df × prod` over the held step — the term
    /// the quadrature adds to its probability: `df` is the rise of its cdf
    /// over the step, `prod` the survival product of every other candidate
    /// in candidate order, cut short once it reaches zero. `0.0` when the
    /// cdf does not rise (the quadrature adds nothing then). Never negative,
    /// so the probability is at least any one of its terms.
    pub fn term(&self, i: usize) -> f64 {
        let df = (self.cdf_hi[i] - self.cdf_lo[i]).max(0.0);
        if df == 0.0 {
            return 0.0;
        }
        let mut prod = 1.0;
        for (j, c) in self.cdf_mid.iter().enumerate() {
            if j != i {
                prod *= 1.0 - c;
                if prod == 0.0 {
                    break;
                }
            }
        }
        df * prod
    }
}

/// The quadrature's integration grid for one bound query: `steps` steps of
/// width `dt` from `lower = min_i dist_min` towards `min_i dist_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepGrid {
    /// Smallest `dist_min` over the candidates: the first step end.
    pub lower: f64,
    /// Step width: the distance from `lower` to the smallest `dist_max`
    /// (`d_minmax`) over `steps`.
    pub dt: f64,
    /// Number of integration steps (at least 2).
    pub steps: usize,
}

impl StepGrid {
    /// Step end `k` for `0 ≤ k ≤ steps`, in the quadrature's own arithmetic:
    /// `lower` for `k = 0`, else the end of step `k − 1`,
    /// `(lower + (k − 1)·dt) + dt`. Every operation rounds monotonically, so
    /// the ends never decrease in `k`.
    #[inline]
    pub fn end(&self, k: usize) -> f64 {
        if k == 0 {
            return self.lower;
        }
        let t0 = self.lower + (k - 1) as f64 * self.dt;
        t0 + self.dt
    }
}

/// A candidate set flattened onto struct-of-arrays storage.
///
/// The query-independent part (ids, centers, radii, and the concentric-ring
/// discretisation of every pdf) is built once by [`assign`](Self::assign) and
/// reused across quadrature steps *and* across queries: a trajectory step or
/// safe-region reuse hit only re-binds the query point
/// ([`bind_query`](Self::bind_query)), which recomputes the three
/// per-candidate distance terms and nothing else.
#[derive(Debug, Clone, Default)]
pub struct KernelArena {
    ids: Vec<ObjectId>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    radius: Vec<f64>,
    /// Ring-table extent of candidate `i`: `ring_start[i]..ring_start[i + 1]`
    /// indexes `ring_radius`/`ring_mass`. Always `len() + 1` entries.
    ring_start: Vec<usize>,
    ring_radius: Vec<f64>,
    ring_mass: Vec<f64>,
    // Query-dependent terms, refreshed by `bind_query`.
    center_dist: Vec<f64>,
    dist_min: Vec<f64>,
    dist_max: Vec<f64>,
}

impl KernelArena {
    /// Empty arena; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no candidates are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Candidate ids in arena order.
    #[inline]
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Region radii in arena order.
    #[inline]
    pub fn radii(&self) -> &[f64] {
        &self.radius
    }

    /// Ring table of candidate `i`: the representative ring radii and their
    /// probability masses, in ring order.
    #[inline]
    pub fn rings(&self, i: usize) -> (&[f64], &[f64]) {
        let span = self.ring_start[i]..self.ring_start[i + 1];
        (&self.ring_radius[span.clone()], &self.ring_mass[span])
    }

    /// `dist(c_i, q)` of the bound query, in arena order.
    #[inline]
    pub fn center_dist(&self) -> &[f64] {
        &self.center_dist
    }

    /// `dist_min(q, O_i)` of the bound query, in arena order.
    #[inline]
    pub fn dist_min(&self) -> &[f64] {
        &self.dist_min
    }

    /// `dist_max(q, O_i)` of the bound query, in arena order.
    #[inline]
    pub fn dist_max(&self) -> &[f64] {
        &self.dist_max
    }

    /// Drops all candidates but keeps the allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.cx.clear();
        self.cy.clear();
        self.radius.clear();
        self.ring_start.clear();
        self.ring_radius.clear();
        self.ring_mass.clear();
        self.center_dist.clear();
        self.dist_min.clear();
        self.dist_max.clear();
    }

    /// Rebuilds the arena from a candidate set, precomputing every
    /// query-independent table. The ring discretisation matches
    /// [`DistanceDistribution::new`] exactly: `pdf.num_bars()` rings (or
    /// [`DEFAULT_RINGS`]), masses from `pdf.ring_masses`, representative
    /// radius `r · (k + 0.5) / rings`.
    ///
    /// [`DistanceDistribution::new`]: crate::probability::DistanceDistribution::new
    pub fn assign<'a, I>(&mut self, candidates: I)
    where
        I: IntoIterator<Item = &'a UncertainObject>,
    {
        self.clear();
        self.ring_start.push(0);
        for o in candidates {
            let rings = o.pdf.num_bars().unwrap_or(DEFAULT_RINGS);
            let masses = o.pdf.ring_masses(rings);
            let radius = o.radius();
            self.ids.push(o.id);
            self.cx.push(o.center().x);
            self.cy.push(o.center().y);
            self.radius.push(radius);
            for k in 0..rings {
                self.ring_radius
                    .push(radius * (k as f64 + 0.5) / rings as f64);
            }
            self.ring_mass.extend_from_slice(&masses);
            self.ring_start.push(self.ring_radius.len());
        }
    }

    /// Recomputes the per-candidate distance terms for a query point, in one
    /// flat pass: `center_dist = dist(c_i, q)`,
    /// `dist_min = max(center_dist − r_i, 0)` (Equation (2)),
    /// `dist_max = center_dist + r_i` (Equation (3)) — bit-identical to
    /// `Circle::dist_min`/`dist_max` on the same circle.
    pub fn bind_query(&mut self, q: Point) {
        let n = self.len();
        self.center_dist.clear();
        self.dist_min.clear();
        self.dist_max.clear();
        for i in 0..n {
            let cd = Point::new(self.cx[i], self.cy[i]).dist(q);
            self.center_dist.push(cd);
            self.dist_min.push((cd - self.radius[i]).max(0.0));
            self.dist_max.push(cd + self.radius[i]);
        }
    }

    /// Distance cdf of candidate `i` at `t` for the bound query — the arena
    /// form of [`DistanceDistribution::cdf`], same guard order, same ring
    /// accumulation order.
    ///
    /// [`DistanceDistribution::cdf`]: crate::probability::DistanceDistribution::cdf
    #[inline]
    fn cdf(&self, i: usize, t: f64) -> f64 {
        if t <= self.dist_min[i] {
            return 0.0;
        }
        if t >= self.dist_max[i] {
            return 1.0;
        }
        let d = self.center_dist[i];
        let mut acc = 0.0;
        for k in self.ring_start[i]..self.ring_start[i + 1] {
            acc += self.ring_mass[k] * ring_cdf(d, self.ring_radius[k], t);
        }
        acc.clamp(0.0, 1.0)
    }

    /// Evaluates the cdf of every candidate at `t` into `out`, one flat loop
    /// per integration step (the batched kernel).
    fn cdf_batch(&self, t: f64, out: &mut Vec<f64>) {
        out.clear();
        for i in 0..self.len() {
            out.push(self.cdf(i, t));
        }
    }

    /// Binds `q` ([`bind_query`](Self::bind_query)) and returns the
    /// quadrature's integration grid of `steps` steps (at least 2), or
    /// `None` when the bounds are degenerate and
    /// [`qualification_probabilities`](Self::qualification_probabilities)
    /// splits the mass uniformly instead.
    pub fn step_grid(&mut self, q: Point, steps: usize) -> Option<StepGrid> {
        let steps = steps.max(2);
        self.bind_query(q);
        let lower = self.dist_min.iter().copied().fold(f64::INFINITY, f64::min);
        let upper = self.dist_max.iter().copied().fold(f64::INFINITY, f64::min);
        if upper <= lower || !upper.is_finite() || !lower.is_finite() {
            return None;
        }
        let dt = (upper - lower) / steps as f64;
        Some(StepGrid { lower, dt, steps })
    }

    /// Loads step `k` of `grid` into `scratch`: every candidate's cdf at
    /// both step ends and the trapezoid midpoints, as the quadrature holds
    /// them when it integrates that step.
    pub fn eval_step(&self, grid: &StepGrid, k: usize, scratch: &mut QuadratureScratch) {
        self.cdf_batch(grid.end(k), &mut scratch.cdf_lo);
        self.cdf_batch(grid.end(k + 1), &mut scratch.cdf_hi);
        scratch.fill_mid();
    }

    /// Qualification probability of every held candidate for being the
    /// nearest neighbour of `q` — bit-identical to
    /// [`crate::probability::qualification_probabilities`] over the same
    /// candidates in the same order, but allocation-free on the hot path:
    /// the per-step cdf vectors live in `scratch` and the ring tables were
    /// precomputed by [`assign`](Self::assign).
    pub fn qualification_probabilities(
        &mut self,
        q: Point,
        steps: usize,
        scratch: &mut QuadratureScratch,
    ) -> Vec<(ObjectId, f64)> {
        if self.is_empty() {
            return Vec::new();
        }
        if self.len() == 1 {
            return vec![(self.ids[0], 1.0)];
        }
        let Some(grid) = self.step_grid(q, steps) else {
            let share = 1.0 / self.len() as f64;
            return self.ids.iter().map(|id| (*id, share)).collect();
        };

        let n = self.len();
        scratch.probs.clear();
        scratch.probs.resize(n, 0.0);
        self.cdf_batch(grid.end(0), &mut scratch.cdf_lo);
        for step in 0..grid.steps {
            self.cdf_batch(grid.end(step + 1), &mut scratch.cdf_hi);
            scratch.fill_mid();
            for i in 0..n {
                let term = scratch.term(i);
                scratch.probs[i] += term;
            }
            std::mem::swap(&mut scratch.cdf_lo, &mut scratch.cdf_hi);
        }

        self.ids
            .iter()
            .zip(&scratch.probs)
            .map(|(id, p)| (*id, *p))
            .collect()
    }
}

/// Result of the fused candidate screen: the `d_minmax` bound, and the
/// signed clearance of the screen decision (half the smallest margin by
/// which any entry clears or misses the candidate threshold) — the stability
/// radius the subscription engine previously re-derived in a second scalar
/// pass over the same entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenResult {
    /// `min_i dist_max(q, O_i)` over all screened entries (`∞` when empty).
    pub dminmax: f64,
    /// `min_i |dist_min(q, O_i) − (dminmax + EPS)| / 2` (`∞` when empty):
    /// the radius within which the candidate screen provably cannot change.
    pub clearance: f64,
}

/// A leaf's `<ID, MBC>` entries flattened onto struct-of-arrays storage for
/// the fused `d_minmax` screen. Built once per leaf (cached alongside the
/// page read) and shared by every query landing in that leaf.
#[derive(Debug, Clone, Default)]
pub struct EntryArena {
    ids: Vec<ObjectId>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    radius: Vec<f64>,
}

/// Reusable per-query scratch for [`EntryArena::screen`]: the center
/// distances of the current query, kept so the candidate pass reuses the
/// distance the `d_minmax` fold already paid for.
#[derive(Debug, Clone, Default)]
pub struct ScreenScratch {
    dist: Vec<f64>,
}

impl EntryArena {
    /// Flattens a leaf's entries. Entry order is preserved — the screen's
    /// fold order (and therefore its bits) matches a scalar pass over the
    /// same slice.
    pub fn assign(&mut self, entries: &[ObjectEntry]) {
        self.ids.clear();
        self.cx.clear();
        self.cy.clear();
        self.radius.clear();
        for e in entries {
            self.ids.push(e.id);
            self.cx.push(e.mbc.center.x);
            self.cy.push(e.mbc.center.y);
            self.radius.push(e.mbc.radius);
        }
    }

    /// Number of entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no entries are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Entry ids in arena order.
    #[inline]
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// The fused screen: one distance evaluation per entry feeds (a) the
    /// `d_minmax` fold, (b) the candidate filter
    /// `dist_min ≤ dminmax + EPS` (indices pushed into `candidates` in entry
    /// order), and (c) the signed-clearance fold that bounds the stability
    /// disk of the screen decision.
    ///
    /// Bit-identical to the scalar sequence it replaces — a `dist_max` fold,
    /// a `dist_min` filter, and a separate clearance pass each recomputing
    /// `dist(q, c_i)` — because recomputing a deterministic expression
    /// yields the same bits as reusing it.
    pub fn screen(
        &self,
        q: Point,
        scratch: &mut ScreenScratch,
        candidates: &mut Vec<usize>,
    ) -> ScreenResult {
        scratch.dist.clear();
        let mut dminmax = f64::INFINITY;
        for i in 0..self.len() {
            let cd = Point::new(self.cx[i], self.cy[i]).dist(q);
            scratch.dist.push(cd);
            dminmax = dminmax.min(cd + self.radius[i]);
        }
        let threshold = dminmax + EPS;
        candidates.clear();
        let mut clearance = f64::INFINITY;
        for i in 0..self.len() {
            let dmin = (scratch.dist[i] - self.radius[i]).max(0.0);
            if dmin <= threshold {
                candidates.push(i);
            }
            clearance = clearance.min((dmin - threshold).abs() / 2.0);
        }
        ScreenResult { dminmax, clearance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::Pdf;
    use crate::probability::qualification_probabilities;
    use uv_geom::Circle;

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::with_gaussian(1, Point::new(3.0, 1.0), 2.0),
            UncertainObject::with_uniform(2, Point::new(5.0, -2.0), 1.5),
            UncertainObject::new(3, Point::new(4.0, 4.0), 0.0, Pdf::paper_gaussian(0.0)),
            UncertainObject::with_uniform(4, Point::new(2.5, 2.5), 3.0),
        ]
    }

    #[test]
    fn arena_quadrature_is_bit_identical_to_scalar() {
        let objs = objects();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let mut arena = KernelArena::new();
        arena.assign(objs.iter());
        let mut scratch = QuadratureScratch::default();
        for q in [
            Point::new(0.0, 0.0),
            Point::new(3.5, 1.5),
            Point::new(4.0, 4.0),
            Point::new(-20.0, 13.0),
        ] {
            let scalar = qualification_probabilities(q, &refs, 77);
            let batched = arena.qualification_probabilities(q, 77, &mut scratch);
            assert_eq!(scalar.len(), batched.len());
            for ((ia, pa), (ib, pb)) in scalar.iter().zip(&batched) {
                assert_eq!(ia, ib);
                assert_eq!(pa.to_bits(), pb.to_bits(), "q = {q:?}");
            }
        }
    }

    #[test]
    fn arena_edge_cases_match_scalar() {
        let mut arena = KernelArena::new();
        let mut scratch = QuadratureScratch::default();
        // Empty.
        arena.assign(std::iter::empty());
        assert!(arena
            .qualification_probabilities(Point::origin(), 100, &mut scratch)
            .is_empty());
        // Single candidate short-circuits to probability one.
        let solo = [UncertainObject::with_uniform(9, Point::new(1.0, 1.0), 2.0)];
        arena.assign(solo.iter());
        assert_eq!(
            arena.qualification_probabilities(Point::origin(), 100, &mut scratch),
            vec![(9, 1.0)]
        );
        // Co-located candidates hit the degenerate uniform split.
        let twins = [
            UncertainObject::with_uniform(1, Point::new(5.0, 5.0), 0.0),
            UncertainObject::with_uniform(2, Point::new(5.0, 5.0), 0.0),
        ];
        let refs: Vec<&UncertainObject> = twins.iter().collect();
        arena.assign(twins.iter());
        let scalar = qualification_probabilities(Point::new(5.0, 5.0), &refs, 100);
        let batched = arena.qualification_probabilities(Point::new(5.0, 5.0), 100, &mut scratch);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn arena_is_reusable_across_queries() {
        let objs = objects();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let mut arena = KernelArena::new();
        arena.assign(objs.iter());
        let mut scratch = QuadratureScratch::default();
        // Two different queries against the same assignment — the second
        // must not see stale per-query state.
        let _ = arena.qualification_probabilities(Point::new(9.0, 9.0), 64, &mut scratch);
        let scalar = qualification_probabilities(Point::new(1.0, 2.0), &refs, 64);
        let batched = arena.qualification_probabilities(Point::new(1.0, 2.0), 64, &mut scratch);
        for ((ia, pa), (ib, pb)) in scalar.iter().zip(&batched) {
            assert_eq!(ia, ib);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
    }

    #[test]
    fn fused_screen_matches_scalar_passes() {
        let entries: Vec<ObjectEntry> = objects()
            .iter()
            .map(|o| ObjectEntry {
                id: o.id,
                mbc: o.mbc(),
                ptr: 0,
            })
            .collect();
        let mut arena = EntryArena::default();
        arena.assign(&entries);
        let mut scratch = ScreenScratch::default();
        let mut candidates = Vec::new();
        for q in [Point::new(0.0, 0.0), Point::new(4.0, 4.0)] {
            let r = arena.screen(q, &mut scratch, &mut candidates);
            // Scalar reference: three independent passes.
            let dminmax = entries
                .iter()
                .map(|e| e.dist_max(q))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(r.dminmax.to_bits(), dminmax.to_bits());
            let threshold = dminmax + EPS;
            let scalar_cands: Vec<usize> = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.dist_min(q) <= threshold)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(candidates, scalar_cands);
            let clearance = entries
                .iter()
                .map(|e| (e.dist_min(q) - threshold).abs() / 2.0)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(r.clearance.to_bits(), clearance.to_bits());
        }
    }

    #[test]
    fn empty_screen_is_infinite() {
        let arena = EntryArena::default();
        let mut scratch = ScreenScratch::default();
        let mut candidates = vec![7];
        let r = arena.screen(Point::origin(), &mut scratch, &mut candidates);
        assert!(candidates.is_empty());
        assert!(r.dminmax.is_infinite());
        assert!(r.clearance.is_infinite());
    }

    #[test]
    fn zero_radius_entries_screen_cleanly() {
        let entries = [
            ObjectEntry {
                id: 1,
                mbc: Circle::point(Point::new(1.0, 0.0)),
                ptr: 0,
            },
            ObjectEntry {
                id: 2,
                mbc: Circle::point(Point::new(0.0, 1.0)),
                ptr: 0,
            },
        ];
        let mut arena = EntryArena::default();
        arena.assign(&entries);
        let mut scratch = ScreenScratch::default();
        let mut candidates = Vec::new();
        let r = arena.screen(Point::origin(), &mut scratch, &mut candidates);
        assert_eq!(candidates, vec![0, 1]);
        assert!(r.dminmax.is_finite());
        assert!(!r.clearance.is_nan());
    }
}
