//! Possible regions (`P_i`, Definition 2): the evolving region that is
//! repeatedly shrunk by outside regions of UV-edges until it becomes the
//! UV-cell.
//!
//! The region is stored as a polygon whose boundary follows the hyperbolic
//! UV-edges at configurable fidelity; *membership decisions during clipping
//! are made with the exact sign predicate* (`distmin(O_i, p)` vs.
//! `distmax(O_j, p)`), so an object that truly reshapes the region is never
//! classified as irrelevant because of the polygonal approximation — the
//! approximation can only keep the region slightly larger than the true cell,
//! which is the safe direction for all pruning lemmas.

use uv_geom::{clip_keep_traced_with, Circle, ClipScratch, OutsideRegion, Point, Polygon, Rect};

/// A possible region of a subject object, shrunk by clipping with outside
/// regions of other objects.
#[derive(Debug, Clone, PartialEq)]
pub struct PossibleRegion {
    subject: Circle,
    polygon: Polygon,
    /// Cached maximum distance of the region boundary from the subject centre
    /// (the `d` of Lemma 2).
    max_dist: f64,
    /// Outside regions of the objects whose clips actually changed the
    /// region so far, hoisted at clip time so trace evaluations never rebuild
    /// them. The boundary of the region is the zero set of the minimum of
    /// their keep predicates; tracing new boundary segments against that
    /// minimum keeps repeated clips consistent with one another.
    constraints: Vec<OutsideRegion>,
}

impl PossibleRegion {
    /// The initial possible region: the whole domain `D` (Algorithm 1,
    /// Step 2).
    pub fn full(subject: Circle, domain: &Rect) -> Self {
        let polygon = Polygon::from_rect(domain);
        let max_dist = polygon.max_dist_from(subject.center);
        Self {
            subject,
            polygon,
            max_dist,
            constraints: Vec::new(),
        }
    }

    /// The uncertainty region of the subject object.
    pub fn subject(&self) -> Circle {
        self.subject
    }

    /// Current polygonal boundary.
    pub fn polygon(&self) -> &Polygon {
        &self.polygon
    }

    /// Maximum distance of the region from the subject centre — the `d` used
    /// by I-pruning (Lemma 2).
    pub fn max_dist(&self) -> f64 {
        self.max_dist
    }

    /// Area of the region.
    pub fn area(&self) -> f64 {
        self.polygon.area()
    }

    /// `true` when `q` lies inside the region.
    pub fn contains(&self, q: Point) -> bool {
        self.polygon.contains(q)
    }

    /// Convex hull of the region boundary (used by C-pruning, Lemma 3).
    pub fn convex_hull(&self) -> Vec<Point> {
        uv_geom::convex_hull(self.polygon.vertices())
    }

    /// Axis-aligned bounding box of the region.
    pub fn mbr(&self) -> Rect {
        self.polygon.mbr()
    }

    /// Clips the region by the outside region `X_i(j)` of `other`
    /// (Algorithm 1, Step 6: `P_i <- P_i - X_i(j)`).
    ///
    /// Returns `true` when the region actually changed, i.e. `other`
    /// contributed a UV-edge to the current region boundary.
    pub fn clip(&mut self, other: Circle, curve_samples: usize, max_edge_len: f64) -> bool {
        self.clip_with(
            other,
            curve_samples,
            max_edge_len,
            &mut ClipScratch::default(),
        )
    }

    /// [`PossibleRegion::clip`] with caller-provided scratch buffers, so a
    /// build or repair loop clipping one region against many objects reuses
    /// its allocations across clips. Output is bit-identical to `clip`.
    pub fn clip_with(
        &mut self,
        other: Circle,
        curve_samples: usize,
        max_edge_len: f64,
        scratch: &mut ClipScratch,
    ) -> bool {
        let outside = OutsideRegion::new(self.subject, other);
        if outside.is_empty() {
            // Overlapping uncertainty regions: the UV-edge does not exist and
            // the outside region has zero area (Section III-C).
            return false;
        }
        let keep = |p: Point| outside.keep_signed(p);
        // Trace new boundary segments along the boundary of the intersection
        // of every constraint applied so far (plus the new one), so a new
        // UV-edge never re-introduces area removed by an earlier one.
        let trace = |p: Point| trace_value(self.subject, other, &self.constraints, p);
        let clipped = clip_keep_traced_with(
            self.polygon.vertices(),
            &self.polygon,
            &keep,
            &trace,
            outside.keep_anchor(),
            curve_samples,
            max_edge_len,
            scratch,
        );
        if clipped.len() < 3 {
            // The true region always contains a neighbourhood of the subject
            // centre (its own minimum distance is zero there), so a collapse
            // to nothing can only be a sampling artefact of an already tiny
            // region; keep the previous boundary.
            return false;
        }
        if clipped.len() == self.polygon.len()
            && clipped
                .iter()
                .zip(self.polygon.vertices())
                .all(|(a, b)| a == b)
        {
            return false;
        }
        self.polygon = Polygon::new(clipped);
        self.max_dist = self.polygon.max_dist_from(self.subject.center);
        self.constraints.push(outside);
        true
    }

    /// `true` when, judged by the exact predicate on the current boundary
    /// vertices, `other` can still influence the region (Lemma 1: only
    /// boundary points need to be examined). Used as a cheap pre-check by the
    /// exact cell construction.
    pub fn may_be_affected_by(&self, other: Circle) -> bool {
        let outside = OutsideRegion::new(self.subject, other);
        if outside.is_empty() {
            return false;
        }
        self.polygon
            .vertices()
            .iter()
            .any(|v| outside.signed(*v) >= 0.0)
    }
}

/// The minimum of the keep predicates of `other` and every constraint at
/// `p`. All of them share the subject, so the subject's `distmin` is taken
/// once and subtracted from the smallest `distmax`: `fl(a − b)` is monotone
/// in `a`, so this equals the minimum of the per-constraint differences up
/// to the sign of a zero, which no caller distinguishes.
fn trace_value(subject: Circle, other: Circle, constraints: &[OutsideRegion], p: Point) -> f64 {
    let mut dist_max = other.dist_max(p);
    for c in constraints {
        dist_max = dist_max.min(c.other.dist_max(p));
    }
    dist_max - subject.dist_min(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The trace predicate [`trace_value`] replaced: the minimum of the
    /// per-constraint keep predicates.
    fn reference_trace(
        subject: Circle,
        other: Circle,
        constraints: &[OutsideRegion],
        p: Point,
    ) -> f64 {
        let mut m = OutsideRegion::new(subject, other).keep_signed(p);
        for c in constraints {
            m = m.min(c.keep_signed(p));
        }
        m
    }

    fn circle_in(range: f64) -> impl Strategy<Value = Circle> {
        (-range..range, -range..range, 0.0..40.0f64)
            .prop_map(|(x, y, r)| Circle::new(Point::new(x, y), r))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// One `distmin` and the smallest `distmax` give the replaced
        /// predicate's value — equal, and with the same sign, at every point.
        #[test]
        fn trace_value_matches_the_reference(
            subject in circle_in(200.0),
            other in circle_in(500.0),
            others in prop::collection::vec(circle_in(500.0), 0..12),
            p in (-600.0..600.0f64, -600.0..600.0f64).prop_map(|(x, y)| Point::new(x, y)),
        ) {
            let constraints: Vec<OutsideRegion> =
                others.iter().map(|o| OutsideRegion::new(subject, *o)).collect();
            let fast = trace_value(subject, other, &constraints, p);
            let slow = reference_trace(subject, other, &constraints, p);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast >= 0.0, slow >= 0.0);
            // On a constraint's own UV-edge the two may only differ in the
            // sign of zero.
            let on_subject = subject.center;
            let fast = trace_value(subject, other, &constraints, on_subject);
            let slow = reference_trace(subject, other, &constraints, on_subject);
            prop_assert_eq!(fast, slow);
        }
    }

    fn domain() -> Rect {
        Rect::square(1000.0)
    }

    fn subject() -> Circle {
        Circle::new(Point::new(500.0, 500.0), 20.0)
    }

    #[test]
    fn full_region_covers_domain() {
        let r = PossibleRegion::full(subject(), &domain());
        assert!((r.area() - 1_000_000.0).abs() < 1e-6);
        assert!(r.contains(Point::new(1.0, 999.0)));
        assert!(!r.contains(Point::new(-1.0, 500.0)));
        // d = distance from the centre to the farthest corner.
        let expected = Point::new(500.0, 500.0).dist(Point::new(0.0, 0.0));
        assert!((r.max_dist() - expected).abs() < 1e-9);
    }

    #[test]
    fn clipping_by_far_object_shrinks_the_far_side() {
        let mut r = PossibleRegion::full(subject(), &domain());
        let other = Circle::new(Point::new(900.0, 500.0), 20.0);
        let changed = r.clip(other, 8, 20.0);
        assert!(changed);
        assert!(r.area() < 1_000_000.0);
        // Points well past the other object are cut away; points near the
        // subject remain.
        assert!(!r.contains(Point::new(990.0, 500.0)));
        assert!(r.contains(Point::new(500.0, 500.0)));
        assert!(r.contains(Point::new(10.0, 500.0)));
        // max_dist cache is updated.
        assert!(r.max_dist() < Point::new(500.0, 500.0).dist(Point::new(0.0, 0.0)) + 1e-9);
        // Every surviving vertex satisfies the keep predicate.
        let outside = OutsideRegion::new(subject(), other);
        for v in r.polygon().vertices() {
            assert!(outside.keep_signed(*v) >= -1e-6);
        }
    }

    #[test]
    fn clipping_by_overlapping_object_is_a_no_op() {
        let mut r = PossibleRegion::full(subject(), &domain());
        let overlapping = Circle::new(Point::new(510.0, 500.0), 20.0);
        assert!(!r.clip(overlapping, 8, 20.0));
        assert!((r.area() - 1_000_000.0).abs() < 1e-6);
        assert!(!r.may_be_affected_by(overlapping));
    }

    #[test]
    fn clip_change_flag_reflects_geometry() {
        let mut r = PossibleRegion::full(subject(), &domain());
        // First clip changes the region.
        let near = Circle::new(Point::new(700.0, 500.0), 10.0);
        assert!(r.clip(near, 8, 20.0));
        let area_after_first = r.area();
        // An object far outside the remaining region (beyond the domain
        // corner, on the side already cut away) cannot change it again.
        let far = Circle::new(Point::new(995.0, 500.0), 2.0);
        let changed = r.clip(far, 8, 20.0);
        if changed {
            // If it did change (its UV-edge still crosses the region), the
            // area must have shrunk.
            assert!(r.area() < area_after_first);
        } else {
            assert_eq!(r.area(), area_after_first);
        }
        // Clipping twice with the same object the second time is a no-op.
        let again = r.clip(near, 8, 20.0);
        assert!(!again || r.area() <= area_after_first);
    }

    #[test]
    fn successive_clips_only_shrink() {
        let mut r = PossibleRegion::full(subject(), &domain());
        let mut prev_area = r.area();
        for (x, y) in [
            (800.0, 500.0),
            (500.0, 850.0),
            (200.0, 200.0),
            (500.0, 100.0),
        ] {
            r.clip(Circle::new(Point::new(x, y), 15.0), 8, 20.0);
            assert!(r.area() <= prev_area + 1e-6);
            prev_area = r.area();
        }
        // The subject's own region is always inside its possible region.
        assert!(r.contains(subject().center));
        assert!(r.contains(Point::new(520.0, 500.0)));
    }

    #[test]
    fn may_be_affected_matches_lemma_one() {
        let mut r = PossibleRegion::full(subject(), &domain());
        for (x, y) in [(800.0, 500.0), (500.0, 850.0), (200.0, 200.0)] {
            r.clip(Circle::new(Point::new(x, y), 15.0), 8, 20.0);
        }
        // A nearby object may still affect the (now small-ish) region.
        assert!(r.may_be_affected_by(Circle::new(Point::new(620.0, 620.0), 15.0)));
        // An object much farther than twice the max distance cannot.
        let d = r.max_dist();
        let far = Circle::new(Point::new(500.0 + 3.0 * d + 100.0, 500.0), subject().radius);
        assert!(!r.may_be_affected_by(far));
    }

    #[test]
    fn convex_hull_contains_region_vertices() {
        let mut r = PossibleRegion::full(subject(), &domain());
        r.clip(Circle::new(Point::new(700.0, 650.0), 15.0), 8, 20.0);
        r.clip(Circle::new(Point::new(300.0, 350.0), 15.0), 8, 20.0);
        let hull = r.convex_hull();
        assert!(hull.len() >= 3);
        for v in r.polygon().vertices() {
            assert!(uv_geom::hull::hull_contains(&hull, *v));
        }
    }
}
