//! Simple polygons and predicate-based clipping.
//!
//! Possible regions (`P_i` in the paper) are stored as polygons whose
//! boundary approximates the true region bounded by hyperbolic UV-edges.
//! Clipping a possible region by the *outside region* of a UV-edge
//! (Algorithm 1, Step 6) is performed with [`clip_keep`]: the exact sign
//! predicate decides which side a point is on, boundary crossings are refined
//! by bisection and extra vertices are inserted along the curved boundary so
//! that the stored polygon follows the hyperbola to a configurable density.

use crate::{Point, Rect, EPS, REFINE_EPS};
use serde::{Deserialize, Serialize};

/// A simple polygon with vertices in counter-clockwise order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex list (assumed simple; orientation is
    /// normalised to counter-clockwise).
    pub fn new(mut vertices: Vec<Point>) -> Self {
        if signed_area2(&vertices) < 0.0 {
            vertices.reverse();
        }
        Self { vertices }
    }

    /// Polygon covering a rectangle.
    pub fn from_rect(r: &Rect) -> Self {
        Self {
            vertices: r.corners().to_vec(),
        }
    }

    /// An empty polygon (zero area, no vertices).
    pub fn empty() -> Self {
        Self {
            vertices: Vec::new(),
        }
    }

    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3
    }

    /// Unsigned area (shoelace formula).
    pub fn area(&self) -> f64 {
        signed_area2(&self.vertices).abs() * 0.5
    }

    /// Axis-aligned bounding rectangle, or an empty sentinel for an empty
    /// polygon.
    pub fn mbr(&self) -> Rect {
        Rect::bounding(&self.vertices).unwrap_or_else(Rect::empty)
    }

    /// Point-in-polygon test (ray casting; boundary points count as inside).
    ///
    /// Edges are walked from the closing edge `(v[n-1], v[0])` on, each with
    /// its own orientation, so the verdict — any on-edge hit, else the
    /// crossing parity — is the same as a walk in any other order.
    pub fn contains(&self, q: Point) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut inside = false;
        let mut a = self.vertices[self.vertices.len() - 1];
        for &b in &self.vertices {
            // Boundary check: q on segment ab.
            if on_segment(a, b, q) {
                return true;
            }
            let intersects = (a.y > q.y) != (b.y > q.y);
            if intersects {
                let t = (q.y - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                if x > q.x {
                    inside = !inside;
                }
            }
            a = b;
        }
        inside
    }

    /// Maximum distance from `c` to any vertex of the polygon. For regions
    /// whose true boundary is concave (as every UV-cell boundary is —
    /// Section III-C) the maximum over the region is attained on the
    /// boundary, which the vertex set approximates.
    pub fn max_dist_from(&self, c: Point) -> f64 {
        self.vertices
            .iter()
            .map(|v| v.dist(c))
            .fold(0.0_f64, f64::max)
    }

    /// Centroid of the polygon (area-weighted); falls back to the vertex mean
    /// for degenerate polygons.
    pub fn centroid(&self) -> Option<Point> {
        if self.vertices.is_empty() {
            return None;
        }
        let a2 = signed_area2(&self.vertices);
        if a2.abs() < EPS {
            let n = self.vertices.len() as f64;
            let sum = self
                .vertices
                .iter()
                .fold(Point::origin(), |acc, p| acc + *p);
            return Some(sum / n);
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Some(Point::new(cx / (3.0 * a2), cy / (3.0 * a2)))
    }
}

/// Twice the signed area of the vertex loop (positive for counter-clockwise).
fn signed_area2(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        acc += vertices[i].cross(vertices[(i + 1) % n]);
    }
    acc
}

/// `true` when `q` lies on the segment `ab` (within `EPS`). The bounding-box
/// test runs first: it rejects almost every edge of a containment walk
/// without the cross product or the square root of the length.
fn on_segment(a: Point, b: Point, q: Point) -> bool {
    let in_box = q.x >= a.x.min(b.x) - EPS
        && q.x <= a.x.max(b.x) + EPS
        && q.y >= a.y.min(b.y) - EPS
        && q.y <= a.y.max(b.y) + EPS;
    if !in_box {
        return false;
    }
    let cross = Point::orient(a, b, q);
    if cross.abs() > EPS * (1.0 + a.dist(b)) {
        return false;
    }
    true
}

/// Finds a point on the zero level set of `f` on the segment `[keep, drop]`
/// where `f(keep) >= 0 > f(drop)`, by bisection. Each step selects the new
/// end points without a branch: the sign of `f` at the midpoint is
/// unpredictable, so a data dependency beats a mispredicted jump.
fn refine_crossing<F: Fn(Point) -> f64>(f: &F, mut keep: Point, mut drop: Point) -> Point {
    for _ in 0..60 {
        let mid = keep.midpoint(drop);
        if keep.dist(drop) < REFINE_EPS {
            return mid;
        }
        let kept = f(mid) >= 0.0;
        keep = if kept { mid } else { keep };
        drop = if kept { drop } else { mid };
    }
    keep.midpoint(drop)
}

/// The forms [`Polygon::contains`], [`on_segment`] and [`refine_crossing`]
/// replaced, kept as the oracle of their bit-identity tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn contains(poly: &Polygon, q: Point) -> bool {
        if poly.is_empty() {
            return false;
        }
        let n = poly.vertices.len();
        let mut inside = false;
        for i in 0..n {
            let a = poly.vertices[i];
            let b = poly.vertices[(i + 1) % n];
            if on_segment(a, b, q) {
                return true;
            }
            let intersects = (a.y > q.y) != (b.y > q.y);
            if intersects {
                let t = (q.y - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                if x > q.x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    pub(crate) fn on_segment(a: Point, b: Point, q: Point) -> bool {
        let cross = Point::orient(a, b, q);
        if cross.abs() > EPS * (1.0 + a.dist(b)) {
            return false;
        }
        q.x >= a.x.min(b.x) - EPS
            && q.x <= a.x.max(b.x) + EPS
            && q.y >= a.y.min(b.y) - EPS
            && q.y <= a.y.max(b.y) + EPS
    }

    pub(crate) fn refine_crossing<F: Fn(Point) -> f64>(
        f: &F,
        mut keep: Point,
        mut drop: Point,
    ) -> Point {
        for _ in 0..60 {
            let mid = keep.midpoint(drop);
            if keep.dist(drop) < REFINE_EPS {
                return mid;
            }
            if f(mid) >= 0.0 {
                keep = mid;
            } else {
                drop = mid;
            }
        }
        keep.midpoint(drop)
    }
}

/// Clips a polygon against the sign predicate `f`, keeping the part where
/// `f(p) >= 0`.
///
/// * `f` must be continuous along the polygon boundary; in the UV-diagram it
///   is `distmin(O_i, p) - distmax(O_j, p)` negated appropriately — i.e. the
///   exact outside-region membership test, so clipping never misclassifies a
///   vertex even though the stored boundary is piecewise linear.
/// * `anchor` must be a point with `f(anchor) > 0` (for UV-edges the centre
///   `c_i` of the clipped object always qualifies). It is used to project
///   chord points back onto the curve `f = 0` so the clipped boundary follows
///   the curve instead of cutting straight across.
/// * `curve_samples` controls how many extra vertices are inserted per
///   clipped chord (0 keeps straight chords).
/// * `max_edge_len` subdivides polygon edges longer than this length (for the
///   purpose of sign evaluation only), so that a clip region "biting" into
///   the middle of a long edge without swallowing either endpoint is still
///   detected. Pass `f64::INFINITY` to disable subdivision. When nothing is
///   clipped the original (undensified) polygon is returned, so repeated
///   clipping does not inflate the vertex count.
///
/// Returns the clipped vertex loop. The result is empty when no vertex
/// satisfies the predicate, and equals the input when every vertex does.
pub fn clip_keep<F>(
    poly: &[Point],
    f: &F,
    anchor: Point,
    curve_samples: usize,
    max_edge_len: f64,
) -> Vec<Point>
where
    F: Fn(Point) -> f64,
{
    clip_keep_traced(poly, f, f, anchor, curve_samples, max_edge_len)
}

/// Reusable buffers for [`clip_keep_traced_with`]: the densified vertex loop
/// and its predicate values. Threading one scratch through a clip loop (one
/// per region build, repair pass or worker) drops the two per-clip heap
/// allocations of [`clip_keep_traced`] without changing a single output bit.
#[derive(Debug, Clone, Default)]
pub struct ClipScratch {
    dense: Vec<Point>,
    vals: Vec<f64>,
}

/// Like [`clip_keep`], but the curved boundary between an exit and an entry
/// crossing is traced along the zero set of `f_trace` instead of `f`.
///
/// This is what possible-region clipping uses: `f` is the keep predicate of
/// the *new* UV-edge (which decides which vertices survive and where the
/// boundary crossings are), while `f_trace` is the minimum of the keep
/// predicates of *every* UV-edge applied so far — so the inserted boundary
/// vertices stay on the boundary of the intersection of all constraints and
/// never re-introduce area that an earlier clip removed.
pub fn clip_keep_traced<F, G>(
    poly: &[Point],
    f: &F,
    f_trace: &G,
    anchor: Point,
    curve_samples: usize,
    max_edge_len: f64,
) -> Vec<Point>
where
    F: Fn(Point) -> f64,
    G: Fn(Point) -> f64,
{
    let original_polygon = Polygon::new(poly.to_vec());
    clip_keep_traced_with(
        poly,
        &original_polygon,
        f,
        f_trace,
        anchor,
        curve_samples,
        max_edge_len,
        &mut ClipScratch::default(),
    )
}

/// [`clip_keep_traced`] with caller-provided containment polygon and scratch
/// buffers, for hot clip loops.
///
/// `original_polygon` must be the polygon whose vertex loop is `poly` (the
/// clip's containment test runs against it); callers that already hold a
/// [`Polygon`] pass it directly instead of having every clip rebuild one.
/// Output is bit-identical to [`clip_keep_traced`] for any `poly` in
/// counter-clockwise order (the [`Polygon`] invariant).
#[allow(clippy::too_many_arguments)]
pub fn clip_keep_traced_with<F, G>(
    poly: &[Point],
    original_polygon: &Polygon,
    f: &F,
    f_trace: &G,
    anchor: Point,
    curve_samples: usize,
    max_edge_len: f64,
    scratch: &mut ClipScratch,
) -> Vec<Point>
where
    F: Fn(Point) -> f64,
    G: Fn(Point) -> f64,
{
    if poly.is_empty() {
        return Vec::new();
    }
    let original = poly;
    // Densify long edges so mid-edge incursions of the clip region are seen.
    const MAX_PIECES: usize = 64;
    scratch.dense.clear();
    if max_edge_len <= 0.0 || max_edge_len.is_nan() || max_edge_len.is_infinite() {
        scratch.dense.extend_from_slice(poly);
    } else {
        for i in 0..poly.len() {
            let a = poly[i];
            let b = poly[(i + 1) % poly.len()];
            let pieces = ((a.dist(b) / max_edge_len).ceil() as usize).clamp(1, MAX_PIECES);
            for s in 0..pieces {
                scratch.dense.push(a.lerp(b, s as f64 / pieces as f64));
            }
        }
    }
    let poly = &scratch.dense[..];
    let n = poly.len();
    scratch.vals.clear();
    scratch.vals.extend(poly.iter().map(|p| f(*p)));
    let vals = &scratch.vals[..];
    if vals.iter().all(|v| *v >= 0.0) {
        return original.to_vec();
    }
    if vals.iter().all(|v| *v < 0.0) {
        return Vec::new();
    }

    // Traced curve points must stay inside the polygon being clipped (the
    // zero set of the predicate can have components far away from it, e.g.
    // the second branch of a conic or a constraint's boundary on the other
    // side of the domain).
    let valid = |p: Point| original_polygon.contains(p);

    // Start the boundary walk at a kept vertex so that every entry crossing
    // is preceded by its matching exit crossing (otherwise the exit/entry
    // pair that wraps around the start of the loop would be connected by a
    // straight chord instead of the traced curve).
    let start = vals.iter().position(|v| *v >= 0.0).unwrap_or(0);
    let mut out: Vec<Point> = Vec::with_capacity(n + 8);
    for offset in 0..n {
        let i = (start + offset) % n;
        let j = (i + 1) % n;
        let (a, fa) = (poly[i], vals[i]);
        let (b, fb) = (poly[j], vals[j]);
        if fa >= 0.0 {
            out.push(a);
        }
        if (fa >= 0.0) != (fb >= 0.0) {
            // Boundary crossing between a and b.
            let crossing = if fa >= 0.0 {
                refine_crossing(f, a, b)
            } else {
                refine_crossing(f, b, a)
            };
            if fa >= 0.0 {
                // Leaving the kept region: remember the exit point; curve
                // points are added when we re-enter.
                out.push(crossing);
            } else {
                // Re-entering: connect the previous exit point to this entry
                // point along the boundary of the kept region.
                if curve_samples > 0 {
                    if let Some(&exit) = out.last() {
                        // The recursion is bounded both by the target chord
                        // length and by a hard depth cap (2^10 - 1 points).
                        let target = if max_edge_len.is_finite() {
                            max_edge_len
                        } else {
                            exit.dist(crossing) / (curve_samples + 1) as f64
                        };
                        trace_curve(
                            f_trace, &valid, anchor, exit, crossing, 10, target, &mut out,
                        );
                    }
                }
                out.push(crossing);
            }
        }
    }
    dedup_loop(out)
}

/// Recursively subdivides the curve `f = 0` between two points already on it,
/// appending the interior points (exclusive of the endpoints) to `out` in
/// order from `a` to `b`.
///
/// The midpoint of every chord is pushed onto the curve along the chord's
/// normal (falling back to the direction towards `anchor` when the normal
/// search fails), which keeps the inserted vertices evenly spread along the
/// curve instead of clustering around a single projection centre. Candidate
/// points are only accepted when `valid` holds (callers pass containment in
/// the pre-clip polygon, so the trace never wanders onto a far-away part of
/// the zero set). Recursion stops once a chord is shorter than `target_len`
/// (or `depth` is exhausted).
#[allow(clippy::too_many_arguments)]
fn trace_curve<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
    f: &F,
    valid: &V,
    anchor: Point,
    a: Point,
    b: Point,
    depth: usize,
    target_len: f64,
    out: &mut Vec<Point>,
) {
    if depth == 0 {
        return;
    }
    let chord = b - a;
    let len = chord.norm();
    if len < REFINE_EPS || len <= target_len {
        return;
    }
    let mid = a.midpoint(b);
    let projected = project_to_curve(
        f,
        valid,
        mid,
        Point::new(-chord.y / len, chord.x / len),
        len,
    )
    .or_else(|| {
        // Fall back to projecting towards the anchor (which has f > 0).
        if f(mid) < 0.0 {
            Some(refine_crossing(f, anchor, mid)).filter(|p| valid(*p))
        } else if valid(mid) {
            Some(mid)
        } else {
            None
        }
    });
    let Some(p) = projected else {
        // No acceptable curve point between a and b: keep the straight chord.
        return;
    };
    trace_curve(f, valid, anchor, a, p, depth - 1, target_len, out);
    out.push(p);
    trace_curve(f, valid, anchor, p, b, depth - 1, target_len, out);
}

/// Finds a point with `f = 0` near `start` by searching along `+/- normal`
/// with an expanding step, then refining by bisection. Only crossings whose
/// refined point satisfies `valid` are accepted (the zero set may have other,
/// far-away components that must not be picked up).
fn project_to_curve<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
    f: &F,
    valid: &V,
    start: Point,
    normal: Point,
    scale: f64,
) -> Option<Point> {
    let f0 = f(start);
    if f0.abs() <= 0.0 && valid(start) {
        return Some(start);
    }
    let mut step = scale * 0.25;
    for _ in 0..6 {
        for dir in [1.0, -1.0] {
            let probe = start + normal * (step * dir);
            let fp = f(probe);
            if (fp >= 0.0) != (f0 >= 0.0) {
                // Sign change between start and probe: bisect.
                let candidate = if f0 >= 0.0 {
                    refine_crossing(f, start, probe)
                } else {
                    refine_crossing(f, probe, start)
                };
                if valid(candidate) {
                    return Some(candidate);
                }
            }
        }
        step *= 2.0;
    }
    None
}

/// Removes consecutive (and wrap-around) duplicate vertices.
fn dedup_loop(mut pts: Vec<Point>) -> Vec<Point> {
    pts.dedup_by(|a, b| a.dist(*b) <= REFINE_EPS);
    while pts.len() > 1 && pts[0].dist(*pts.last().unwrap()) <= REFINE_EPS {
        pts.pop();
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn unit_square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]
    }

    #[test]
    fn area_and_orientation() {
        let p = Polygon::new(unit_square());
        assert!(approx_eq(p.area(), 16.0));
        // Clockwise input is normalised.
        let mut rev = unit_square();
        rev.reverse();
        let p2 = Polygon::new(rev);
        assert!(approx_eq(p2.area(), 16.0));
        assert!(signed_area2(p2.vertices()) > 0.0);
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let p = Polygon::new(unit_square());
        assert!(p.contains(Point::new(2.0, 2.0)));
        assert!(p.contains(Point::new(0.0, 2.0)));
        assert!(p.contains(Point::new(4.0, 4.0)));
        assert!(!p.contains(Point::new(4.5, 2.0)));
        assert!(!p.contains(Point::new(-0.5, -0.5)));
        assert!(!Polygon::empty().contains(Point::origin()));
    }

    #[test]
    fn centroid_and_max_dist() {
        let p = Polygon::new(unit_square());
        let c = p.centroid().unwrap();
        assert!(approx_eq(c.x, 2.0));
        assert!(approx_eq(c.y, 2.0));
        assert!(approx_eq(p.max_dist_from(c), 8.0_f64.sqrt()));
        assert!(Polygon::empty().centroid().is_none());
    }

    #[test]
    fn clip_by_halfplane_keeps_expected_area() {
        // Keep the half-plane x <= 2 of the 4x4 square.
        let f = |p: Point| 2.0 - p.x;
        let clipped = clip_keep(&unit_square(), &f, Point::new(0.0, 2.0), 0, f64::INFINITY);
        let poly = Polygon::new(clipped);
        assert!((poly.area() - 8.0).abs() < 1e-5);
        for v in poly.vertices() {
            assert!(v.x <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn clip_all_kept_or_all_dropped() {
        let square = unit_square();
        let keep_all = clip_keep(&square, &|_p| 1.0, Point::origin(), 4, f64::INFINITY);
        assert_eq!(keep_all.len(), 4);
        let drop_all = clip_keep(&square, &|_p| -1.0, Point::origin(), 4, f64::INFINITY);
        assert!(drop_all.is_empty());
        // Subdivision never inflates a fully-kept polygon.
        let dense = clip_keep(&square, &|_p| 1.0, Point::origin(), 4, 0.5);
        assert_eq!(dense.len(), 4);
    }

    #[test]
    fn clip_by_circle_follows_curve() {
        // Remove the disk of radius 2 centred at (5, 2) (keep f >= 0 with
        // f = dist - 2). The removed part of the square is the half-disk
        // poking through the right edge. The clipped boundary should bend
        // around the circle rather than cut straight across when curve
        // samples are requested.
        let center = Point::new(5.0, 2.0);
        let f = |p: Point| p.dist(center) - 2.0;
        let anchor = Point::new(0.0, 2.0);
        let straight = Polygon::new(clip_keep(&unit_square(), &f, anchor, 0, 0.5));
        let curved = Polygon::new(clip_keep(&unit_square(), &f, anchor, 16, 0.5));
        // Exact remaining area = 16 - area of the disk part with x <= 4.
        // Circular segment cut by the chord at distance 1 from the centre:
        // r^2 * acos(d/r) - d * sqrt(r^2 - d^2) with r = 2, d = 1.
        let segment = 4.0 * (0.5_f64).acos() - 3.0_f64.sqrt();
        let exact = 16.0 - segment;
        assert!(
            (curved.area() - exact).abs() < 0.05,
            "curved area {} vs exact {exact}",
            curved.area()
        );
        // The curved approximation should be at least as good as the straight
        // chord version.
        assert!((curved.area() - exact).abs() <= (straight.area() - exact).abs() + 1e-9);
        // Every inserted vertex stays in the kept region (up to tolerance).
        for v in curved.vertices() {
            assert!(f(*v) >= -1e-6);
        }
    }

    #[test]
    fn clip_detects_mid_edge_incursion() {
        // A disk biting into the middle of the right edge without containing
        // any original vertex: only edge subdivision can detect it.
        let center = Point::new(4.0, 2.0);
        let f = |p: Point| p.dist(center) - 1.0;
        let anchor = Point::new(0.0, 2.0);
        let blind = Polygon::new(clip_keep(&unit_square(), &f, anchor, 16, f64::INFINITY));
        let aware = Polygon::new(clip_keep(&unit_square(), &f, anchor, 16, 0.5));
        // Without subdivision the bite is missed entirely.
        assert!(approx_eq(blind.area(), 16.0));
        let exact = 16.0 - std::f64::consts::PI / 2.0;
        assert!(
            (aware.area() - exact).abs() < 0.05,
            "aware area {}",
            aware.area()
        );
    }

    fn point_in(range: f64) -> impl Strategy<Value = Point> {
        (-range..range, -range..range).prop_map(|(x, y)| Point::new(x, y))
    }

    /// A star-shaped loop around the origin: one vertex per angle step at a
    /// random radius, snapped to a coarse grid half the time so collinear
    /// edges, shared coordinates and on-edge query points occur.
    fn star_polygon() -> impl Strategy<Value = Polygon> {
        (prop::collection::vec(1.0..50.0f64, 3..40), prop::bool::ANY).prop_map(|(radii, snap)| {
            let n = radii.len();
            let vertices = radii
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let a = std::f64::consts::TAU * i as f64 / n as f64;
                    let p = Point::new(r * a.cos(), r * a.sin());
                    if snap {
                        Point::new(p.x.round(), p.y.round())
                    } else {
                        p
                    }
                })
                .collect();
            Polygon::new(vertices)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The edge walk without `% n` and the box-first `on_segment` give
        /// the replaced forms' verdicts, on and off the boundary.
        #[test]
        fn contains_matches_the_reference(
            poly in star_polygon(),
            q in point_in(60.0),
            pick in 0usize..64,
            t in 0.0..1.0f64,
        ) {
            prop_assert_eq!(poly.contains(q), reference::contains(&poly, q));
            // A point on (or rounded next to) an edge.
            let v = poly.vertices();
            let a = v[pick % v.len()];
            let b = v[(pick + 1) % v.len()];
            let on = a.lerp(b, t);
            prop_assert_eq!(poly.contains(on), reference::contains(&poly, on));
            prop_assert_eq!(on_segment(a, b, on), reference::on_segment(a, b, on));
            prop_assert_eq!(on_segment(a, b, q), reference::on_segment(a, b, q));
            let vertex = v[pick % v.len()];
            prop_assert_eq!(poly.contains(vertex), reference::contains(&poly, vertex));
        }

        /// Branch-free bisection returns the replaced form's point, bit for
        /// bit.
        #[test]
        fn refine_crossing_matches_the_reference(
            center in point_in(100.0),
            radius in 0.5..80.0f64,
            inside in point_in(100.0),
            dir in 0.0..std::f64::consts::TAU,
        ) {
            let f = |p: Point| radius - p.dist(center);
            let keep = if f(inside) >= 0.0 { inside } else { center };
            let drop = Point::new(
                center.x + 3.0 * radius * dir.cos(),
                center.y + 3.0 * radius * dir.sin(),
            );
            let a = refine_crossing(&f, keep, drop);
            let b = reference::refine_crossing(&f, keep, drop);
            prop_assert_eq!((a.x.to_bits(), a.y.to_bits()), (b.x.to_bits(), b.y.to_bits()));
        }
    }

    #[test]
    fn dedup_loop_removes_duplicates() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ];
        let out = dedup_loop(pts);
        assert_eq!(out.len(), 3);
    }
}
