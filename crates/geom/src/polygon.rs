//! Simple polygons and predicate-based clipping.
//!
//! Possible regions (`P_i` in the paper) are stored as polygons whose
//! boundary approximates the true region bounded by hyperbolic UV-edges.
//! Clipping a possible region by the *outside region* of a UV-edge
//! (Algorithm 1, Step 6) is performed with [`clip_keep`]: the exact sign
//! predicate decides which side a point is on, boundary crossings are refined
//! by bisection and extra vertices are inserted along the curved boundary so
//! that the stored polygon follows the hyperbola to a configurable density.
//!
//! # The clip kernel
//!
//! One clip densifies the vertex loop and evaluates the keep predicate at
//! every vertex, refines each sign change to a boundary crossing by
//! bisection, traces the curve between every exit crossing and the entry
//! crossing that follows it, and drops duplicate vertices. Tracing dominates
//! a cr-derivation; three devices make it cheaper without moving an output
//! bit:
//!
//! * **Indexed containment.** A traced point is only accepted inside the
//!   pre-clip polygon, and [`ContainmentIndex`] answers that test from the
//!   edges bucketed by y. [`Polygon::contains`] returns `true` on any
//!   on-edge hit, otherwise the parity of the edges crossing the ray towards
//!   `+x`; neither depends on edge order. An edge can only hold or cross `q`
//!   when its y-extent, widened by [`EPS`] with the same expressions the
//!   on-edge test compares against, reaches `q.y`. The bucket of a y value
//!   is monotone in y, so storing each edge in every bucket its widened
//!   extent touches puts it in the bucket of every point it can hold or
//!   cross, and the walk over that bucket gives the full walk's verdict.
//! * **Level-order tracing.** The curve between two crossings is subdivided
//!   by projecting chord midpoints onto it. A chord's projection depends only
//!   on its two end points (the predicate, the containment polygon and the
//!   anchor are fixed for the whole clip), so the subdivision runs one depth
//!   at a time: every chord of a depth is projected together, and their
//!   bisections advance in lockstep, whose independent dependency chains the
//!   CPU overlaps. Each lane performs the scalar loop's floating-point
//!   operations unchanged, so the same tree of points is built and emitted
//!   in the same in-order sequence as a depth-first recursion.
//! * **A square-root-free bisection stop.** Bisection stops once the bracket
//!   is shorter than [`REFINE_EPS`]; the test compares the squared length
//!   with the largest `f64` whose square root is below `REFINE_EPS`. `sqrt`
//!   is correctly rounded and monotone, so the two tests agree on every
//!   input.
//!
//! The replaced forms stay in the test-only `reference` module as the
//! oracles of the bit-identity tests.

use crate::{Point, Rect, EPS, REFINE_EPS};
use serde::{Deserialize, Serialize};

/// The largest `f64` whose square root is below [`REFINE_EPS`]
/// (`9.999999999999997e-15`): `d2.sqrt() < REFINE_EPS` exactly when
/// `d2 <= REFINE_EPS_SQ`.
const REFINE_EPS_SQ: f64 = f64::from_bits(0x3d06_849b_86a1_2b99);

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
    /// crossing parity — is the same as a walk in any other order. For many
    /// tests against one polygon, [`ContainmentIndex`] gives the same verdict
    /// from fewer edges.
    pub fn contains(&self, q: Point) -> bool {
        if self.is_empty() {
            return false;
        }
        edge_walk(self.edges(), q)
    }

    /// The edges `(v[i-1], v[i])`, starting with the closing edge.
    fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let mut a = self.vertices[self.vertices.len() - 1];
        self.vertices
            .iter()
            .map(move |&b| (std::mem::replace(&mut a, b), b))
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

/// The containment verdict over `edges`, each taken in its own orientation:
/// `true` as soon as `q` lies on an edge, otherwise the parity of the edges
/// crossing the ray from `q` towards `+x`. Neither depends on edge order.
#[inline]
fn edge_walk(edges: impl IntoIterator<Item = (Point, Point)>, q: Point) -> bool {
    let mut inside = false;
    for (a, b) in edges {
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

/// [`Polygon::contains`] for many queries against one polygon: its edges
/// bucketed by y, so a query walks only the edges whose y-extent, widened by
/// [`EPS`], reaches it. The verdict equals [`Polygon::contains`] for every
/// query point, non-finite ones included (the module docs give the
/// argument). [`ContainmentIndex::rebuild`] reuses the index's buffers.
#[derive(Debug, Clone, Default)]
pub struct ContainmentIndex {
    buckets: Buckets,
    /// The vertex loop closed at both ends, `v[n-1], v[0], .., v[n-1]`:
    /// edge `e` is `(ring[e], ring[e + 1])`, oriented as in the polygon.
    ring: Vec<Point>,
    /// Bucket `k` holds the edges `edges[starts[k]..starts[k + 1]]`; empty
    /// when the polygon has fewer than three vertices and contains nothing.
    starts: Vec<usize>,
    /// Edge numbers grouped by bucket.
    edges: Vec<usize>,
    /// While building: each edge's first and last bucket, and each bucket's
    /// next free slot in `edges`.
    spans: Vec<(usize, usize)>,
    fill: Vec<usize>,
}

/// `last + 1` equal-height y-buckets from `y0` up: values below `y0` and NaN
/// fall in the first bucket, values past the top in the last.
#[derive(Debug, Clone, Copy, Default)]
struct Buckets {
    y0: f64,
    /// Buckets per unit of y (0 with a single bucket).
    scale: f64,
    last: usize,
}

impl Buckets {
    /// The bucket of `y`: monotone in `y` (subtraction, multiplication by a
    /// non-negative scale and the saturating cast all are), with NaN in
    /// bucket 0.
    #[inline]
    fn of(&self, y: f64) -> usize {
        (((y - self.y0) * self.scale) as usize).min(self.last)
    }

    /// The first and last bucket the y-extent of edge `ab` touches, widened
    /// by `EPS` exactly as [`on_segment`] widens it.
    #[inline]
    fn extent(&self, a: Point, b: Point) -> (usize, usize) {
        (self.of(a.y.min(b.y) - EPS), self.of(a.y.max(b.y) + EPS))
    }
}

impl ContainmentIndex {
    /// The index of `poly`.
    pub fn new(poly: &Polygon) -> Self {
        let mut index = Self::default();
        index.rebuild(poly);
        index
    }

    /// Re-indexes the edges of `poly`, reusing this index's allocations.
    ///
    /// There is one bucket per vertex, or fewer when the boundary sweeps the
    /// y-range many times (a zigzag), which keeps the stored entries below
    /// four per edge. A polygon with a non-finite or zero y-range gets a
    /// single bucket: the plain walk.
    pub fn rebuild(&mut self, poly: &Polygon) {
        self.ring.clear();
        self.starts.clear();
        self.edges.clear();
        if poly.is_empty() {
            return;
        }
        let n = poly.len();
        self.ring.push(poly.vertices[n - 1]);
        self.ring.extend_from_slice(&poly.vertices);
        let (mut lo, mut hi, mut travel) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for w in self.ring.windows(2) {
            lo = lo.min(w[1].y);
            hi = hi.max(w[1].y);
            travel += (w[1].y - w[0].y).abs();
        }
        let span = hi - lo;
        let count = (((2 * n) as f64 * (span / travel)) as usize).min(n);
        let scale = count as f64 / span;
        let single = count <= 1 || !(scale.is_finite() && scale > 0.0);
        let buckets = Buckets {
            y0: lo,
            scale: if single { 0.0 } else { scale },
            last: if single { 0 } else { count - 1 },
        };
        self.buckets = buckets;
        // Count each bucket's edges, turn the counts into start offsets,
        // then place every edge in each bucket its extent touches.
        self.spans.clear();
        self.starts.resize(buckets.last + 2, 0);
        for w in self.ring.windows(2) {
            let (first, last) = buckets.extent(w[0], w[1]);
            self.spans.push((first, last));
            for count in &mut self.starts[first + 1..=last + 1] {
                *count += 1;
            }
        }
        for k in 0..=buckets.last {
            self.starts[k + 1] += self.starts[k];
        }
        self.edges.resize(self.starts[buckets.last + 1], 0);
        self.fill.clear();
        self.fill.extend_from_slice(&self.starts[..=buckets.last]);
        for (e, &(first, last)) in self.spans.iter().enumerate() {
            for at in &mut self.fill[first..=last] {
                self.edges[*at] = e;
                *at += 1;
            }
        }
    }

    /// `true` when `q` lies inside or on the indexed polygon — exactly
    /// [`Polygon::contains`].
    pub fn contains(&self, q: Point) -> bool {
        if self.starts.is_empty() {
            return false;
        }
        let k = self.buckets.of(q.y);
        let edges = self.edges[self.starts[k]..self.starts[k + 1]].iter();
        edge_walk(edges.map(|&e| (self.ring[e], self.ring[e + 1])), q)
    }
}

/// Finds a point on the zero level set of `f` on the segment `[keep, drop]`
/// where `f(keep) >= 0 > f(drop)`, by bisection: [`refine_lockstep`] on one
/// bracket.
fn refine_crossing<F: Fn(Point) -> f64>(f: &F, keep: Point, drop: Point) -> Point {
    let mut bracket = [Bracket::new(keep, drop, 0)];
    refine_lockstep(f, &mut bracket);
    bracket[0].at
}

/// A bisection bracket `[keep, drop]` with `f(keep) >= 0 > f(drop)`, the
/// point it refines to, and the projection lane it serves.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    keep: Point,
    drop: Point,
    at: Point,
    lane: usize,
}

impl Bracket {
    fn new(keep: Point, drop: Point, lane: usize) -> Self {
        Self {
            keep,
            drop,
            at: keep,
            lane,
        }
    }
}

/// Bisects every bracket to a point on the zero level set of `f` and stores
/// it in the bracket's `at`. Each bracket runs the scalar loop unchanged — at
/// most 60 steps, stopping with the midpoint once the bracket is shorter than
/// [`REFINE_EPS`] — but the loops are interleaved, one step per bracket per
/// pass, so the brackets' independent predicate evaluations overlap. A
/// finished bracket swaps behind the live ones. Each step selects the new
/// end points without a branch: the sign of `f` at the midpoint is
/// unpredictable, so a data dependency beats a mispredicted jump.
fn refine_lockstep<F: Fn(Point) -> f64>(f: &F, brackets: &mut [Bracket]) {
    let mut live = brackets.len();
    for _ in 0..60 {
        if live == 0 {
            return;
        }
        let mut k = 0;
        while k < live {
            let b = &mut brackets[k];
            let mid = b.keep.midpoint(b.drop);
            if b.keep.dist_sq(b.drop) <= REFINE_EPS_SQ {
                b.at = mid;
                live -= 1;
                brackets.swap(k, live);
                continue;
            }
            let kept = f(mid) >= 0.0;
            b.keep = if kept { mid } else { b.keep };
            b.drop = if kept { b.drop } else { mid };
            k += 1;
        }
    }
    for b in &mut brackets[..live] {
        b.at = b.keep.midpoint(b.drop);
    }
}

/// Depths a traced curve is subdivided to: at most `2^TRACE_DEPTH - 1`
/// points per traced segment.
const TRACE_DEPTH: usize = 10;

/// Probes per chord projection: six step sizes, each tried along the
/// chord normal and then against it.
const PROBES: u8 = 12;

/// What a projection lane does next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Probing along the chord normal for a sign change of `f`.
    Probe,
    /// Bisecting the sign change a probe found.
    ProbeBisect,
    /// Bisecting towards the anchor, the last resort.
    AnchorBisect,
    /// Finished, with the accepted curve point if there is one.
    Done(Option<Point>),
}

/// One chord midpoint's projection onto the curve `f = 0`: the search of
/// `reference::project_to_curve` and its anchor fallback, suspended at every
/// bisection so that all lanes of a depth bisect together.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The gap of the traced point sequence the chord spans.
    gap: usize,
    /// The chord midpoint, where the search starts.
    start: Point,
    /// The unit chord normal.
    normal: Point,
    /// `f(start)`.
    f0: f64,
    /// Distance of the next probe pair.
    step: f64,
    /// Probes taken.
    probes: u8,
    stage: Stage,
}

impl Lane {
    /// The lane of the chord `ab` with `len = |b - a| > 0`, finished at once
    /// when the midpoint already lies on the curve and is acceptable.
    fn new<F, V>(f: &F, valid: &V, gap: usize, a: Point, b: Point, len: f64) -> Self
    where
        F: Fn(Point) -> f64,
        V: Fn(Point) -> bool,
    {
        let chord = b - a;
        let start = a.midpoint(b);
        let f0 = f(start);
        let stage = if f0.abs() <= 0.0 && valid(start) {
            Stage::Done(Some(start))
        } else {
            Stage::Probe
        };
        Self {
            gap,
            start,
            normal: Point::new(-chord.y / len, chord.x / len),
            f0,
            step: len * 0.25,
            probes: 0,
            stage,
        }
    }

    /// Runs the search up to its next bisection and returns that bracket, or
    /// `None` when the lane is finished (or already waits on a bisection).
    fn advance<F, V>(&mut self, f: &F, valid: &V, anchor: Point) -> Option<(Point, Point)>
    where
        F: Fn(Point) -> f64,
        V: Fn(Point) -> bool,
    {
        if self.stage != Stage::Probe {
            return None;
        }
        while self.probes < PROBES {
            // Each step is tried along the normal, then against it; the
            // step doubles after the pair.
            let along = self.probes.is_multiple_of(2);
            let dir = if along { 1.0 } else { -1.0 };
            let probe = self.start + self.normal * (self.step * dir);
            self.probes += 1;
            if !along {
                self.step *= 2.0;
            }
            let fp = f(probe);
            if (fp >= 0.0) != (self.f0 >= 0.0) {
                self.stage = Stage::ProbeBisect;
                return Some(if self.f0 >= 0.0 {
                    (self.start, probe)
                } else {
                    (probe, self.start)
                });
            }
        }
        // No probe crossing: project towards the anchor (which has f > 0).
        if self.f0 < 0.0 {
            self.stage = Stage::AnchorBisect;
            return Some((anchor, self.start));
        }
        self.stage = Stage::Done(valid(self.start).then_some(self.start));
        None
    }

    /// Takes the point a bisection refined to: accepted when `valid`, else a
    /// probe's search goes on and the anchor fallback gives up.
    fn settle<V: Fn(Point) -> bool>(&mut self, at: Point, valid: &V) {
        let accepted = valid(at);
        self.stage = match self.stage {
            Stage::ProbeBisect if !accepted => Stage::Probe,
            _ => Stage::Done(accepted.then_some(at)),
        };
    }

    /// The accepted curve point of a finished lane.
    fn found(&self) -> Option<Point> {
        match self.stage {
            Stage::Done(p) => p,
            _ => None,
        }
    }
}

/// Reusable buffers of [`trace_curve`]: the traced point sequence at the
/// current and the next depth, which of their gaps still subdivide, and the
/// depth's projection lanes and bisection brackets.
#[derive(Debug, Clone, Default)]
struct TraceScratch {
    points: Vec<Point>,
    next_points: Vec<Point>,
    open: Vec<bool>,
    next_open: Vec<bool>,
    lanes: Vec<Lane>,
    brackets: Vec<Bracket>,
}

/// Subdivides the curve `f = 0` between `exit` and `entry` (both on it) and
/// appends the points strictly between them to `out`, in order from `exit`.
///
/// Every chord's midpoint is pushed onto the curve along the chord's normal
/// (falling back to the direction towards `anchor` when the normal search
/// fails), which keeps the inserted vertices evenly spread along the curve
/// instead of clustering around a single projection centre. Candidate points
/// are only accepted when `valid` holds (callers pass containment in the
/// pre-clip polygon, so the trace never wanders onto a far-away part of the
/// zero set). A chord stays straight once it is shorter than `target_len`,
/// after [`TRACE_DEPTH`] depths, or when no acceptable curve point exists.
///
/// The subdivision runs one depth at a time (see the module docs) and emits
/// exactly the points, in exactly the order, of the depth-first recursion it
/// replaced.
#[allow(clippy::too_many_arguments)]
fn trace_curve<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
    f: &F,
    valid: &V,
    anchor: Point,
    exit: Point,
    entry: Point,
    target_len: f64,
    out: &mut Vec<Point>,
    scratch: &mut TraceScratch,
) {
    let TraceScratch {
        points,
        next_points,
        open,
        next_open,
        lanes,
        brackets,
    } = scratch;
    points.clear();
    points.extend([exit, entry]);
    open.clear();
    open.push(true);
    for _ in 0..TRACE_DEPTH {
        lanes.clear();
        for (gap, is_open) in open.iter_mut().enumerate() {
            if !*is_open {
                continue;
            }
            let (a, b) = (points[gap], points[gap + 1]);
            let len = (b - a).norm();
            if len < REFINE_EPS || len <= target_len {
                *is_open = false;
                continue;
            }
            lanes.push(Lane::new(f, valid, gap, a, b, len));
        }
        if lanes.is_empty() {
            break;
        }
        project_lanes(f, valid, anchor, lanes, brackets);
        next_points.clear();
        next_open.clear();
        let mut done = lanes.iter().peekable();
        for (gap, &point) in points[..open.len()].iter().enumerate() {
            next_points.push(point);
            match done.next_if(|lane| lane.gap == gap).and_then(Lane::found) {
                Some(p) => {
                    next_points.push(p);
                    next_open.extend([true, true]);
                }
                None => next_open.push(false),
            }
        }
        next_points.push(entry);
        std::mem::swap(points, next_points);
        std::mem::swap(open, next_open);
    }
    out.extend_from_slice(&points[1..points.len() - 1]);
}

/// Runs every lane's projection to the end, in rounds: a round advances each
/// lane to its next bisection, then bisects all of the round's brackets in
/// lockstep and hands each lane its refined point.
fn project_lanes<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
    f: &F,
    valid: &V,
    anchor: Point,
    lanes: &mut [Lane],
    brackets: &mut Vec<Bracket>,
) {
    loop {
        brackets.clear();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if let Some((keep, drop)) = lane.advance(f, valid, anchor) {
                brackets.push(Bracket::new(keep, drop, i));
            }
        }
        if brackets.is_empty() {
            return;
        }
        refine_lockstep(f, brackets);
        for b in brackets.iter() {
            lanes[b.lane].settle(b.at, valid);
        }
    }
}

/// The forms this module's kernels replaced, kept as the oracles of their
/// bit-identity tests.
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

    /// The depth-first trace: subdivides the chord `ab` at its projected
    /// midpoint, then each half, down to `depth` levels.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_curve<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
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
            return;
        };
        trace_curve(f, valid, anchor, a, p, depth - 1, target_len, out);
        out.push(p);
        trace_curve(f, valid, anchor, p, b, depth - 1, target_len, out);
    }

    /// Finds a point with `f = 0` near `start` by searching along
    /// `+/- normal` with an expanding step, then refining by bisection; only
    /// crossings whose refined point satisfies `valid` are accepted.
    pub(crate) fn project_to_curve<F: Fn(Point) -> f64, V: Fn(Point) -> bool>(
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
/// and its predicate values, the containment index of the pre-clip polygon
/// and the level-order trace's point and lane buffers. Threading one scratch
/// through a clip loop (one per region build, repair pass or worker) drops
/// the per-clip heap allocations of [`clip_keep_traced`] without changing a
/// single output bit.
#[derive(Debug, Clone, Default)]
pub struct ClipScratch {
    dense: Vec<Point>,
    vals: Vec<f64>,
    index: ContainmentIndex,
    trace: TraceScratch,
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
/// Its [`ContainmentIndex`] is built into `scratch` once per clip, on the
/// first traced segment. Output is bit-identical to [`clip_keep_traced`] for
/// any `poly` in counter-clockwise order (the [`Polygon`] invariant).
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
    let ClipScratch {
        dense,
        vals,
        index,
        trace,
    } = scratch;
    // Densify long edges so mid-edge incursions of the clip region are seen.
    const MAX_PIECES: usize = 64;
    dense.clear();
    if max_edge_len <= 0.0 || max_edge_len.is_nan() || max_edge_len.is_infinite() {
        dense.extend_from_slice(poly);
    } else {
        for i in 0..poly.len() {
            let a = poly[i];
            let b = poly[(i + 1) % poly.len()];
            let pieces = ((a.dist(b) / max_edge_len).ceil() as usize).clamp(1, MAX_PIECES);
            for s in 0..pieces {
                dense.push(a.lerp(b, s as f64 / pieces as f64));
            }
        }
    }
    let poly = &dense[..];
    let n = poly.len();
    vals.clear();
    vals.extend(poly.iter().map(|p| f(*p)));
    let vals = &vals[..];
    if vals.iter().all(|v| *v >= 0.0) {
        return original.to_vec();
    }
    if vals.iter().all(|v| *v < 0.0) {
        return Vec::new();
    }

    // Traced curve points must stay inside the polygon being clipped (the
    // zero set of the predicate can have components far away from it, e.g.
    // the second branch of a conic or a constraint's boundary on the other
    // side of the domain). The index is built on the first traced segment.
    let mut indexed = false;

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
                        // The subdivision is bounded both by the target chord
                        // length and by a hard depth cap (2^10 - 1 points).
                        let target = if max_edge_len.is_finite() {
                            max_edge_len
                        } else {
                            exit.dist(crossing) / (curve_samples + 1) as f64
                        };
                        if !indexed {
                            index.rebuild(original_polygon);
                            indexed = true;
                        }
                        let valid = |p: Point| index.contains(p);
                        trace_curve(
                            f_trace, &valid, anchor, exit, crossing, target, &mut out, trace,
                        );
                    }
                }
                out.push(crossing);
            }
        }
    }
    dedup_loop(out)
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
    use crate::{approx_eq, Circle, OutsideRegion};
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

    /// A rectilinear "histogram" loop: bars of random integer heights over
    /// unit-wide columns, so every top is a horizontal edge and neighbouring
    /// bars share vertical edges.
    fn histogram_polygon() -> impl Strategy<Value = Polygon> {
        prop::collection::vec(1..12i32, 1..16).prop_map(|heights| {
            let m = heights.len() as f64;
            let mut vertices = vec![Point::new(0.0, 0.0), Point::new(m, 0.0)];
            for (i, h) in heights.iter().enumerate().rev() {
                vertices.push(Point::new(i as f64 + 1.0, *h as f64));
                vertices.push(Point::new(i as f64, *h as f64));
            }
            Polygon::new(vertices)
        })
    }

    /// Query points the index must get right beyond random ones: every
    /// vertex, points on (and rounded next to) every edge, points within and
    /// just beyond `EPS` of the y-span's ends, and non-finite points.
    fn probe_points(poly: &Polygon, t: f64) -> Vec<Point> {
        let v = poly.vertices();
        let mut points = Vec::new();
        for (i, a) in v.iter().enumerate() {
            let b = v[(i + 1) % v.len()];
            points.extend([*a, a.lerp(b, t), a.lerp(b, 0.5)]);
            for dy in [0.5 * EPS, 2.0 * EPS] {
                points.extend([Point::new(a.x, a.y + dy), Point::new(a.x, a.y - dy)]);
            }
        }
        let mbr = poly.mbr();
        points.extend([
            Point::new(mbr.min_x, mbr.max_y + 1.0),
            Point::new(mbr.max_x, mbr.min_y - 1.0),
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::NAN),
            Point::new(f64::NEG_INFINITY, 1.0),
            Point::new(f64::INFINITY, 1.0),
            Point::new(1.0, f64::INFINITY),
            Point::new(1.0, f64::NEG_INFINITY),
        ]);
        points
    }

    /// Keep predicate of the intersection of several outside regions around
    /// `subject` — the shape of a possible region's trace predicate.
    fn min_keep(subject: Circle, others: &[Circle], p: Point) -> f64 {
        others
            .iter()
            .map(|o| OutsideRegion::new(subject, *o).keep_signed(p))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn refine_eps_sq_is_the_largest_square_below_the_stop() {
        assert!(REFINE_EPS_SQ.sqrt() < REFINE_EPS);
        assert!(REFINE_EPS_SQ.next_up().sqrt() >= REFINE_EPS);
    }

    #[test]
    fn containment_index_handles_degenerate_polygons() {
        let q = Point::new(0.5, 0.5);
        let cases = [
            Polygon::empty(),
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]),
            // Zero y-span: a flat loop.
            Polygon::new(vec![
                Point::new(0.0, 0.5),
                Point::new(1.0, 0.5),
                Point::new(2.0, 0.5),
            ]),
            // Non-finite vertices: the index falls back to one bucket.
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, f64::INFINITY),
                Point::new(0.0, 1.0),
            ]),
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, f64::NAN),
                Point::new(0.0, 1.0),
            ]),
        ];
        for poly in &cases {
            let index = ContainmentIndex::new(poly);
            for p in probe_points(poly, 0.25).into_iter().chain([q]) {
                assert_eq!(index.contains(p), poly.contains(p), "{poly:?} at {p:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Indexed containment gives `Polygon::contains`' verdict at random
        /// points, on vertices and edges (horizontal ones included), around
        /// the ends of the y-span and at non-finite points — also after the
        /// index is rebuilt from another polygon.
        #[test]
        fn containment_index_matches_contains(
            star in star_polygon(),
            histogram in histogram_polygon(),
            queries in prop::collection::vec(point_in(60.0), 1..24),
            t in 0.0..1.0f64,
        ) {
            let mut index = ContainmentIndex::default();
            for poly in [&star, &histogram] {
                index.rebuild(poly);
                for q in probe_points(poly, t).into_iter().chain(queries.iter().copied()) {
                    prop_assert_eq!(index.contains(q), poly.contains(q));
                }
            }
        }

        /// Level-order tracing with lockstep bisection emits the depth-first
        /// recursion's points, bit for bit and in order, for random subjects,
        /// constraints, chords, target lengths and containment polygons.
        #[test]
        fn level_order_trace_matches_the_recursion(
            subject in (point_in(20.0), 0.0..8.0f64),
            others in prop::collection::vec((point_in(120.0), 0.0..10.0f64), 1..6),
            chord in (0.0..std::f64::consts::TAU, 0.0..std::f64::consts::TAU, prop::bool::ANY),
            ends in (point_in(150.0), point_in(150.0)),
            target in 0.0..40.0f64,
            star in star_polygon(),
        ) {
            let subject = Circle::new(subject.0, subject.1);
            let others: Vec<Circle> = others
                .iter()
                .map(|(c, r)| Circle::new(*c, *r))
                .collect();
            let f = |p: Point| min_keep(subject, &others, p);
            let anchor = subject.center;
            // End points on the curve (bisected out from the anchor), or
            // arbitrary ones.
            let (exit, entry) = if chord.2 {
                let far = |a: f64| anchor + Point::new(a.cos(), a.sin()) * 400.0;
                (
                    reference::refine_crossing(&f, anchor, far(chord.0)),
                    reference::refine_crossing(&f, anchor, far(chord.1)),
                )
            } else {
                ends
            };
            let region = Polygon::new(star.vertices().iter().map(|v| *v * 3.0).collect());
            let index = ContainmentIndex::new(&region);
            let mut fast = Vec::new();
            let mut scratch = TraceScratch::default();
            trace_curve(&f, &|p| index.contains(p), anchor, exit, entry, target, &mut fast, &mut scratch);
            let mut slow = Vec::new();
            reference::trace_curve(&f, &|p| region.contains(p), anchor, exit, entry, TRACE_DEPTH, target, &mut slow);
            let bits = |pts: &[Point]| -> Vec<(u64, u64)> {
                pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            prop_assert_eq!(bits(&fast), bits(&slow));
            // A second trace through the same scratch sees no stale state.
            let mut again = Vec::new();
            trace_curve(&f, &|p| index.contains(p), anchor, entry, exit, target, &mut again, &mut scratch);
            let mut slow_again = Vec::new();
            reference::trace_curve(&f, &|p| region.contains(p), anchor, entry, exit, TRACE_DEPTH, target, &mut slow_again);
            prop_assert_eq!(bits(&again), bits(&slow_again));
        }

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
