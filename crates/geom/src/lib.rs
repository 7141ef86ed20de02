//! 2-D geometry kernel used throughout the UV-diagram reproduction.
//!
//! The kernel provides the primitives the paper's constructions rely on:
//!
//! * [`Point`] / [`Circle`] / [`Rect`] — uncertainty regions, node regions and
//!   minimum bounding circles, together with the `distmin` / `distmax`
//!   distances of Equations (2) and (3) of the paper.
//! * [`Polygon`] and [`convex_hull`] — possible regions and their convex
//!   hulls, used by C-pruning (Lemma 3).
//! * [`Hyperbola`] — the UV-edge of Equation (5), exposed both in closed form
//!   (centre, semi-axes, rotation) and as the exact *outside-region* sign
//!   predicate used for clipping, pruning and the 4-point overlap test
//!   (Lemma 4).
//!
//! All computations are `f64`; tolerance-sensitive comparisons go through
//! [`EPS`] or an explicitly supplied epsilon.
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub mod circle;
pub mod codec;
pub mod hull;
pub mod hyperbola;
pub mod point;
pub mod polygon;
pub mod rect;

pub use circle::Circle;
pub use hull::{convex_hull, hull_contains};
pub use hyperbola::{Hyperbola, OutsideRegion};
pub use point::Point;
pub use polygon::{
    clip_keep, clip_keep_traced, clip_keep_traced_with, ClipScratch, ContainmentIndex, Polygon,
};
pub use rect::Rect;

/// Default absolute tolerance for geometric comparisons.
pub const EPS: f64 = 1e-9;

/// Relative/absolute tolerance used when refining curve/segment intersections
/// by bisection. Chosen so that boundary vertices of clipped possible regions
/// are accurate to well below the page-grid resolution used by the UV-index.
pub const REFINE_EPS: f64 = 1e-7;

/// Returns `true` when `a` and `b` are equal within [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-3));
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(1e9, 1e9 + 0.5e-1 * EPS * 1e9));
    }
}
