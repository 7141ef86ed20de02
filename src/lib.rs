//! UV-Diagram: a Voronoi diagram for uncertain data — umbrella crate.
//!
//! This crate re-exports the whole workspace behind a single dependency and a
//! [`prelude`]. It is what the runnable examples and the integration tests
//! use; library consumers that want finer-grained dependencies can depend on
//! the individual crates directly:
//!
//! | crate | contents |
//! |---|---|
//! | [`geom`] (`uv-geom`) | 2-D geometry kernel: points, circles, rectangles, convex hulls, polygons, hyperbolic UV-edges |
//! | [`data`] (`uv-data`) | uncertain objects, pdfs, qualification probabilities, dataset generators, object storage |
//! | [`store`] (`uv-store`) | simulated 4 KB disk pages with I/O accounting |
//! | [`rtree`] (`uv-rtree`) | packed R-tree baseline: range, k-NN and branch-and-prune PNN queries |
//! | [`core`] (`uv-core`) | the UV-diagram itself: UV-cells, cr-objects, the adaptive UV-index, PNN and pattern queries |
//!
//! # Example
//!
//! ```
//! use uv_diagram::prelude::*;
//!
//! // Generate a small uncertain dataset and build the full system.
//! let dataset = Dataset::generate(GeneratorConfig::paper_uniform(150));
//! let system = UvSystem::with_defaults(dataset.objects.clone(), dataset.domain);
//!
//! // Probabilistic nearest-neighbour query at an arbitrary location.
//! let q = Point::new(5000.0, 5000.0);
//! let answer = system.pnn(q);
//! assert!(!answer.probabilities.is_empty());
//! let total: f64 = answer.probabilities.iter().map(|(_, p)| p).sum();
//! assert!((total - 1.0).abs() < 0.1);
//! ```
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub use uv_core as core;
pub use uv_data as data;
pub use uv_geom as geom;
pub use uv_rtree as rtree;
pub use uv_store as store;

/// Commonly used items, re-exported for `use uv_diagram::prelude::*`.
pub mod prelude {
    pub use uv_core::{
        ClientId, ConstructionStats, Method, PartitionCell, PossibleRegion, QueryEngine,
        SafeRegion, ShardedUpdateStats, ShardedUvSystem, SubscriptionEngine, SubscriptionStats,
        SubscriptionTable, TrajectoryStep, UpdateBatch, UpdateOp, UpdateStats, Updater, UvCell,
        UvConfig, UvError, UvIndex, UvSystem,
    };
    pub use uv_data::{
        AnswerDelta, Dataset, DatasetKind, GeneratorConfig, ObjectId, ObjectStore, Pdf, PnnAnswer,
        QueryBreakdown, UncertainObject,
    };
    pub use uv_geom::{Circle, Point, Rect};
    pub use uv_rtree::{pnn_query, RTree, RTreeConfig};
    pub use uv_store::{IoSnapshot, PageStore};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let dataset = Dataset::generate(GeneratorConfig::paper_uniform(80));
        let system = UvSystem::with_defaults(dataset.objects.clone(), dataset.domain);
        let answer = system.pnn(Point::new(1234.0, 4321.0));
        assert!(answer.best().is_some());
    }
}
