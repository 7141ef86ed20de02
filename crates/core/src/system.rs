//! A batteries-included wrapper bundling every component a UV-diagram
//! deployment needs: the object store, the R-tree (used both as the paper's
//! baseline and as the construction substrate) and the UV-index itself.
//!
//! [`UvSystem`] is what the examples and the experiment harness use; the
//! individual pieces remain available for callers that want to manage
//! storage themselves. [`UvSystem::pnn`] is the scalar Section V-A lookup
//! every other path equals bit for bit; batches and trajectories run the
//! routed serving body of [`crate::engine`], this system being the 1×1
//! layout, and updates end in the grid-repair step shards share too.

use crate::builder::{build_grid, mbcs_of, GridCtx, Method};
use crate::config::UvConfig;
use crate::engine::{QueryEngine, TrajectoryStep};
use crate::index::UvIndex;
use crate::router::{DerivationReport, DerivationRouter};
use crate::stats::ConstructionStats;
use std::collections::HashMap;
use std::sync::Arc;
use uv_data::{ObjectId, ObjectStore, PnnAnswer, UncertainObject};
use uv_geom::{Circle, Point, Rect};
use uv_rtree::{pnn_query, RTree};
use uv_store::PageStore;

/// A complete UV-diagram deployment over one dataset.
///
/// Beyond the paper's frozen-dataset setting, the system is *dynamic*:
/// [`UvSystem::updater`], [`UvSystem::apply`] and the single-op wrappers
/// ([`UvSystem::insert_object`], [`UvSystem::delete_object`],
/// [`UvSystem::move_object`]) maintain every structure incrementally with
/// answers bit-identical to a cold rebuild — see [`crate::update`].
///
/// It is also *durable*: [`UvSystem::save_snapshot`] persists the whole
/// system to a versioned, checksummed binary stream and
/// [`UvSystem::load_snapshot`] reconstructs it query-ready in `O(bytes)`
/// with zero re-derivation — see [`crate::snapshot`].
#[derive(Debug)]
pub struct UvSystem {
    /// Objects, domain, the R-tree and the per-object reference table: the
    /// derivation pipeline every update runs through, and the only owner of
    /// the R-tree. A shard's router never derives — it holds the sharded
    /// system's router states for its halo members.
    pub(crate) router: DerivationRouter,
    pub(crate) object_store: ObjectStore,
    pub(crate) index: UvIndex,
    pub(crate) construction: ConstructionStats,
}

impl UvSystem {
    /// Builds the system over `objects`: the [`DerivationRouter`] (the
    /// R-tree and every object's derivation with `method`, through the
    /// constructor [`DerivationRouter::build`] runs too), then the object
    /// store and the UV-index.
    ///
    /// A configuration that fails [`UvConfig::validate`], or a domain with a
    /// non-finite edge or `min >= max` on an axis, is reported as
    /// [`crate::UvError::InvalidConfig`] — construction never panics on bad
    /// tuning. An object with a non-finite centre, a negative or non-finite
    /// radius, or a histogram with no bars or a negative or non-finite bar
    /// is [`crate::UvError::InvalidObject`]; a repeated id is
    /// [`crate::UvError::DuplicateObject`].
    pub fn build(
        objects: Vec<UncertainObject>,
        domain: Rect,
        method: Method,
        config: UvConfig,
    ) -> Result<Self, crate::UvError> {
        let (router, report) =
            DerivationRouter::build_with_report(objects, domain, method, config)?;
        let object_store = ObjectStore::build(Arc::new(PageStore::new()), &router.objects);
        let mbcs = mbcs_of(&router.objects);
        Ok(Self::assemble(router, object_store, &mbcs, &report))
    }

    /// A shard's system over `members`, indexed from `global`'s reference
    /// table without deriving anything: each member carries its router
    /// state, and overlap tests take referenced MBCs from `mbcs`, which must
    /// cover every object `global` holds (a reference can lie outside the
    /// halo). A shard holds no R-tree: it never derives.
    pub(crate) fn routed(
        members: Vec<UncertainObject>,
        global: &DerivationRouter,
        mbcs: &HashMap<ObjectId, Circle>,
    ) -> Self {
        let object_store = ObjectStore::build(Arc::new(PageStore::new()), &members);
        let router = DerivationRouter::replica(members, global);
        Self::assemble(router, object_store, mbcs, &DerivationReport::default())
    }

    /// The system over `router`'s objects and states: its grid built into a
    /// fresh page store, leaf entries pointing into `object_store`.
    fn assemble(
        router: DerivationRouter,
        object_store: ObjectStore,
        mbcs: &HashMap<ObjectId, Circle>,
        report: &DerivationReport,
    ) -> Self {
        let store = Arc::new(PageStore::new());
        let (index, construction) = index_grid(&router, &object_store, mbcs, report, store);
        Self {
            router,
            object_store,
            index,
            construction,
        }
    }

    /// Builds with the paper's default configuration and the IC method.
    /// Infallible: the default configuration always validates (asserted by
    /// the `uv_core::config` test suite).
    // Cannot fire: the default config always validates (`config.rs` tests).
    #[allow(clippy::expect_used)]
    pub fn with_defaults(objects: Vec<UncertainObject>, domain: Rect) -> Self {
        Self::build(objects, domain, Method::IC, UvConfig::default())
            .expect("the default UvConfig always validates")
    }

    /// The indexed objects. Under dynamic maintenance the slice reflects the
    /// current live set: deletes remove, inserts append, moves mutate in
    /// place (the index itself orders members canonically by id, so slice
    /// order carries no meaning).
    pub fn objects(&self) -> &[UncertainObject] {
        &self.router.objects
    }

    /// The indexed domain. It grows — exponentially, in place, never through
    /// a rebuild — when an update inserts or moves an object beyond it
    /// ([`crate::update::UpdateStats::domain_grown`]).
    pub fn domain(&self) -> Rect {
        self.router.domain
    }

    /// The construction method the system was built with (re-used by
    /// incremental re-derivations).
    pub fn method(&self) -> Method {
        self.router.method
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &UvConfig {
        &self.router.config
    }

    /// Current index epoch: 0 after construction, bumped once per applied
    /// update batch.
    pub fn epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// Objects this system has derived since it was built or loaded: the
    /// build's full table, every re-derived affected set and every
    /// domain-growth re-derivation. A loaded system starts at zero.
    pub fn derivations(&self) -> u64 {
        self.router.derivations()
    }

    /// The retained maintenance state of one object (reference ids and
    /// sensitivity bound), if it is live.
    pub fn object_state(&self, id: ObjectId) -> Option<&crate::update::ObjectState> {
        self.router.object_state(id)
    }

    /// The UV-index.
    pub fn index(&self) -> &UvIndex {
        &self.index
    }

    /// The R-tree over the same objects: the derivation's probe structure
    /// and the Figure 6 baseline. It is index-only — its entries carry the
    /// null record pointer, and [`UvSystem::pnn_rtree`] fetches records by
    /// id. A shard of a [`crate::ShardedUvSystem`] never derives and holds
    /// no R-tree: its tree is empty.
    pub fn rtree(&self) -> &RTree {
        &self.router.rtree
    }

    /// The shared object store (full records with pdfs).
    pub fn object_store(&self) -> &ObjectStore {
        &self.object_store
    }

    /// Statistics of the UV-index construction.
    pub fn construction_stats(&self) -> &ConstructionStats {
        &self.construction
    }

    /// Answers a PNN query with the UV-index (point lookup + verification):
    /// the scalar path of Section V-A, which every batched, routed and
    /// sharded answer equals bit for bit. A point outside the domain, or
    /// with a NaN or infinite coordinate, gets the empty answer.
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        if !q.is_finite() {
            return PnnAnswer::default();
        }
        self.index
            .pnn(&self.object_store, q, self.router.config.integration_steps)
    }

    /// Creates a concurrent batched query engine over this system's index
    /// and object store (worker count and leaf-cache toggle come from the
    /// [`UvConfig`] the system was built with).
    ///
    /// The engine borrows the system; keep it alive across batches to retain
    /// its per-leaf cache. The convenience wrappers [`UvSystem::pnn_batch`]
    /// and [`UvSystem::pnn_trajectory`] build a fresh engine per call.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.index, &self.object_store)
    }

    /// Answers a batch of PNN queries concurrently through the routed view
    /// (this system as the 1×1 layout), in query order and bit-identical to
    /// a loop of [`UvSystem::pnn`]: an unowned point — outside the domain,
    /// or with a NaN or infinite coordinate — gets the empty answer.
    pub fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        self.engine().routed(|view| view.pnn_batch(queries))
    }

    /// Answers a moving-PNN workload (a trajectory of query points),
    /// reporting each step's answer plus the delta against the previous
    /// step's answer set ([`QueryEngine::pnn_trajectory`]). An unowned point
    /// gets the empty answer and is never reused.
    pub fn pnn_trajectory(&self, path: &[Point]) -> Vec<TrajectoryStep> {
        self.engine().pnn_trajectory(path)
    }

    /// Answers the same PNN query with the R-tree branch-and-prune baseline
    /// of \[14\] — the comparison of Figure 6, which runs on an unsharded
    /// system (a shard's empty tree gives the empty answer).
    pub fn pnn_rtree(&self, q: Point) -> PnnAnswer {
        pnn_query(
            &self.router.rtree,
            &self.object_store,
            q,
            self.router.config.integration_steps,
        )
    }

    /// Approximate area of the UV-cell of `id` (Section V-C, query 1).
    pub fn cell_area(&self, id: ObjectId) -> f64 {
        self.index.cell_area(id)
    }

    /// UV-partition query over `region` (Section V-C, query 2).
    pub fn partition_query(&self, region: &Rect) -> Vec<crate::pattern::PartitionCell> {
        self.index.partition_query(region)
    }

    /// Resets every I/O counter (index leaf pages, R-tree leaf pages, object
    /// pages). Call between measurement batches.
    pub fn reset_io(&self) {
        self.index.store().reset_io();
        self.router.rtree.store().reset_io();
        self.object_store.store().reset_io();
    }
}

/// Phase B over `router`'s objects, with leaf entries pointing into
/// `object_store`: the grid built into `store` from their states and
/// `mbcs`, with its construction statistics (`report` is the derivation
/// that produced the states).
pub(crate) fn index_grid(
    router: &DerivationRouter,
    object_store: &ObjectStore,
    mbcs: &HashMap<ObjectId, Circle>,
    report: &DerivationReport,
    store: Arc<PageStore>,
) -> (UvIndex, ConstructionStats) {
    let ctx = GridCtx {
        mbcs,
        object_store,
        states: &router.ref_table,
    };
    build_grid(
        &router.objects,
        &ctx,
        router.domain,
        store,
        router.config,
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use uv_data::{Dataset, GeneratorConfig};

    fn system(n: usize) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let sys = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
        (ds, sys)
    }

    #[test]
    fn uv_index_and_rtree_agree_on_answers() {
        let (ds, sys) = system(250);
        for q in ds.query_points(20, 99) {
            let uv = sys.pnn(q);
            let rt = sys.pnn_rtree(q);
            assert_eq!(
                uv.answer_ids(),
                rt.answer_ids(),
                "answer sets differ at {q:?}"
            );
            // Probabilities agree closely as well (same integration method).
            for (id, p) in &uv.probabilities {
                let p2 = rt
                    .probabilities
                    .iter()
                    .find(|(id2, _)| id2 == id)
                    .map(|(_, p2)| *p2)
                    .unwrap();
                assert!((p - p2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn uv_index_uses_fewer_leaf_ios_than_rtree() {
        let (ds, sys) = system(800);
        let queries = ds.query_points(30, 5);
        sys.reset_io();
        let mut uv_io = 0;
        let mut rt_io = 0;
        for q in &queries {
            uv_io += sys.pnn(*q).breakdown.index_io;
            rt_io += sys.pnn_rtree(*q).breakdown.index_io;
        }
        assert!(
            uv_io < rt_io,
            "UV-index should read fewer leaf pages ({uv_io} vs {rt_io})"
        );
    }

    #[test]
    fn batched_and_trajectory_queries_agree_with_point_lookups() {
        let (ds, sys) = system(200);
        let queries = ds.query_points(16, 13);
        let batch = sys.pnn_batch(&queries);
        for (q, a) in queries.iter().zip(&batch) {
            let single = sys.pnn(*q);
            assert_eq!(a.probabilities, single.probabilities);
            assert_eq!(a.candidates_examined, single.candidates_examined);
        }
        let steps = sys.pnn_trajectory(&queries);
        assert_eq!(steps.len(), queries.len());
        for (step, a) in steps.iter().zip(&batch) {
            assert_eq!(step.answer.probabilities, a.probabilities);
        }
        assert!(sys.engine().workers() >= 1);
    }

    #[test]
    fn every_invalid_config_is_a_typed_error_not_a_panic() {
        // Regression for the `validate().expect(..)` panic that used to sit
        // in the builder: every rejection `UvConfig::validate` can
        // produce must surface as `UvError::InvalidConfig` from the public
        // construction entry points.
        use crate::UvError;

        let ds = Dataset::generate(GeneratorConfig::paper_uniform(30));
        let base = UvConfig::default();
        let bad_configs = [
            UvConfig {
                num_seeds: 0,
                ..base
            },
            UvConfig {
                seed_knn: 0,
                ..base
            },
            UvConfig {
                split_threshold: 1.5,
                ..base
            },
            UvConfig {
                split_threshold: -0.1,
                ..base
            },
            UvConfig {
                max_nonleaf: 0,
                ..base
            },
            UvConfig {
                integration_steps: 1,
                ..base
            },
            UvConfig {
                curve_samples: 0,
                ..base
            },
            UvConfig {
                num_shards: 0,
                ..base
            },
        ];
        for config in bad_configs {
            let expected = config.validate().unwrap_err();
            assert!(matches!(expected, UvError::InvalidConfig(_)));
            let err = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config)
                .expect_err("invalid config must be rejected");
            assert_eq!(err, expected, "UvSystem::build: {config:?}");
        }
    }

    #[test]
    fn accessors_are_consistent() {
        let (ds, sys) = system(150);
        assert_eq!(sys.objects().len(), 150);
        assert_eq!(sys.domain(), ds.domain);
        assert_eq!(sys.construction_stats().objects, 150);
        assert!(sys.cell_area(0) > 0.0);
        assert!(!sys.partition_query(&ds.domain).is_empty());
        assert_eq!(sys.rtree().len(), 150);
        assert_eq!(sys.object_store().len(), 150);
        assert!(sys.index().num_leaf_nodes() >= 1);
    }
}
