//! Branch-and-prune PNN evaluation on the R-tree (the baseline of \[14\]).
//!
//! The query proceeds in two index traversals plus verification:
//!
//! 1. **Bounding pass** — best-first traversal ordered by `distmin` of the
//!    node MBRs to establish `d_minmax`, the smallest maximum distance of any
//!    object from the query point. Nodes whose `distmin` exceeds the current
//!    bound are pruned.
//! 2. **Collection pass** — a second traversal retrieves every object whose
//!    `distmin` does not exceed `d_minmax`; all of them are possible nearest
//!    neighbours.
//! 3. **Verification** — the candidates' pdfs are fetched from the object
//!    store and their qualification probabilities are computed by numerical
//!    integration.
//!
//! The two traversals read many leaf pages, which is exactly the I/O overhead
//! the UV-index avoids (Figures 6(a)–(c)).

use crate::tree::{NodeRef, RTree};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;
use uv_data::{qualification_probabilities, ObjectEntry, ObjectStore, PnnAnswer, QueryBreakdown};
use uv_geom::{Point, EPS};

struct NodeByDist {
    dist: f64,
    node: NodeRef,
}
impl PartialEq for NodeByDist {
    fn eq(&self, other: &Self) -> bool {
        self.dist.total_cmp(&other.dist).is_eq()
    }
}
impl Eq for NodeByDist {}
impl PartialOrd for NodeByDist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NodeByDist {
    // `total_cmp` (reversed: BinaryHeap is a max-heap, the smallest distance
    // must surface first) keeps the order *total* even when a degenerate
    // geometry produces a NaN distance: NaN sorts after every finite value
    // and infinity, so it can never shadow a real node at the top of the
    // heap and silently end pass 1 with a wrong `d_minmax`. The previous
    // `partial_cmp(..).unwrap_or(Equal)` made NaN compare equal to
    // *everything*, which violates Ord's transitivity and corrupts the heap
    // order of unrelated finite entries.
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.total_cmp(&self.dist)
    }
}

/// Evaluates a PNN query at `q` with the branch-and-prune strategy.
///
/// `integration_steps` controls the numerical integration of the final
/// probability computation (the paper uses the method of \[14\]).
pub fn pnn_query(
    tree: &RTree,
    objects: &ObjectStore,
    q: Point,
    integration_steps: usize,
) -> PnnAnswer {
    let mut breakdown = QueryBreakdown::default();
    let Some(root) = tree.root() else {
        return PnnAnswer::default();
    };

    let index_io_before = tree.store().io().reads;
    let t_traversal = Instant::now();

    // ---- Pass 1: establish d_minmax -----------------------------------------
    let mut dminmax = f64::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push(NodeByDist {
        dist: tree.node_mbr(root).dist_min(q),
        node: root,
    });
    while let Some(NodeByDist { dist, node }) = heap.pop() {
        if dist > dminmax + EPS {
            break;
        }
        match node {
            NodeRef::Internal(idx) => {
                for child in &tree.internal(idx).children {
                    let d = tree.node_mbr(*child).dist_min(q);
                    if d <= dminmax + EPS {
                        heap.push(NodeByDist {
                            dist: d,
                            node: *child,
                        });
                    }
                }
            }
            NodeRef::Leaf(idx) => {
                for e in tree.leaf(idx).entries.read_all() {
                    dminmax = dminmax.min(e.dist_max(q));
                }
            }
        }
    }

    // ---- Pass 2: collect all candidates with distmin <= dminmax -------------
    let mut candidates: Vec<ObjectEntry> = Vec::new();
    if dminmax.is_finite() {
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match node {
                NodeRef::Internal(idx) => {
                    let n = tree.internal(idx);
                    if n.mbr.dist_min(q) <= dminmax + EPS {
                        stack.extend(n.children.iter().copied());
                    }
                }
                NodeRef::Leaf(idx) => {
                    let leaf = tree.leaf(idx);
                    if leaf.mbr.dist_min(q) > dminmax + EPS {
                        continue;
                    }
                    for e in leaf.entries.read_all() {
                        if e.dist_min(q) <= dminmax + EPS {
                            candidates.push(e);
                        }
                    }
                }
            }
        }
    }
    breakdown.traversal = t_traversal.elapsed();
    breakdown.index_io = tree.store().io().reads - index_io_before;

    // ---- Verification: fetch pdfs and compute probabilities -----------------
    let object_io_before = objects.store().io().reads;
    let t_retrieval = Instant::now();
    let mut touched = HashSet::new();
    let fetched: Vec<_> = candidates
        .iter()
        .filter_map(|e| objects.fetch(e.id, &mut touched))
        .collect();
    breakdown.retrieval = t_retrieval.elapsed();
    breakdown.object_io = objects.store().io().reads - object_io_before;

    let t_prob = Instant::now();
    let mut probabilities = qualification_probabilities(q, &fetched, integration_steps);
    probabilities.retain(|(_, p)| *p > 0.0);
    breakdown.probability = t_prob.elapsed();

    PnnAnswer {
        probabilities,
        candidates_examined: candidates.len(),
        breakdown,
    }
}

/// Brute-force reference implementation: the answer set computed directly
/// from the object list (used by tests and by the UV-index correctness
/// checks). Returns the ids of all objects whose minimum distance does not
/// exceed the smallest maximum distance.
pub fn brute_force_candidates(objects: &[uv_data::UncertainObject], q: Point) -> Vec<u32> {
    let dminmax = objects
        .iter()
        .map(|o| o.dist_max(q))
        .fold(f64::INFINITY, f64::min);
    let mut ids: Vec<u32> = objects
        .iter()
        .filter(|o| o.dist_min(q) <= dminmax + EPS)
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use std::sync::Arc;
    use uv_data::{Dataset, GeneratorConfig, ObjectStore};
    use uv_store::PageStore;

    fn setup(n: usize) -> (Dataset, ObjectStore, RTree) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        let tree = RTree::bulk_load(
            &ds.objects,
            Arc::clone(&pages),
            RTreeConfig {
                fanout: 16,
                leaf_capacity: 25,
            },
        );
        (ds, objects, tree)
    }

    #[test]
    fn answer_set_matches_brute_force() {
        let (ds, objects, tree) = setup(700);
        for q in ds.query_points(20, 9) {
            let answer = pnn_query(&tree, &objects, q, 100);
            let expected = brute_force_candidates(&ds.objects, q);
            // Every answer object must be a brute-force candidate, and every
            // candidate with non-negligible probability must be found: the
            // candidate sets are identical by construction.
            let mut got: Vec<u32> = answer.probabilities.iter().map(|(id, _)| *id).collect();
            got.sort_unstable();
            for id in &got {
                assert!(expected.contains(id), "{id} not a candidate at {q:?}");
            }
            assert_eq!(answer.candidates_examined, expected.len());
        }
    }

    #[test]
    fn probabilities_are_normalised() {
        let (ds, objects, tree) = setup(400);
        for q in ds.query_points(10, 3) {
            let answer = pnn_query(&tree, &objects, q, 200);
            let total: f64 = answer.probabilities.iter().map(|(_, p)| p).sum();
            assert!(
                (total - 1.0).abs() < 0.05,
                "probabilities sum to {total} at {q:?}"
            );
            assert!(answer.best().is_some());
        }
    }

    #[test]
    fn io_is_charged_and_grows_with_dataset() {
        let (ds_small, objects_small, tree_small) = setup(200);
        let (ds_big, objects_big, tree_big) = setup(3200);
        let avg_io = |ds: &Dataset, objects: &ObjectStore, tree: &RTree| {
            let queries = ds.query_points(20, 11);
            let mut total = 0;
            for q in queries {
                let a = pnn_query(tree, objects, q, 50);
                total += a.breakdown.index_io;
                assert!(a.breakdown.index_io > 0, "leaf reads must be charged");
            }
            total as f64 / 20.0
        };
        let small = avg_io(&ds_small, &objects_small, &tree_small);
        let big = avg_io(&ds_big, &objects_big, &tree_big);
        assert!(
            big >= small,
            "R-tree I/O should not shrink with more objects (small {small}, big {big})"
        );
    }

    #[test]
    fn empty_tree_returns_empty_answer() {
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &[]);
        let tree = RTree::build(&[], pages);
        let answer = pnn_query(&tree, &objects, Point::new(1.0, 1.0), 50);
        assert!(answer.probabilities.is_empty());
        assert_eq!(answer.candidates_examined, 0);
    }

    #[test]
    fn single_object_always_answers_with_probability_one() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(1));
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        let tree = RTree::build(&ds.objects, pages);
        let answer = pnn_query(&tree, &objects, Point::new(9000.0, 200.0), 50);
        assert_eq!(answer.probabilities, vec![(0, 1.0)]);
    }

    #[test]
    fn coincident_objects_keep_the_heap_order_total() {
        // Eight co-located objects produce exact distance ties on every heap
        // comparison; the totally-ordered comparator must keep both passes
        // deterministic and the candidate set complete.
        let pages = Arc::new(PageStore::new());
        let mut objs: Vec<uv_data::UncertainObject> = (0..8)
            .map(|i| uv_data::UncertainObject::with_uniform(i, Point::new(500.0, 500.0), 10.0))
            .collect();
        objs.push(uv_data::UncertainObject::with_uniform(
            8,
            Point::new(900.0, 500.0),
            10.0,
        ));
        let objects = ObjectStore::build(Arc::clone(&pages), &objs);
        let tree = RTree::build(&objs, pages);
        let q = Point::new(500.0, 480.0);
        let answer = pnn_query(&tree, &objects, q, 60);
        assert_eq!(
            answer.candidates_examined, 8,
            "all co-located are candidates"
        );
        assert_eq!(answer.answer_ids(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn nan_distances_order_deterministically_in_the_heap() {
        // Regression for `partial_cmp(..).unwrap_or(Equal)`: a NaN distance
        // compared *equal to everything*, which violates Ord's transitivity —
        // `BinaryHeap` then gives no ordering guarantee at all, so pass 1
        // could pop nodes out of distance order and terminate with a wrong
        // `d_minmax`. Under `total_cmp` the order is total: NaN sorts after
        // +∞ and the finite pop order is exact.
        let mut heap = BinaryHeap::new();
        for dist in [f64::NAN, 1.0, f64::INFINITY, 0.5, f64::NAN, 2.0] {
            heap.push(NodeByDist {
                dist,
                node: NodeRef::Leaf(0),
            });
        }
        let popped: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|n| n.dist)).collect();
        assert_eq!(&popped[..4], &[0.5, 1.0, 2.0, f64::INFINITY]);
        assert!(popped[4].is_nan() && popped[5].is_nan());
    }

    #[test]
    fn degenerate_nan_object_no_longer_panics_build_or_queries() {
        // An object with a NaN coordinate used to panic the bulk-load
        // coordinate sorts (`partial_cmp().unwrap()`); it must now flow
        // through construction and both query passes without disturbing
        // the heap order of the finite objects.
        let pages = Arc::new(PageStore::new());
        let mut objs: Vec<uv_data::UncertainObject> = (0..6)
            .map(|i| {
                uv_data::UncertainObject::with_uniform(
                    i,
                    Point::new(100.0 + 150.0 * i as f64, 400.0),
                    10.0,
                )
            })
            .collect();
        objs.push(uv_data::UncertainObject::with_uniform(
            6,
            Point::new(f64::NAN, f64::NAN),
            10.0,
        ));
        let objects = ObjectStore::build(Arc::clone(&pages), &objs);
        let tree = RTree::build(&objs, pages); // used to panic here
        let q = Point::new(110.0, 400.0);

        // Both passes terminate; any probability that survives the positive
        // filter is finite.
        let answer = pnn_query(&tree, &objects, q, 60);
        assert!(answer
            .probabilities
            .iter()
            .all(|(_, p)| p.is_finite() && *p > 0.0));

        // knn with the degenerate object excluded orders the finite objects
        // exactly as brute force would.
        let got: Vec<u32> = tree.knn(q, 3, Some(6)).into_iter().map(|e| e.id).collect();
        assert_eq!(&got[..], &[0, 1, 2][..]);
    }

    #[test]
    fn breakdown_components_are_populated() {
        let (ds, objects, tree) = setup(500);
        let q = ds.query_points(1, 5)[0];
        let answer = pnn_query(&tree, &objects, q, 200);
        let b = answer.breakdown;
        assert!(b.total_io() >= 1);
        assert!(b.total_time() >= b.probability);
        // Object retrieval must have touched at least one object page.
        assert!(b.object_io >= 1);
    }
}
