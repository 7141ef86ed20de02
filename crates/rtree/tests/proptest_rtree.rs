//! Property-based tests of the R-tree: range, k-NN and PNN queries agree
//! with brute force on arbitrary object layouts.

use proptest::prelude::*;
use std::sync::Arc;
use uv_data::{ObjectStore, UncertainObject};
use uv_geom::Point;
use uv_rtree::{pnn_query, RTree, RTreeConfig};
use uv_store::PageStore;

fn objects_strategy(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64, 0.0..30.0f64), 1..max).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, r))| UncertainObject::with_uniform(i as u32, Point::new(x, y), r))
                .collect()
        },
    )
}

fn build(objects: &[UncertainObject]) -> (ObjectStore, RTree) {
    let pages = Arc::new(PageStore::new());
    let store = ObjectStore::build(Arc::clone(&pages), objects);
    let tree = RTree::bulk_load(
        objects,
        pages,
        RTreeConfig {
            fanout: 4,
            leaf_capacity: 5,
        },
    );
    (store, tree)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Circular range queries return exactly the brute-force result set.
    #[test]
    fn range_circle_matches_brute_force(
        objects in objects_strategy(60),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
        radius in 0.0..600.0f64,
    ) {
        let (_, tree) = build(&objects);
        let q = Point::new(qx, qy);
        let mut got: Vec<u32> = tree.range_circle(q, radius).into_iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = objects
            .iter()
            .filter(|o| o.dist_min(q) <= radius + 1e-9)
            .map(|o| o.id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// k-NN results are exactly the k closest objects by minimum distance
    /// (up to ties on the k-th distance).
    #[test]
    fn knn_matches_brute_force(
        objects in objects_strategy(60),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
        k in 1usize..20,
    ) {
        let (_, tree) = build(&objects);
        let q = Point::new(qx, qy);
        let got = tree.knn(q, k, None);
        prop_assert_eq!(got.len(), k.min(objects.len()));
        let mut dists: Vec<f64> = objects.iter().map(|o| o.dist_min(q)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        let kth = dists[got.len() - 1];
        for e in &got {
            prop_assert!(e.dist_min(q) <= kth + 1e-9);
        }
    }

    /// The branch-and-prune PNN answer objects are always legal candidates
    /// and the minimum-distmax object is always among them.
    #[test]
    fn pnn_answers_are_candidates(
        objects in objects_strategy(40),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
    ) {
        let (store, tree) = build(&objects);
        let q = Point::new(qx, qy);
        let answer = pnn_query(&tree, &store, q, 60);
        let dminmax = objects.iter().map(|o| o.dist_max(q)).fold(f64::INFINITY, f64::min);
        prop_assert!(!answer.probabilities.is_empty());
        for id in answer.answer_ids() {
            let o = &objects[id as usize];
            prop_assert!(o.dist_min(q) <= dminmax + 1e-9, "object {id} cannot be an answer");
        }
    }
}
