//! Range and k-nearest-neighbour queries on the R-tree.
//!
//! These are both substrate operations for UV-index construction: seed
//! selection (Section IV-B) issues a k-NN query around the object centre,
//! and I-pruning (Section IV-C) issues a circular range query with radius
//! `2d - r_i`.

use crate::tree::{NodeRef, RTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use uv_data::ObjectEntry;
use uv_geom::{Point, EPS};

/// Min-heap entry ordered by a non-NaN distance.
struct HeapItem {
    dist: f64,
    payload: HeapPayload,
}

enum HeapPayload {
    Node(NodeRef),
    Entry(ObjectEntry),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist.total_cmp(&other.dist).is_eq()
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse via `total_cmp`: BinaryHeap is a max-heap, we need the
        // smallest distance on top — and the order must stay total when a
        // degenerate geometry yields a NaN distance (NaN sorts last, so it
        // can never displace a finite candidate; `partial_cmp(..)
        // .unwrap_or(Equal)` made NaN equal to everything, breaking
        // transitivity and with it the heap invariant).
        other.dist.total_cmp(&self.dist)
    }
}

impl RTree {
    /// Returns every entry whose uncertainty region intersects the disk
    /// `Cir(center, radius)`. Leaf-page reads are charged to the store's I/O
    /// counters.
    pub fn range_circle(&self, center: Point, radius: f64) -> Vec<ObjectEntry> {
        let mut result = Vec::new();
        let Some(root) = self.root() else {
            return result;
        };
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match node {
                NodeRef::Internal(idx) => {
                    let n = self.internal(idx);
                    if n.mbr.dist_min(center) <= radius + EPS {
                        stack.extend(n.children.iter().copied());
                    }
                }
                NodeRef::Leaf(idx) => {
                    let leaf = self.leaf(idx);
                    if leaf.mbr.dist_min(center) > radius + EPS {
                        continue;
                    }
                    for e in leaf.entries.read_all() {
                        if e.mbc.dist_min(center) <= radius + EPS {
                            result.push(e);
                        }
                    }
                }
            }
        }
        result
    }

    /// Returns every entry whose region *centre* lies inside the disk — the
    /// filter step used by I-pruning (Lemma 2 tests `c_j \notin C_out`).
    pub fn range_circle_centers(&self, center: Point, radius: f64) -> Vec<ObjectEntry> {
        self.range_circle(center, radius)
            .into_iter()
            .filter(|e| e.mbc.center.dist(center) <= radius + EPS)
            .collect()
    }

    /// Best-first k-nearest-neighbour query: the `k` entries whose
    /// uncertainty regions have the smallest minimum distance from `q`
    /// (Section IV-B seed selection). An optional `exclude` id is skipped
    /// (the query object itself).
    ///
    /// The result is *canonical*: entries come back sorted by
    /// `(dist_min, id)`, and ties at the k-th distance are resolved by the
    /// smaller id. This makes the answer a pure function of the object
    /// geometry, independent of how the tree happens to be packed — which the
    /// dynamic UV-index maintenance relies on (it rebuilds the packed tree on
    /// every update batch and must get bit-identical seed selections for
    /// unaffected objects).
    pub fn knn(&self, q: Point, k: usize, exclude: Option<u32>) -> Vec<ObjectEntry> {
        if k == 0 {
            return Vec::new();
        }
        let Some(root) = self.root() else {
            return Vec::new();
        };
        // Best-first traversal collecting every entry whose distance is at
        // most the k-th smallest seen so far (popped distances are
        // non-decreasing, so once `k` entries are collected the k-th of them
        // is the true k-th distance and anything strictly farther can stop
        // the search).
        let mut collected: Vec<(f64, ObjectEntry)> = Vec::with_capacity(k + 4);
        let mut kth = f64::INFINITY;
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        heap.push(HeapItem {
            dist: self.node_mbr(root).dist_min(q),
            payload: HeapPayload::Node(root),
        });
        while let Some(item) = heap.pop() {
            if item.dist > kth {
                break;
            }
            match item.payload {
                HeapPayload::Node(NodeRef::Internal(idx)) => {
                    for child in &self.internal(idx).children {
                        heap.push(HeapItem {
                            dist: self.node_mbr(*child).dist_min(q),
                            payload: HeapPayload::Node(*child),
                        });
                    }
                }
                HeapPayload::Node(NodeRef::Leaf(idx)) => {
                    for e in self.leaf(idx).entries.read_all() {
                        if Some(e.id) == exclude {
                            continue;
                        }
                        heap.push(HeapItem {
                            dist: e.dist_min(q),
                            payload: HeapPayload::Entry(e),
                        });
                    }
                }
                HeapPayload::Entry(e) => {
                    collected.push((item.dist, e));
                    if collected.len() == k {
                        kth = item.dist;
                    }
                }
            }
        }
        collected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        collected.truncate(k);
        collected.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use std::sync::Arc;
    use uv_data::{Dataset, GeneratorConfig, UncertainObject};
    use uv_store::PageStore;

    fn build(n: usize) -> (Dataset, RTree) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let tree = RTree::bulk_load(
            &ds.objects,
            Arc::new(PageStore::new()),
            RTreeConfig {
                fanout: 16,
                leaf_capacity: 25,
            },
        );
        (ds, tree)
    }

    fn brute_range(
        objects: &[UncertainObject],
        center: Point,
        radius: f64,
    ) -> Vec<&UncertainObject> {
        objects
            .iter()
            .filter(|o| o.dist_min(center) <= radius + EPS)
            .collect()
    }

    #[test]
    fn range_circle_matches_brute_force() {
        let (ds, tree) = build(800);
        for (center, radius) in [
            (Point::new(5000.0, 5000.0), 500.0),
            (Point::new(100.0, 9000.0), 1500.0),
            (Point::new(9999.0, 1.0), 50.0),
        ] {
            let mut got: Vec<u32> = tree
                .range_circle(center, radius)
                .into_iter()
                .map(|e| e.id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<u32> = brute_range(&ds.objects, center, radius)
                .into_iter()
                .map(|o| o.id)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "range mismatch at {center:?} r={radius}");
        }
    }

    #[test]
    fn range_circle_charges_leaf_io() {
        let (_, tree) = build(500);
        tree.store().reset_io();
        let center = Point::new(5000.0, 5000.0);
        tree.range_circle(center, 2000.0);
        let io_small = tree.store().io().reads;
        assert!(io_small > 0);
        tree.store().reset_io();
        tree.range_circle(center, 8000.0);
        let io_large = tree.store().io().reads;
        assert!(
            io_large >= io_small,
            "larger range should not read fewer pages"
        );
        assert!(io_large as usize <= tree.num_leaves());
    }

    #[test]
    fn range_centers_filters_by_center() {
        let (ds, tree) = build(400);
        let center = Point::new(4000.0, 4000.0);
        let radius = 1000.0;
        let got: Vec<u32> = tree
            .range_circle_centers(center, radius)
            .into_iter()
            .map(|e| e.id)
            .collect();
        for id in &got {
            assert!(ds.objects[*id as usize].center().dist(center) <= radius + EPS);
        }
        // Every object whose centre is inside must be present.
        let expected = ds
            .objects
            .iter()
            .filter(|o| o.center().dist(center) <= radius)
            .count();
        assert_eq!(got.len(), expected);
    }

    #[test]
    fn knn_matches_brute_force_ordering() {
        let (ds, tree) = build(600);
        let q = Point::new(3333.0, 7777.0);
        for k in [1, 5, 17, 60] {
            let got: Vec<u32> = tree.knn(q, k, None).into_iter().map(|e| e.id).collect();
            assert_eq!(got.len(), k);
            let mut all: Vec<(f64, u32)> =
                ds.objects.iter().map(|o| (o.dist_min(q), o.id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let kth_dist = all[k - 1].0;
            // Every returned object must be within the k-th smallest distance
            // (ties make exact id comparison fragile).
            for id in &got {
                assert!(ds.objects[*id as usize].dist_min(q) <= kth_dist + EPS);
            }
        }
    }

    #[test]
    fn knn_is_canonical_sorted_with_id_tie_breaks() {
        // Co-located objects produce exact distance ties; the result must be
        // sorted by (dist, id) and resolve boundary ties to smaller ids so
        // the answer is a pure function of the geometry, not the packing.
        let mut objects: Vec<UncertainObject> = (0..8u32)
            .map(|i| UncertainObject::with_uniform(i, Point::new(100.0, 100.0), 5.0))
            .collect();
        objects.push(UncertainObject::with_uniform(
            8,
            Point::new(300.0, 100.0),
            5.0,
        ));
        let tree = RTree::build(&objects, Arc::new(PageStore::new()));
        let q = Point::new(100.0, 100.0);
        // k = 4 cuts through an 8-way tie: the four smallest ids win.
        let got: Vec<u32> = tree.knn(q, 4, None).into_iter().map(|e| e.id).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // With an excluded id the tie resolves to the next smallest ids.
        let got: Vec<u32> = tree.knn(q, 4, Some(1)).into_iter().map(|e| e.id).collect();
        assert_eq!(got, vec![0, 2, 3, 4]);
        // A full query is globally sorted by (dist, id).
        let all: Vec<u32> = tree.knn(q, 9, None).into_iter().map(|e| e.id).collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn knn_excludes_requested_id_and_handles_small_trees() {
        let (_, tree) = build(30);
        let q = Point::new(5000.0, 5000.0);
        let all = tree.knn(q, 40, None);
        assert_eq!(all.len(), 30); // k larger than the dataset
        let nearest = all[0].id;
        let excluded = tree.knn(q, 40, Some(nearest));
        assert_eq!(excluded.len(), 29);
        assert!(excluded.iter().all(|e| e.id != nearest));
        assert!(tree.knn(q, 0, None).is_empty());
    }

    #[test]
    fn queries_on_empty_tree() {
        let tree = RTree::build(&[], Arc::new(PageStore::new()));
        assert!(tree.range_circle(Point::origin(), 100.0).is_empty());
        assert!(tree.knn(Point::origin(), 5, None).is_empty());
    }
}
