//! The UV-index: an adaptive quad-tree grid over UV-partitions
//! (Section V-A) and its PNN query processing.
//!
//! Non-leaf nodes are memory resident (at most `M` of them); every leaf node
//! carries a linked list of disk pages holding `<ID, MBC, pointer>` tuples of
//! the objects whose UV-cells (may) overlap the leaf's region. A PNN query is
//! a point lookup: descend to the leaf containing the query point, read its
//! page list, verify the candidates with the `d_minmax` test of \[14\] and
//! compute qualification probabilities for the survivors.
//!
//! The whole grid — nodes, member lists, epoch, free slots and the budget
//! flag — has an explicit persistent representation in [`crate::snapshot`];
//! only the I/O counters of the backing store are runtime state.

use crate::config::UvConfig;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use uv_data::{
    qualification_probabilities, ObjectEntry, ObjectId, ObjectStore, PnnAnswer, QueryBreakdown,
};
use uv_geom::{Circle, OutsideRegion, Point, Rect, EPS};
use uv_store::{PageStore, PagedList, Record};

/// A node of the adaptive grid.
#[derive(Debug)]
pub(crate) enum GridNode {
    /// Internal node with exactly four children (one per quadrant, in
    /// `[SW, SE, NE, NW]` order). `object_ids` is the node's canonical member
    /// set — the objects whose overlap test (Algorithm 5) passes for the
    /// node's region, id-sorted. It is what a collapse (leaf merge) under
    /// dynamic maintenance turns back into a leaf list: an object can be a
    /// member of an internal node while failing the test for all four
    /// children, so the set is *not* recoverable from the descendants.
    Internal {
        children: [u32; 4],
        object_ids: Vec<ObjectId>,
    },
    /// Leaf node: a page list of object entries plus the memory-resident
    /// object-id summary used by offline pattern analysis (Section V-C keeps
    /// an offline counter per leaf; we keep the ids, which subsumes it).
    Leaf {
        list: PagedList<ObjectEntry>,
        object_ids: Vec<ObjectId>,
    },
    /// A recycled slot: the node was freed by a leaf merge (dynamic
    /// maintenance) and its index is available for reuse. Never reachable
    /// from the root.
    Free,
}

/// One leaf of [`UvIndex::canonical_leaves`]: the region's corner
/// coordinates as raw `f64` bits plus the id-sorted member list.
pub type CanonicalLeaf = ((u64, u64, u64, u64), Vec<ObjectId>);

/// The UV-index.
#[derive(Debug)]
pub struct UvIndex {
    pub(crate) config: UvConfig,
    pub(crate) domain: Rect,
    pub(crate) nodes: Vec<GridNode>,
    pub(crate) node_regions: Vec<Rect>,
    pub(crate) nonleaf_count: usize,
    pub(crate) store: Arc<PageStore>,
    /// Version counter: bumped once per applied update batch (and per full
    /// rebuild). Query-side caches tag themselves with the epoch they were
    /// filled at and are bypassed on mismatch, so a reader can never be
    /// served leaf pages from before an update.
    pub(crate) epoch: u64,
    /// Node slots freed by leaf merges, available for reuse by splits.
    pub(crate) free_slots: Vec<u32>,
    /// `true` when construction (or the most recent budget reconciliation)
    /// wanted to split a leaf but the non-leaf memory budget `M` denied it.
    /// Budget allocation is order-dependent once it binds, so incremental
    /// maintenance repairs *unbounded* first and then replays the cold
    /// build's preorder allocation (`crate::builder::reconcile_budget`) —
    /// this flag records whether that replay (or the build) denied anything,
    /// and tells the next update that a reconciliation pass is needed even
    /// if the repaired tree happens to fit the cap.
    pub(crate) budget_bound: bool,
}

impl UvIndex {
    /// Creates an empty index whose root is a single leaf covering `domain`.
    pub(crate) fn new(domain: Rect, store: Arc<PageStore>, config: UvConfig) -> Self {
        let root = GridNode::Leaf {
            list: PagedList::new(Arc::clone(&store)),
            object_ids: Vec::new(),
        };
        Self {
            config,
            domain,
            nodes: vec![root],
            node_regions: vec![domain],
            nonleaf_count: 0,
            store,
            epoch: 0,
            free_slots: Vec::new(),
            budget_bound: false,
        }
    }

    /// Current index epoch. Starts at 0 and is bumped once per applied
    /// update batch; see [`crate::update`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Member count above which a leaf is considered for splitting:
    /// [`UvConfig::leaf_split_capacity`], with `0` resolved to the number of
    /// `<ID, MBC, pointer>` tuples that fit one disk page.
    pub(crate) fn split_capacity(&self) -> usize {
        if self.config.leaf_split_capacity > 0 {
            self.config.leaf_split_capacity
        } else {
            (self.store.page_size() / ObjectEntry::SIZE).max(1)
        }
    }

    /// Allocates a node slot (reusing freed ones first).
    pub(crate) fn alloc_node(&mut self, node: GridNode, region: Rect) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.nodes[slot as usize] = node;
            self.node_regions[slot as usize] = region;
            slot
        } else {
            let slot = self.nodes.len() as u32;
            self.nodes.push(node);
            self.node_regions.push(region);
            slot
        }
    }

    /// Replaces slot `node` with `with`, freeing the page list of the leaf
    /// it held, if any. Every write that can drop a leaf goes through here —
    /// a leaf rewrite, a split and a collapse — so a dropped leaf's pages
    /// return to the store before the next list is written.
    pub(crate) fn set_node(&mut self, node: usize, with: GridNode) {
        if let GridNode::Leaf { list, .. } = std::mem::replace(&mut self.nodes[node], with) {
            list.free();
        }
    }

    /// Frees the descendants of `node` (not `node` itself), returning their
    /// slots to the free list and their leaf pages to the store, and
    /// decrementing the non-leaf count for every freed internal node.
    pub(crate) fn free_children(&mut self, node: usize) {
        let GridNode::Internal { children, .. } = &self.nodes[node] else {
            return;
        };
        let children = *children;
        for child in children {
            self.free_children(child as usize);
            if matches!(self.nodes[child as usize], GridNode::Internal { .. }) {
                self.nonleaf_count -= 1;
            }
            self.set_node(child as usize, GridNode::Free);
            self.free_slots.push(child);
        }
    }

    /// Frees the page list of every leaf, ahead of a rebuild of the whole
    /// grid into the same store. The grid is unusable until replaced.
    pub(crate) fn free_leaves(&mut self) {
        for node in 0..self.nodes.len() {
            self.set_node(node, GridNode::Free);
        }
    }

    /// The indexed domain `D`.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// Configuration the index was built with.
    pub fn config(&self) -> &UvConfig {
        &self.config
    }

    /// Backing page store of the leaf page lists.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Number of memory-resident non-leaf nodes.
    pub fn num_nonleaf_nodes(&self) -> usize {
        self.nonleaf_count
    }

    /// Number of leaf nodes.
    pub fn num_leaf_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, GridNode::Leaf { .. }))
            .count()
    }

    /// Total number of disk pages used by leaf page lists.
    pub fn num_leaf_pages(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                GridNode::Leaf { list, .. } => Some(list.num_pages()),
                _ => None,
            })
            .sum()
    }

    /// Height of the grid (1 for a single-leaf index).
    pub fn height(&self) -> usize {
        fn depth(index: &UvIndex, node: usize) -> usize {
            match &index.nodes[node] {
                GridNode::Leaf { .. } => 1,
                GridNode::Internal { children, .. } => {
                    1 + children
                        .iter()
                        .map(|c| depth(index, *c as usize))
                        .max()
                        .unwrap_or(0)
                }
                GridNode::Free => unreachable!("free nodes are unreachable from the root"),
            }
        }
        depth(self, 0)
    }

    /// The grid's canonical, bit-exact leaf view: every leaf's region
    /// corners as raw `f64` bits plus its id-sorted member list, ordered by
    /// region. Two indexes are structurally identical iff their canonical
    /// views are equal — the oracle the dynamic-maintenance and snapshot
    /// test suites (and the churn/snapshot experiments) compare against a
    /// cold rebuild.
    pub fn canonical_leaves(&self) -> Vec<CanonicalLeaf> {
        let mut out: Vec<_> = self
            .leaves()
            .map(|(r, ids)| {
                (
                    (
                        r.min_x.to_bits(),
                        r.min_y.to_bits(),
                        r.max_x.to_bits(),
                        r.max_y.to_bits(),
                    ),
                    ids.to_vec(),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Iterates over the leaves as `(region, object ids)` pairs, using only
    /// memory-resident information (no I/O). This is the "offline" summary
    /// the paper attaches to leaf nodes for pattern analysis.
    pub fn leaves(&self) -> impl Iterator<Item = (&Rect, &[ObjectId])> {
        self.nodes
            .iter()
            .zip(&self.node_regions)
            .filter_map(|(node, region)| match node {
                GridNode::Leaf { object_ids, .. } => Some((region, object_ids.as_slice())),
                _ => None,
            })
    }

    /// Index of the leaf node whose region contains `q`, or `None` when `q`
    /// lies outside the domain.
    ///
    /// Tie-break: a query point exactly on an internal split line descends
    /// into the SW/SE side (`q.x <= c.x` goes west, `q.y <= c.y` goes south).
    /// Because [`Rect::quadrants`] produces *closed* child rectangles that
    /// share their boundary and [`Rect::contains`] treats the boundary as
    /// inside, either side of the tie yields a leaf whose `node_regions`
    /// rectangle contains `q`; the fixed `<=` choice merely makes the descent
    /// deterministic (see the boundary regression test below).
    pub(crate) fn locate_leaf(&self, q: Point) -> Option<usize> {
        if !self.domain.contains(q) {
            return None;
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                GridNode::Leaf { .. } => return Some(node),
                GridNode::Free => unreachable!("free nodes are unreachable from the root"),
                GridNode::Internal { children, .. } => {
                    let region = self.node_regions[node];
                    let c = region.center();
                    // Quadrant order matches Rect::quadrants(): SW, SE, NE, NW.
                    let idx = match (q.x <= c.x, q.y <= c.y) {
                        (true, true) => 0,
                        (false, true) => 1,
                        (false, false) => 2,
                        (true, false) => 3,
                    };
                    node = children[idx] as usize;
                }
            }
        }
    }

    /// Reads the page list of leaf node `leaf`, returning the entries
    /// together with the number of leaf pages read (charged to the I/O
    /// counters by the underlying [`PagedList::read_all`]).
    pub(crate) fn leaf_entries(&self, leaf: usize) -> (Vec<ObjectEntry>, u64) {
        match &self.nodes[leaf] {
            GridNode::Leaf { list, .. } => (list.read_all(), list.num_pages() as u64),
            _ => unreachable!("leaf_entries is only called on leaves"),
        }
    }

    /// Reads the page list of the leaf containing `q`, returning the entries
    /// together with the number of leaf pages read. Returns `None` when `q`
    /// lies outside the domain.
    pub(crate) fn read_leaf_entries(&self, q: Point) -> Option<(usize, Vec<ObjectEntry>, u64)> {
        let leaf = self.locate_leaf(q)?;
        let (entries, io) = self.leaf_entries(leaf);
        Some((leaf, entries, io))
    }

    /// Evaluates a PNN query at `q` (Section V-A): descend to the leaf
    /// containing `q`, read its page list, verify candidates by the
    /// `d_minmax` criterion, fetch the survivors' pdfs and compute their
    /// qualification probabilities.
    ///
    /// For batched / concurrent execution over a shared index see
    /// [`crate::engine::QueryEngine`], which reuses leaf page reads across
    /// queries and fans a batch out over a worker pool while returning
    /// bit-identical answers.
    pub fn pnn(&self, objects: &ObjectStore, q: Point, integration_steps: usize) -> PnnAnswer {
        let t_traversal = Instant::now();
        let Some((_, entries, index_io)) = self.read_leaf_entries(q) else {
            return PnnAnswer::default();
        };
        verify_and_refine(
            objects,
            q,
            integration_steps,
            &entries,
            index_io,
            t_traversal,
        )
    }
}

/// Shared tail of PNN query processing: the `d_minmax` verification of \[14\]
/// over the leaf `entries`, pdf retrieval for the survivors and the
/// qualification-probability computation.
///
/// `index_io` is the number of leaf pages the caller actually read for this
/// query and `t_traversal` the instant the traversal started; both are
/// supplied by the caller so that per-query I/O attribution stays exact under
/// concurrent readers (a global counter delta would absorb the reads of other
/// threads).
pub(crate) fn verify_and_refine(
    objects: &ObjectStore,
    q: Point,
    integration_steps: usize,
    entries: &[ObjectEntry],
    index_io: u64,
    t_traversal: Instant,
) -> PnnAnswer {
    verify_and_refine_full(
        objects,
        q,
        integration_steps,
        entries,
        index_io,
        t_traversal,
    )
    .0
}

/// Like [`verify_and_refine`], additionally returning the fetched candidate
/// objects (in candidate order). The safe-region machinery
/// ([`crate::subscribe`], trajectory reuse) caches these so later query
/// points inside a stable region can recompute the qualification
/// probabilities without touching the index or object store.
pub(crate) fn verify_and_refine_full(
    objects: &ObjectStore,
    q: Point,
    integration_steps: usize,
    entries: &[ObjectEntry],
    index_io: u64,
    t_traversal: Instant,
) -> (PnnAnswer, Vec<uv_data::UncertainObject>) {
    let mut breakdown = QueryBreakdown::default();

    // Verification of [14]: no object whose minimum distance exceeds the
    // smallest maximum distance can be an answer.
    let dminmax = entries
        .iter()
        .map(|e| e.dist_max(q))
        .fold(f64::INFINITY, f64::min);
    let candidates: Vec<&ObjectEntry> = entries
        .iter()
        .filter(|e| e.dist_min(q) <= dminmax + EPS)
        .collect();
    breakdown.traversal = t_traversal.elapsed();
    breakdown.index_io = index_io;

    let t_retrieval = Instant::now();
    let mut touched = HashSet::new();
    let fetched: Vec<_> = candidates
        .iter()
        .filter_map(|e| objects.fetch(e.id, &mut touched))
        .collect();
    breakdown.retrieval = t_retrieval.elapsed();
    // `fetch` charges exactly one page read per page newly inserted into
    // `touched`, so the set size is this query's object I/O.
    breakdown.object_io = touched.len() as u64;

    let t_prob = Instant::now();
    let refs: Vec<_> = fetched.iter().collect();
    let mut probabilities = qualification_probabilities(q, &refs, integration_steps);
    probabilities.retain(|(_, p)| *p > 0.0);
    breakdown.probability = t_prob.elapsed();

    (
        PnnAnswer {
            probabilities,
            candidates_examined: candidates.len(),
            breakdown,
        },
        fetched,
    )
}

/// Algorithm 5 (`CheckOverlap`): decides whether the UV-cell of an object —
/// represented by its cr-objects — can overlap a grid region.
///
/// For every cr-object `O_k`, if the whole region lies inside the outside
/// region `X_i(k)` then the UV-cell cannot overlap the region (Lemma 4); the
/// containment test is the 4-point test on the region corners, which is exact
/// because outside regions are convex.
pub fn check_overlap(subject: Circle, cr_objects: &[Circle], region: &Rect) -> bool {
    let corners = region.corners();
    for other in cr_objects {
        let outside = OutsideRegion::new(subject, *other);
        if outside.is_empty() {
            continue;
        }
        if corners.iter().all(|c| outside.contains(*c)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_overlap_prunes_regions_fully_behind_an_edge() {
        let subject = Circle::new(Point::new(100.0, 500.0), 20.0);
        let other = Circle::new(Point::new(300.0, 500.0), 20.0);
        // A region far on the other object's side: every corner is closer to
        // `other` than `subject` can ever be.
        let far_region = Rect::new(800.0, 400.0, 900.0, 600.0);
        assert!(!check_overlap(subject, &[other], &far_region));
        // A region around the subject itself must overlap.
        let near_region = Rect::new(50.0, 450.0, 150.0, 550.0);
        assert!(check_overlap(subject, &[other], &near_region));
        // A region straddling the UV-edge overlaps (some corner is on the
        // subject's side).
        let straddling = Rect::new(150.0, 400.0, 260.0, 600.0);
        assert!(check_overlap(subject, &[other], &straddling));
    }

    #[test]
    fn check_overlap_with_no_cr_objects_is_always_true() {
        let subject = Circle::new(Point::new(10.0, 10.0), 1.0);
        assert!(check_overlap(subject, &[], &Rect::square(100.0)));
    }

    #[test]
    fn check_overlap_ignores_overlapping_objects() {
        let subject = Circle::new(Point::new(100.0, 100.0), 30.0);
        let overlapping = Circle::new(Point::new(120.0, 100.0), 30.0);
        // The outside region of an overlapping object is empty, so it can
        // never prune.
        assert!(check_overlap(
            subject,
            &[overlapping],
            &Rect::new(900.0, 900.0, 950.0, 950.0)
        ));
    }

    #[test]
    fn check_overlap_may_keep_false_positives_but_never_false_negatives() {
        // The paper accepts false positives (Figure 5(b)); verify on a brute
        // force grid that a region judged "no overlap" truly has no point
        // where the subject can be the nearest neighbour among the cr set.
        let subject = Circle::new(Point::new(200.0, 200.0), 10.0);
        let crs = vec![
            Circle::new(Point::new(400.0, 200.0), 10.0),
            Circle::new(Point::new(200.0, 420.0), 10.0),
            Circle::new(Point::new(50.0, 60.0), 10.0),
        ];
        for gx in 0..10 {
            for gy in 0..10 {
                let region = Rect::new(
                    gx as f64 * 100.0,
                    gy as f64 * 100.0,
                    (gx + 1) as f64 * 100.0,
                    (gy + 1) as f64 * 100.0,
                );
                if !check_overlap(subject, &crs, &region) {
                    // Sample the region densely: no sampled point may have the
                    // subject as a possible NN with respect to the cr set.
                    for sx in 0..5 {
                        for sy in 0..5 {
                            let p = Point::new(
                                region.min_x + region.width() * (sx as f64 + 0.5) / 5.0,
                                region.min_y + region.height() * (sy as f64 + 0.5) / 5.0,
                            );
                            let dominated = crs
                                .iter()
                                .any(|c| c.dist_max(p) < subject.dist_min(p) - 1e-9);
                            assert!(dominated, "false negative at {p:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn locate_leaf_on_split_lines_reaches_a_containing_leaf() {
        // Regression for the `q.x <= c.x` / `q.y <= c.y` tie-break: a query
        // point lying exactly on an internal split line must always reach a
        // leaf whose `node_regions` rectangle contains it, consistently with
        // the closed-rectangle semantics of `Rect::quadrants`/`Rect::contains`.
        use crate::builder::{build_uv_index, Method};
        use uv_data::{Dataset, GeneratorConfig};

        let ds = Dataset::generate(GeneratorConfig::paper_uniform(600));
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        let rtree = uv_rtree::RTree::build(&ds.objects, &objects, pages);
        let (index, _) = build_uv_index(
            &ds.objects,
            &objects,
            &rtree,
            ds.domain,
            Arc::new(PageStore::new()),
            Method::IC,
            UvConfig::default(),
        )
        .unwrap();
        assert!(
            index.num_nonleaf_nodes() > 0,
            "fixture must actually split so there are internal split lines"
        );

        let mut boundary_points = Vec::new();
        for (node, region) in index.nodes.iter().zip(&index.node_regions) {
            if matches!(node, GridNode::Internal { .. }) {
                let c = region.center();
                // The split-line crossing plus a point on each of the four
                // split-line arms.
                boundary_points.push(c);
                boundary_points.push(Point::new(c.x, (region.min_y + c.y) * 0.5));
                boundary_points.push(Point::new(c.x, (c.y + region.max_y) * 0.5));
                boundary_points.push(Point::new((region.min_x + c.x) * 0.5, c.y));
                boundary_points.push(Point::new((c.x + region.max_x) * 0.5, c.y));
            }
        }
        // Domain corners and edges are boundary cases of the same kind.
        boundary_points.extend(index.domain().corners());

        for q in boundary_points {
            let leaf = index
                .locate_leaf(q)
                .unwrap_or_else(|| panic!("no leaf found for boundary point {q:?}"));
            assert!(
                matches!(index.nodes[leaf], GridNode::Leaf { .. }),
                "locate_leaf returned a non-leaf for {q:?}"
            );
            assert!(
                index.node_regions[leaf].contains(q),
                "leaf region {:?} does not contain boundary point {q:?}",
                index.node_regions[leaf]
            );
        }
    }

    #[test]
    fn empty_index_basics() {
        let store = Arc::new(PageStore::new());
        let index = UvIndex::new(Rect::square(1000.0), store, UvConfig::default());
        assert_eq!(index.num_leaf_nodes(), 1);
        assert_eq!(index.num_nonleaf_nodes(), 0);
        assert_eq!(index.height(), 1);
        assert_eq!(index.num_leaf_pages(), 0);
        assert_eq!(index.locate_leaf(Point::new(500.0, 500.0)), Some(0));
        assert_eq!(index.locate_leaf(Point::new(-1.0, 500.0)), None);
        let objects = ObjectStore::build(Arc::new(PageStore::new()), &[]);
        let ans = index.pnn(&objects, Point::new(500.0, 500.0), 50);
        assert!(ans.probabilities.is_empty());
    }
}
