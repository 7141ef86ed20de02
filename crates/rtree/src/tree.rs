//! The packed R-tree structure and its bulk-load construction.
//!
//! Construction uses Sort-Tile-Recursive (STR) packing: entries are sorted by
//! the x coordinate of their region centres, cut into vertical slices, sorted
//! by y within each slice and packed into full leaves. Leaves are written to
//! disk pages; the internal levels (fanout 100 by default) stay in memory,
//! matching the experimental setup of the paper. Leaf entries keep the
//! paper's `<ID, MBC, pointer>` layout but carry the null pointer: nothing
//! reads a record through the tree, so it is index-only.

use std::io::{self, Read, Write};
use std::sync::Arc;
use uv_data::{ObjectEntry, UncertainObject};
use uv_geom::Rect;
use uv_store::codec::{corrupt, Decode, Encode};
use uv_store::{ensure_disjoint, PageStore, PagedList};

/// Construction parameters of the R-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum number of children of an internal node (the paper uses 100).
    pub fanout: usize,
    /// Maximum number of object entries per leaf page. Defaults to as many
    /// `<ID, MBC, pointer>` tuples as fit a 4 KB page, capped at `fanout`.
    pub leaf_capacity: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self {
            fanout: 100,
            leaf_capacity: 100,
        }
    }
}

/// Reference to a child of an internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// Index into the internal-node table of the tree.
    Internal(u32),
    /// Index into the leaf table of the tree.
    Leaf(u32),
}

/// In-memory internal node.
#[derive(Debug, Clone)]
pub struct InternalNode {
    pub mbr: Rect,
    pub children: Vec<NodeRef>,
}

/// Metadata of a disk-resident leaf node.
#[derive(Debug, Clone)]
pub struct LeafNode {
    pub mbr: Rect,
    /// Entries of the leaf, stored on (exactly one, by construction) page.
    pub entries: PagedList<ObjectEntry>,
    pub count: usize,
}

/// A packed R-tree over uncertain objects.
#[derive(Debug)]
pub struct RTree {
    config: RTreeConfig,
    store: Arc<PageStore>,
    internal_nodes: Vec<InternalNode>,
    leaves: Vec<LeafNode>,
    root: Option<NodeRef>,
    height: usize,
    len: usize,
}

impl RTree {
    /// Bulk-loads an R-tree over `objects`, storing its leaf pages in
    /// `store`. The tree is *index-only*: every leaf entry carries the null
    /// record pointer (`0`), since neither of its uses dereferences one —
    /// the k-NN and range probes of the derivation read ids and MBCs, and
    /// the branch-and-prune baseline ([`crate::pnn_query`]) fetches records
    /// by id from the object store.
    pub fn bulk_load(
        objects: &[UncertainObject],
        store: Arc<PageStore>,
        config: RTreeConfig,
    ) -> Self {
        assert!(config.fanout >= 2, "fanout must be at least 2");
        assert!(config.leaf_capacity >= 1, "leaf capacity must be positive");
        let mut entries: Vec<ObjectEntry> =
            objects.iter().map(|o| ObjectEntry::new(o, 0)).collect();

        let mut tree = Self {
            config,
            store: Arc::clone(&store),
            internal_nodes: Vec::new(),
            leaves: Vec::new(),
            root: None,
            height: 0,
            len: entries.len(),
        };
        if entries.is_empty() {
            return tree;
        }

        // --- STR leaf packing -------------------------------------------------
        let leaf_cap = config.leaf_capacity;
        let num_leaves = entries.len().div_ceil(leaf_cap);
        let slices = (num_leaves as f64).sqrt().ceil() as usize;
        let slice_size = entries.len().div_ceil(slices);

        entries.sort_by(|a, b| a.mbc.center.x.total_cmp(&b.mbc.center.x));
        let mut leaf_refs: Vec<NodeRef> = Vec::with_capacity(num_leaves);
        for slice in entries.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|a, b| a.mbc.center.y.total_cmp(&b.mbc.center.y));
            for group in slice.chunks(leaf_cap) {
                let mut mbr = Rect::empty();
                let mut list = PagedList::new(Arc::clone(&store));
                for e in group {
                    mbr = mbr.union(&e.mbc.mbr());
                    list.push(*e);
                }
                list.seal();
                let idx = tree.leaves.len() as u32;
                tree.leaves.push(LeafNode {
                    mbr,
                    entries: list,
                    count: group.len(),
                });
                leaf_refs.push(NodeRef::Leaf(idx));
            }
        }

        // --- Pack upper levels ------------------------------------------------
        let mut level: Vec<NodeRef> = leaf_refs;
        let mut height = 1;
        while level.len() > 1 {
            let mut next: Vec<NodeRef> = Vec::with_capacity(level.len().div_ceil(config.fanout));
            for group in level.chunks(config.fanout) {
                let mbr = group
                    .iter()
                    .fold(Rect::empty(), |acc, r| acc.union(&tree.node_mbr(*r)));
                let idx = tree.internal_nodes.len() as u32;
                tree.internal_nodes.push(InternalNode {
                    mbr,
                    children: group.to_vec(),
                });
                next.push(NodeRef::Internal(idx));
            }
            level = next;
            height += 1;
        }
        tree.root = Some(level[0]);
        tree.height = height;
        tree
    }

    /// [`RTree::bulk_load`] with the default configuration.
    pub fn build(objects: &[UncertainObject], store: Arc<PageStore>) -> Self {
        Self::bulk_load(objects, store, RTreeConfig::default())
    }

    /// Empties the tree and frees its leaf pages, so the next bulk load
    /// into the same store reuses them instead of growing it.
    pub fn clear(&mut self) {
        for leaf in self.leaves.drain(..) {
            leaf.entries.free();
        }
        self.internal_nodes.clear();
        self.root = None;
        self.height = 0;
        self.len = 0;
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf level).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of leaf nodes (each occupying one disk page).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of memory-resident internal nodes.
    pub fn num_internal_nodes(&self) -> usize {
        self.internal_nodes.len()
    }

    /// The backing page store (for I/O accounting).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Root reference, if the tree is non-empty.
    pub(crate) fn root(&self) -> Option<NodeRef> {
        self.root
    }

    /// Construction configuration.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    pub(crate) fn internal(&self, idx: u32) -> &InternalNode {
        &self.internal_nodes[idx as usize]
    }

    pub(crate) fn leaf(&self, idx: u32) -> &LeafNode {
        &self.leaves[idx as usize]
    }

    /// MBR of any node reference.
    pub(crate) fn node_mbr(&self, node: NodeRef) -> Rect {
        match node {
            NodeRef::Internal(i) => self.internal_nodes[i as usize].mbr,
            NodeRef::Leaf(i) => self.leaves[i as usize].mbr,
        }
    }

    /// Writes the persistent state of the packed tree: configuration, the
    /// memory-resident internal levels and the leaf metadata (MBR, count and
    /// the page-list state indexing into the backing [`PageStore`], which is
    /// persisted separately).
    pub fn write_state<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        (self.config.fanout as u64).write_to(w)?;
        (self.config.leaf_capacity as u64).write_to(w)?;
        (self.len as u64).write_to(w)?;
        (self.height as u64).write_to(w)?;
        self.root.map(encode_node_ref).write_to(w)?;
        self.internal_nodes.len().write_to(w)?;
        for node in &self.internal_nodes {
            node.mbr.write_to(w)?;
            let children: Vec<(u8, u32)> =
                node.children.iter().copied().map(encode_node_ref).collect();
            children.write_to(w)?;
        }
        self.leaves.len().write_to(w)?;
        for leaf in &self.leaves {
            leaf.mbr.write_to(w)?;
            (leaf.count as u64).write_to(w)?;
            leaf.entries.write_state(w)?;
        }
        Ok(())
    }

    /// Reconstructs a tree from its persisted state over an already-loaded
    /// page `store`. Every node reference is validated, so a corrupted
    /// snapshot surfaces as an error instead of an out-of-bounds panic
    /// during a later query.
    pub fn read_state<R: Read + ?Sized>(store: Arc<PageStore>, r: &mut R) -> io::Result<Self> {
        let fanout = u64::read_from(r)? as usize;
        let leaf_capacity = u64::read_from(r)? as usize;
        if fanout < 2 || leaf_capacity < 1 {
            return Err(corrupt(format!(
                "implausible R-tree configuration: fanout {fanout}, leaf capacity {leaf_capacity}"
            )));
        }
        let len = u64::read_from(r)? as usize;
        let height = u64::read_from(r)? as usize;
        let root = Option::<(u8, u32)>::read_from(r)?
            .map(decode_node_ref)
            .transpose()?;
        let num_internal = usize::read_from(r)?;
        let mut internal_nodes = Vec::with_capacity(num_internal.min(4_096));
        let mut raw_children: Vec<Vec<(u8, u32)>> = Vec::with_capacity(num_internal.min(4_096));
        for _ in 0..num_internal {
            let mbr = Rect::read_from(r)?;
            raw_children.push(Vec::read_from(r)?);
            internal_nodes.push(InternalNode {
                mbr,
                children: Vec::new(),
            });
        }
        let num_leaves = usize::read_from(r)?;
        let mut leaves = Vec::with_capacity(num_leaves.min(4_096));
        for _ in 0..num_leaves {
            let mbr = Rect::read_from(r)?;
            let count = u64::read_from(r)? as usize;
            let entries = PagedList::read_state(Arc::clone(&store), r)?;
            leaves.push(LeafNode {
                mbr,
                entries,
                count,
            });
        }
        ensure_disjoint(leaves.iter().map(|leaf| &leaf.entries))?;
        let (n_internal, n_leaves) = (internal_nodes.len(), leaves.len());
        let check = move |node: NodeRef| match node {
            NodeRef::Internal(i) if (i as usize) < n_internal => Ok(node),
            NodeRef::Leaf(i) if (i as usize) < n_leaves => Ok(node),
            _ => Err(corrupt(format!("node reference {node:?} out of range"))),
        };
        for (node, raw) in internal_nodes.iter_mut().zip(raw_children) {
            node.children = raw
                .into_iter()
                .map(|raw| decode_node_ref(raw).and_then(check))
                .collect::<io::Result<Vec<_>>>()?;
        }
        let root = root.map(check).transpose()?;
        if root.is_none() && (len > 0 || !leaves.is_empty()) {
            return Err(corrupt("non-empty tree without a root"));
        }
        Ok(Self {
            config: RTreeConfig {
                fanout,
                leaf_capacity,
            },
            store,
            internal_nodes,
            leaves,
            root,
            height,
            len,
        })
    }
}

fn encode_node_ref(node: NodeRef) -> (u8, u32) {
    match node {
        NodeRef::Internal(i) => (0, i),
        NodeRef::Leaf(i) => (1, i),
    }
}

fn decode_node_ref((tag, idx): (u8, u32)) -> io::Result<NodeRef> {
    match tag {
        0 => Ok(NodeRef::Internal(idx)),
        1 => Ok(NodeRef::Leaf(idx)),
        other => Err(corrupt(format!("invalid node-reference tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uv_data::{Dataset, GeneratorConfig};
    use uv_geom::Point;

    fn build_tree(n: usize) -> (Dataset, RTree) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let tree = RTree::build(&ds.objects, Arc::new(PageStore::new()));
        (ds, tree)
    }

    #[test]
    fn bulk_load_packs_all_objects() {
        let (ds, tree) = build_tree(537);
        assert_eq!(tree.len(), 537);
        assert!(!tree.is_empty());
        // 537 objects at 100 per leaf -> 6 leaves, one internal level.
        assert_eq!(tree.num_leaves(), 6);
        assert_eq!(tree.height(), 2);
        assert!(tree.num_internal_nodes() >= 1);
        // Every leaf MBR lies inside the root MBR and inside the domain.
        let root_mbr = tree.node_mbr(tree.root().unwrap());
        for leaf in &tree.leaves {
            assert!(root_mbr.contains_rect(&leaf.mbr));
            assert!(ds.domain.contains_rect(&leaf.mbr));
        }
    }

    #[test]
    fn empty_tree() {
        let tree = RTree::build(&[], Arc::new(PageStore::new()));
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.root().is_none());
    }

    #[test]
    fn single_leaf_tree() {
        let (_, tree) = build_tree(40);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_internal_nodes(), 0);
        assert!(matches!(tree.root(), Some(NodeRef::Leaf(0))));
    }

    #[test]
    fn leaf_mbrs_cover_their_entries() {
        let (_, tree) = build_tree(260);
        for leaf in &tree.leaves {
            assert_eq!(leaf.count, leaf.entries.len());
            for e in leaf.entries.read_all_uncounted() {
                assert!(leaf.mbr.contains_rect(&e.mbc.mbr()));
            }
        }
    }

    #[test]
    fn fanout_is_respected() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(1000));
        let config = RTreeConfig {
            fanout: 4,
            leaf_capacity: 10,
        };
        let tree = RTree::bulk_load(&ds.objects, Arc::new(PageStore::new()), config);
        assert_eq!(tree.num_leaves(), 100);
        for node in &tree.internal_nodes {
            assert!(node.children.len() <= 4);
            assert!(!node.children.is_empty());
            for child in &node.children {
                assert!(node.mbr.contains_rect(&tree.node_mbr(*child)));
            }
        }
        assert!(tree.height() >= 4); // 100 leaves with fanout 4 -> at least 4 levels
    }

    #[test]
    fn every_object_is_stored_exactly_once() {
        let (ds, tree) = build_tree(123);
        let mut seen = vec![0u32; ds.len()];
        for leaf in &tree.leaves {
            for e in leaf.entries.read_all_uncounted() {
                seen[e.id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|c| *c == 1));
    }

    #[test]
    fn state_roundtrip_preserves_structure_and_queries() {
        let (ds, tree) = build_tree(537);
        // Round-trip the page store and the tree state.
        let pages: PageStore =
            uv_store::codec::from_bytes(&uv_store::codec::to_bytes(&**tree.store())).unwrap();
        let pages = Arc::new(pages);
        let mut state = Vec::new();
        tree.write_state(&mut state).unwrap();
        let back = RTree::read_state(Arc::clone(&pages), &mut state.as_slice()).unwrap();

        assert_eq!(back.len(), tree.len());
        assert_eq!(back.height(), tree.height());
        assert_eq!(back.num_leaves(), tree.num_leaves());
        assert_eq!(back.num_internal_nodes(), tree.num_internal_nodes());
        assert_eq!(back.config(), tree.config());
        // Canonical k-NN answers are bit-identical.
        for q in ds.query_points(10, 5) {
            let a: Vec<u32> = tree.knn(q, 12, None).into_iter().map(|e| e.id).collect();
            let b: Vec<u32> = back.knn(q, 12, None).into_iter().map(|e| e.id).collect();
            assert_eq!(a, b, "knn diverged at {q:?}");
        }

        // Corrupted node references are rejected, not panicked on.
        let mut bad = state.clone();
        // The root reference tag sits after fanout+capacity+len+height
        // (4 u64) and the Option presence byte.
        assert_eq!(bad[32], 1, "root Option must be present");
        bad[33] = 7; // invalid tag
        assert!(RTree::read_state(Arc::clone(&pages), &mut bad.as_slice()).is_err());
        // Two leaves naming one page.
        let mut shared = RTree::read_state(Arc::clone(&pages), &mut state.as_slice()).unwrap();
        shared.leaves[1].entries = shared.leaves[0].entries.clone();
        let mut bad = Vec::new();
        shared.write_state(&mut bad).unwrap();
        let err = RTree::read_state(Arc::clone(&pages), &mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("two page lists"), "{err}");
        // Leaves naming pages their store has since freed.
        let freed: PageStore =
            uv_store::codec::from_bytes(&uv_store::codec::to_bytes(&**tree.store())).unwrap();
        let freed = Arc::new(freed);
        let mut copy = RTree::read_state(Arc::clone(&freed), &mut state.as_slice()).unwrap();
        copy.clear();
        let err = RTree::read_state(freed, &mut state.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not allocated"), "{err}");

        // An empty tree round-trips too.
        let empty_pages = Arc::new(PageStore::new());
        let empty = RTree::build(&[], Arc::clone(&empty_pages));
        let mut state = Vec::new();
        empty.write_state(&mut state).unwrap();
        let back = RTree::read_state(empty_pages, &mut state.as_slice()).unwrap();
        assert!(back.is_empty());
        assert!(back.root().is_none());
    }

    #[test]
    fn clear_frees_the_leaves_for_the_next_bulk_load() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(537));
        let pages = Arc::new(PageStore::new());
        let mut tree = RTree::build(&ds.objects, Arc::clone(&pages));
        let leaf_pages = pages.num_pages();
        assert_eq!(leaf_pages, tree.num_leaves());
        tree.clear();
        assert!(tree.is_empty());
        assert!(tree.knn(Point::new(5_000.0, 5_000.0), 3, None).is_empty());
        assert_eq!((pages.num_pages(), pages.free_pages()), (0, leaf_pages));
        let repacked = RTree::build(&ds.objects[..300], Arc::clone(&pages));
        assert_eq!(pages.num_pages(), repacked.num_leaves());
        assert_eq!(pages.free_pages(), leaf_pages - repacked.num_leaves());
    }

    #[test]
    fn index_only_tree_answers_knn_identically_with_null_pointers() {
        let (ds, tree) = build_tree(537);
        for leaf in &tree.leaves {
            for e in leaf.entries.read_all_uncounted() {
                assert_eq!(e.ptr, 0, "index-only entries must carry the null pointer");
            }
        }
        // k-NN is canonical, so another packing of the same objects agrees.
        let config = RTreeConfig {
            fanout: 4,
            leaf_capacity: 10,
        };
        let other = RTree::bulk_load(&ds.objects, Arc::new(PageStore::new()), config);
        for q in ds.query_points(10, 11) {
            let a: Vec<u32> = tree.knn(q, 12, None).into_iter().map(|e| e.id).collect();
            let b: Vec<u32> = other.knn(q, 12, None).into_iter().map(|e| e.id).collect();
            assert_eq!(a, b, "index-only knn diverged at {q:?}");
        }
    }

    #[test]
    fn entries_keep_object_geometry() {
        let (ds, tree) = build_tree(60);
        let q = Point::new(5000.0, 5000.0);
        for leaf in &tree.leaves {
            for e in leaf.entries.read_all_uncounted() {
                let o = &ds.objects[e.id as usize];
                assert_eq!(e.mbc, o.mbc());
                assert!((e.dist_min(q) - o.dist_min(q)).abs() < 1e-12);
                assert!((e.dist_max(q) - o.dist_max(q)).abs() < 1e-12);
            }
        }
    }
}
