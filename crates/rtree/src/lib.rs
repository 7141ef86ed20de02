//! Packed R*-tree baseline over uncertain objects.
//!
//! The paper compares the UV-index against "an index like the R-tree": a
//! packed R*-tree \[38\] over the minimum bounding rectangles of the objects'
//! uncertainty regions, 4 KB pages, fanout 100, non-leaf nodes in memory and
//! leaf nodes on disk (Section VI-A). PNN queries are answered with the
//! branch-and-prune strategy of Cheng et al. \[14\], which needs multiple
//! traversals and therefore many leaf-page reads — the effect Figure 6(b)
//! quantifies.
//!
//! The same tree also serves as a substrate for UV-index construction: seed
//! selection issues k-NN queries on it and I-pruning issues circular range
//! queries (Section IV). Neither probe reads a record through a leaf entry,
//! and the baseline fetches records by id, so the tree is index-only: its
//! entries carry the null record pointer.
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub mod pnn;
pub mod query;
pub mod tree;

pub use pnn::pnn_query;
pub use tree::{RTree, RTreeConfig};
