//! The UV-diagram: a Voronoi diagram for uncertain data (ICDE 2010).
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`region::PossibleRegion`] — a possible region `P_i` (Definition 2),
//!   clipped by outside regions of UV-edges (Definition 3, Equation (5)).
//! * [`cell`] — exact UV-cell construction (Algorithm 1, the "Basic" method)
//!   and r-object extraction.
//! * [`crobjects`] — candidate reference objects (Algorithm 2): seed-based
//!   initial possible regions, index-level pruning (Lemma 2) and
//!   computational-level pruning (Lemma 3).
//! * [`index`] — the UV-index, an adaptive quad-tree grid over UV-partitions
//!   (Algorithms 3–5), with PNN query processing (Section V-A).
//! * [`builder`] — the three construction methods compared in Section VI
//!   (Basic, ICR, IC) with per-phase statistics.
//! * [`pattern`] — nearest-neighbour pattern analysis queries: UV-cell
//!   retrieval and UV-partition (density) retrieval (Section V-C).
//! * [`engine`] — a concurrent batched PNN serving layer over a shared
//!   read-only index: worker-pool fan-out, per-leaf memoization and
//!   trajectory (moving-PNN) workloads — beyond the paper, toward the
//!   production system of `ROADMAP.md`.
//! * [`update`] — dynamic maintenance beyond the paper: incremental
//!   insert/delete/move with localized UV-partition repair, bit-identical to
//!   a cold rebuild, on an epoch-versioned index.
//! * [`snapshot`] — persistence beyond the paper: the whole system saved to
//!   a versioned, checksummed binary format and loaded back query-ready in
//!   `O(bytes)` with zero re-derivation — the *build once, query many* cost
//!   model made durable across process restarts.
//! * [`router`] — the derivation pipeline beyond the paper: the one
//!   implementation of an update's derivation half (validation, net diff,
//!   domain growth, affected set, re-derivation, dirty diff) over the
//!   object set, an R-tree and the per-object sensitivity tables, with no
//!   UV-grid, leaf pages or object-store pages. Every [`UvSystem`] owns one;
//!   the sharded layer owns one for the whole dataset.
//! * [`shard`] — domain-sharded serving beyond the paper: the domain split
//!   into an `nx × ny` grid of shard rectangles, each indexing its
//!   halo-replicated object subset from the router's table (shards never
//!   derive), with queries routed by point ownership and answers
//!   bit-identical to the unsharded system.
//!   Elastic resharding splits hot shards and merges cold ones online,
//!   driven by per-shard load tallies, without breaking bit-identity or
//!   live subscription delta chains.
//! * [`subscribe`] — continuous PNN subscriptions beyond the paper: moving
//!   clients carry per-position *safe regions* (UV-leaf pinned stability
//!   disks derived from the `d_minmax` screen and the integration's branch
//!   structure); ticks inside the region cost zero leaf page reads, misses
//!   push answer-set deltas, updates invalidate by repaired-leaf epoch, and
//!   shard crossings migrate the subscription with an unbroken delta chain.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use uv_core::{builder::{build_uv_index, Method}, UvConfig};
//! use uv_data::{Dataset, GeneratorConfig, ObjectStore};
//! use uv_rtree::RTree;
//! use uv_store::PageStore;
//!
//! // A small uncertain dataset in a 10k x 10k domain.
//! let dataset = Dataset::generate(GeneratorConfig::paper_uniform(200));
//! let pages = Arc::new(PageStore::new());
//! let objects = ObjectStore::build(Arc::clone(&pages), &dataset.objects);
//! let rtree = RTree::build(&dataset.objects, &objects, Arc::clone(&pages));
//!
//! // Build the UV-index with the IC method (cr-objects, no refinement).
//! // A bad configuration surfaces as `UvError::InvalidConfig`, never a panic.
//! let (index, stats) = build_uv_index(
//!     &dataset.objects, &objects, &rtree, dataset.domain,
//!     Arc::new(PageStore::new()), Method::IC, UvConfig::default(),
//! ).unwrap();
//! assert_eq!(stats.objects, 200);
//!
//! // Answer a probabilistic nearest-neighbour query with a point lookup.
//! let q = dataset.query_points(1, 7)[0];
//! let answer = index.pnn(&objects, q, 100);
//! assert!(!answer.probabilities.is_empty());
//! ```
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub mod builder;
pub mod cell;
pub mod config;
pub mod crobjects;
pub mod engine;
pub mod error;
pub mod index;
pub mod pattern;
pub mod region;
pub mod router;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod subscribe;
pub mod system;
pub mod update;

pub use builder::{build_uv_index, Method};
pub use cell::UvCell;
pub use config::UvConfig;
pub use crobjects::{ChangeImpact, CrObjects, UpdateSensitivity};
pub use engine::{QueryEngine, TrajectoryStep};
pub use error::UvError;
pub use index::UvIndex;
pub use pattern::PartitionCell;
pub use region::PossibleRegion;
pub use router::DerivationRouter;
pub use shard::{ReshardStats, ShardLoadStats, ShardedUpdateStats, ShardedUvSystem};
pub use stats::{ConstructionStats, PruneStats};
pub use subscribe::{
    ClientId, SafeRegion, SubscriptionEngine, SubscriptionStats, SubscriptionTable,
};
pub use system::UvSystem;
pub use update::{ObjectState, UpdateBatch, UpdateOp, UpdateStats, Updater};
