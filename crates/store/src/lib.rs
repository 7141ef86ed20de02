//! Simulated disk-page storage with explicit I/O accounting.
//!
//! The paper evaluates both the UV-index and the R-tree baseline by the
//! number of *leaf-page I/Os* a query incurs (Figure 6(b)): non-leaf nodes of
//! both indexes are memory resident while leaf nodes live on 4 KB disk pages.
//! This crate provides that substrate:
//!
//! * [`PageStore`] — a thread-safe collection of fixed-size pages whose every
//!   read and write is counted by [`IoCounters`]; freed pages are reused,
//!   lowest id first, before the store appends.
//! * [`PagedList`] — a list of fixed-size records spread across pages, grown
//!   by appending and freed as a whole when its owner replaces it: the
//!   structure used both by R-tree leaf nodes and by the linked page lists
//!   attached to UV-index leaves (`<ID, MBC, pointer>` tuples).
//! * [`codec`] — the hand-rolled little-endian [`codec::Encode`] /
//!   [`codec::Decode`] layer of the snapshot subsystem: primitive and
//!   container codecs, FNV-1a checksums and framed sections. Both storage
//!   structures persist through it (`PageStore` as raw pages plus its free
//!   set, `PagedList` via
//!   [`PagedList::write_state`] / [`PagedList::read_state`]); I/O counters
//!   are runtime-only and reset on load.
//!
//! Timings in the reproduction come from wall-clock measurement; I/O counts
//! come from here and are exact.
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub mod codec;
pub mod counter;
pub mod list;
pub mod page;

pub use codec::{Decode, Encode};
pub use counter::{IoCounters, IoSnapshot};
pub use list::{ensure_disjoint, PagedList, Record};
pub use page::{PageId, PageStore, DEFAULT_PAGE_SIZE};
