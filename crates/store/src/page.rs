//! The page store: fixed-size pages addressed by [`PageId`], every access
//! counted, with freed pages reused lowest id first.

use crate::codec::{corrupt, Decode, Encode};
use crate::counter::{IoCounters, IoSnapshot};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Default page size used by the experiments (the paper uses 4 KB pages).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of a page inside a [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Page bytes by id, plus the ids freed for reuse (which hold no bytes).
#[derive(Debug, Default)]
struct Pages {
    data: Vec<Bytes>,
    free: BTreeSet<u32>,
}

/// A thread-safe simulated disk: pages of at most `page_size` bytes, with
/// every read and write recorded in shared [`IoCounters`].
///
/// A writer that replaces a page list frees the old pages
/// ([`PageStore::free`]) before it allocates the new ones, and
/// [`PageStore::allocate`] reuses the lowest free id before it appends. So a
/// store holds its live pages plus at most one batch's churn, and because
/// the free *set* alone decides every later allocation, a loaded store
/// allocates exactly as the saved one would have.
#[derive(Debug)]
pub struct PageStore {
    pages: RwLock<Pages>,
    counters: Arc<IoCounters>,
    page_size: usize,
}

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore {
    /// Store with the default 4 KB page size.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Store with a custom page size (must be positive).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            pages: RwLock::new(Pages::default()),
            counters: Arc::new(IoCounters::new()),
            page_size,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated (live) pages.
    pub fn num_pages(&self) -> usize {
        let pages = self.pages.read();
        pages.data.len() - pages.free.len()
    }

    /// Number of freed pages awaiting reuse.
    pub fn free_pages(&self) -> usize {
        self.pages.read().free.len()
    }

    /// `true` when `id` names an allocated page (in range and not freed).
    pub fn is_allocated(&self, id: PageId) -> bool {
        let pages = self.pages.read();
        (id.0 as usize) < pages.data.len() && !pages.free.contains(&id.0)
    }

    /// Shared handle to the I/O counters (e.g. to hand to query statistics).
    pub fn counters(&self) -> Arc<IoCounters> {
        Arc::clone(&self.counters)
    }

    /// Current I/O totals.
    pub fn io(&self) -> IoSnapshot {
        self.counters.snapshot()
    }

    /// Resets the I/O counters (page contents are untouched).
    pub fn reset_io(&self) {
        self.counters.reset();
    }

    /// Allocates a page holding `data` — the lowest free id if any page was
    /// freed, a new id otherwise. Counts one write.
    ///
    /// # Panics
    /// Panics if `data` exceeds the page size — callers are expected to pack
    /// records into page-sized chunks (see [`crate::PagedList`]).
    pub fn allocate(&self, data: Bytes) -> PageId {
        assert!(
            data.len() <= self.page_size,
            "page overflow: {} > {}",
            data.len(),
            self.page_size
        );
        self.counters.record_write();
        let mut pages = self.pages.write();
        match pages.free.pop_first() {
            Some(id) => {
                pages.data[id as usize] = data;
                PageId(id)
            }
            None => {
                let id = PageId(pages.data.len() as u32);
                pages.data.push(data);
                id
            }
        }
    }

    /// Frees page `id`: its bytes are dropped and the id is reused by a later
    /// [`PageStore::allocate`]. Counted apart from I/O (nothing is read or
    /// written) as [`IoSnapshot::frees`].
    ///
    /// # Panics
    /// Panics if `id` is not allocated: freeing a page twice is a bug in the
    /// structure that owned it.
    pub fn free(&self, id: PageId) {
        let mut pages = self.pages.write();
        let allocated = (id.0 as usize) < pages.data.len() && pages.free.insert(id.0);
        assert!(allocated, "page {} is not allocated", id.0);
        pages.data[id.0 as usize] = Bytes::new();
        self.counters.record_free();
    }

    /// Overwrites an existing page. Counts one write.
    pub fn write(&self, id: PageId, data: Bytes) {
        assert!(
            data.len() <= self.page_size,
            "page overflow: {} > {}",
            data.len(),
            self.page_size
        );
        self.counters.record_write();
        let mut pages = self.pages.write();
        pages.data[id.0 as usize] = data;
    }

    /// Reads a page. Counts one read.
    pub fn read(&self, id: PageId) -> Bytes {
        self.counters.record_read();
        self.read_uncounted(id)
    }

    /// Reads a page without counting I/O (used by construction-time packing
    /// where the paper does not charge query I/O).
    pub fn read_uncounted(&self, id: PageId) -> Bytes {
        self.pages.read().data[id.0 as usize].clone()
    }

    /// Total bytes stored across all pages.
    pub fn stored_bytes(&self) -> usize {
        self.pages.read().data.iter().map(Bytes::len).sum()
    }
}

/// Upper bound accepted for a persisted page size — far above any sane
/// configuration, low enough that a corrupted header cannot demand an
/// absurd allocation per page.
const MAX_PERSISTED_PAGE_SIZE: u64 = 1 << 24;

/// The persistent representation of a [`PageStore`] is its page size, the
/// raw bytes of every page id in order (a free page is an empty one) and
/// then the ascending free set. The I/O counters are runtime state: a loaded
/// store starts with zeroed counters.
impl Encode for PageStore {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.page_size.write_to(w)?;
        let pages = self.pages.read();
        pages.data.len().write_to(w)?;
        for page in &pages.data {
            page.len().write_to(w)?;
            w.write_all(page)?;
        }
        let free: Vec<u32> = pages.free.iter().copied().collect();
        free.write_to(w)
    }
}

impl Decode for PageStore {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        let page_size = u64::read_from(r)?;
        if page_size == 0 || page_size > MAX_PERSISTED_PAGE_SIZE {
            return Err(corrupt(format!("implausible page size {page_size}")));
        }
        let page_size = page_size as usize;
        let num_pages = usize::read_from(r)?;
        let mut data = Vec::with_capacity(num_pages.min(4_096));
        for i in 0..num_pages {
            let len = usize::read_from(r)?;
            if len > page_size {
                return Err(corrupt(format!(
                    "page {i} holds {len} bytes, exceeding the page size {page_size}"
                )));
            }
            let mut bytes = vec![0u8; len];
            r.read_exact(&mut bytes)?;
            data.push(Bytes::from(bytes));
        }
        let mut free = BTreeSet::new();
        for id in Vec::<u32>::read_from(r)? {
            match data.get(id as usize) {
                None => return Err(corrupt(format!("free page {id} is out of range"))),
                Some(page) if !page.is_empty() => {
                    return Err(corrupt(format!("free page {id} holds bytes")))
                }
                Some(_) if !free.insert(id) => {
                    return Err(corrupt(format!("page {id} is freed twice")))
                }
                Some(_) => {}
            }
        }
        Ok(Self {
            pages: RwLock::new(Pages { data, free }),
            counters: Arc::new(IoCounters::new()),
            page_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_roundtrip() {
        let store = PageStore::new();
        let id = store.allocate(Bytes::from_static(b"hello"));
        assert_eq!(store.num_pages(), 1);
        assert_eq!(store.read(id), Bytes::from_static(b"hello"));
        let io = store.io();
        assert_eq!(io.writes, 1);
        assert_eq!(io.reads, 1);
    }

    #[test]
    fn write_overwrites_and_counts() {
        let store = PageStore::new();
        let id = store.allocate(Bytes::from_static(b"a"));
        store.write(id, Bytes::from_static(b"bb"));
        assert_eq!(store.read_uncounted(id), Bytes::from_static(b"bb"));
        assert_eq!(store.io().writes, 2);
        assert_eq!(store.io().reads, 0);
        assert_eq!(store.stored_bytes(), 2);
    }

    #[test]
    fn reset_io_keeps_data() {
        let store = PageStore::new();
        let id = store.allocate(Bytes::from_static(b"abc"));
        store.reset_io();
        assert_eq!(store.io().total(), 0);
        assert_eq!(store.read(id), Bytes::from_static(b"abc"));
        assert_eq!(store.io().reads, 1);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn oversized_page_is_rejected() {
        let store = PageStore::with_page_size(4);
        store.allocate(Bytes::from_static(b"too long"));
    }

    #[test]
    fn custom_page_size() {
        let store = PageStore::with_page_size(128);
        assert_eq!(store.page_size(), 128);
        store.allocate(Bytes::from(vec![0u8; 128]));
        assert_eq!(store.num_pages(), 1);
    }

    #[test]
    fn freed_pages_are_reused_lowest_first() {
        let store = PageStore::with_page_size(16);
        let ids: Vec<PageId> = (0..4u8)
            .map(|i| store.allocate(Bytes::from(vec![i; 4])))
            .collect();
        store.free(ids[2]);
        store.free(ids[0]);
        assert_eq!(store.num_pages(), 2);
        assert_eq!(store.free_pages(), 2);
        assert!(!store.is_allocated(ids[0]));
        assert!(store.is_allocated(ids[1]));
        assert!(!store.is_allocated(PageId(9)));
        assert_eq!(store.stored_bytes(), 8);
        // Freeing is no I/O; the reuse order is the ids', not the frees'.
        assert_eq!((store.io().writes, store.io().frees), (4, 2));
        assert_eq!(store.allocate(Bytes::from_static(b"a")), ids[0]);
        assert_eq!(store.allocate(Bytes::from_static(b"b")), ids[2]);
        assert_eq!(store.allocate(Bytes::from_static(b"c")), PageId(4));
        assert_eq!(store.free_pages(), 0);
        assert_eq!(store.io().writes, 7);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_is_rejected() {
        let store = PageStore::new();
        let id = store.allocate(Bytes::from_static(b"x"));
        store.free(id);
        store.free(id);
    }

    #[test]
    fn persisted_store_roundtrips_pages_and_resets_counters() {
        let store = PageStore::with_page_size(64);
        let a = store.allocate(Bytes::from_static(b"first page"));
        let b = store.allocate(Bytes::from(vec![0xAB; 64]));
        let c = store.allocate(Bytes::from_static(b"freed"));
        store.free(c);
        store.read(a);

        let bytes = crate::codec::to_bytes(&store);
        let back: PageStore = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.page_size(), 64);
        assert_eq!((back.num_pages(), back.free_pages()), (2, 1));
        assert_eq!(back.read_uncounted(a), Bytes::from_static(b"first page"));
        assert_eq!(back.read_uncounted(b), Bytes::from(vec![0xAB; 64]));
        // Counters are runtime-only: the loaded store starts from zero.
        assert_eq!(back.io().total(), 0);
        assert_eq!(back.stored_bytes(), store.stored_bytes());
        // The free set travels too: the loaded store allocates exactly as
        // the saved one would.
        let next = Bytes::from_static(b"next");
        assert_eq!(back.allocate(next.clone()), store.allocate(next));
    }

    #[test]
    fn persisted_store_rejects_implausible_layouts() {
        use crate::codec::{from_bytes, to_bytes, Encode};
        // Zero page size.
        let mut bytes = Vec::new();
        0u64.write_to(&mut bytes).unwrap();
        0usize.write_to(&mut bytes).unwrap();
        assert!(from_bytes::<PageStore>(&bytes).is_err());
        // A page longer than the page size.
        let store = PageStore::with_page_size(8);
        store.allocate(Bytes::from_static(b"12345678"));
        let mut bytes = to_bytes(&store);
        // Patch the first page's length prefix (page_size u64 + count u64
        // precede it) to exceed the page size.
        bytes[16..24].copy_from_slice(&9u64.to_le_bytes());
        assert!(from_bytes::<PageStore>(&bytes).is_err());
        // A free set naming an out-of-range page, a page that holds bytes,
        // or one page twice. It trails the one 8-byte page (count + id).
        let store = PageStore::with_page_size(8);
        store.allocate(Bytes::from_static(b"12345678"));
        let valid = to_bytes(&store);
        for (free, what) in [(vec![1u32], "out of range"), (vec![0], "holds bytes")] {
            let mut bytes = valid.clone();
            bytes.truncate(bytes.len() - 8);
            free.write_to(&mut bytes).unwrap();
            let err = from_bytes::<PageStore>(&bytes).unwrap_err();
            assert!(err.to_string().contains(what), "{err}");
        }
        store.free(PageId(0));
        let mut bytes = to_bytes(&store);
        bytes.truncate(bytes.len() - 12);
        vec![0u32, 0].write_to(&mut bytes).unwrap();
        let err = from_bytes::<PageStore>(&bytes).unwrap_err();
        assert!(err.to_string().contains("freed twice"), "{err}");
    }
}
