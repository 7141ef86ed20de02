//! Lists of fixed-size records packed into pages.
//!
//! Both index structures of the paper keep their leaf-level payload as lists
//! of `<ID, MBC, pointer>` tuples on disk pages: the R-tree leaf nodes and
//! the "linked list of disk pages" attached to every UV-index leaf
//! (Section V-A). [`PagedList`] is that structure; reading it back counts one
//! I/O per page, which is exactly what Figure 6(b) measures.
//!
//! A list only grows by appending. A writer that replaces a list calls
//! [`PagedList::free`] on the old one *before* it builds the new one, so the
//! new pages reuse the old ids. Lists are `Clone`, so freeing is always this
//! explicit call, never a `Drop`.

use crate::codec::{corrupt, Decode, Encode};
use crate::page::{PageId, PageStore};
use bytes::Bytes;
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// A fixed-size record that can be stored in a [`PagedList`].
pub trait Record: Sized {
    /// Encoded size in bytes. Must be positive and no larger than the page
    /// size of the store the list lives in.
    const SIZE: usize;

    /// Appends exactly [`Record::SIZE`] bytes to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a record from exactly [`Record::SIZE`] bytes.
    fn decode(buf: &[u8]) -> Self;
}

/// A page-backed list of records, grown by appending.
#[derive(Debug, Clone)]
pub struct PagedList<T: Record> {
    store: Arc<PageStore>,
    pages: Vec<PageId>,
    /// Records not yet flushed to a full page.
    tail: Vec<T>,
    len: usize,
}

impl<T: Record + Clone> PagedList<T> {
    /// Creates an empty list backed by `store`.
    pub fn new(store: Arc<PageStore>) -> Self {
        assert!(T::SIZE > 0, "record size must be positive");
        assert!(
            T::SIZE <= store.page_size(),
            "record larger than a page ({} > {})",
            T::SIZE,
            store.page_size()
        );
        Self {
            store,
            pages: Vec::new(),
            tail: Vec::new(),
            len: 0,
        }
    }

    /// Number of records per full page.
    pub fn records_per_page(&self) -> usize {
        self.store.page_size() / T::SIZE
    }

    /// Number of records in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of disk pages the list occupies once flushed (the partially
    /// filled tail counts as one page, mirroring how the paper counts leaf
    /// pages).
    pub fn num_pages(&self) -> usize {
        self.pages.len() + usize::from(!self.tail.is_empty())
    }

    /// `true` when appending one more record would allocate a new page —
    /// the OVERFLOW condition of Algorithm 3.
    pub fn next_push_allocates(&self) -> bool {
        self.tail.len() == self.records_per_page() - 1 || self.records_per_page() == 1
    }

    /// Appends a record, flushing a page when the in-memory tail fills up.
    pub fn push(&mut self, record: T) {
        self.tail.push(record);
        self.len += 1;
        if self.tail.len() >= self.records_per_page() {
            self.flush_tail();
        }
    }

    fn flush_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut buf = Vec::with_capacity(self.tail.len() * T::SIZE);
        for r in &self.tail {
            r.encode(&mut buf);
        }
        let id = self.store.allocate(Bytes::from(buf));
        self.pages.push(id);
        self.tail.clear();
    }

    /// Forces any buffered records onto a page (done automatically by
    /// [`PagedList::read_all`] callers at build time via `seal`).
    pub fn seal(&mut self) {
        self.flush_tail();
    }

    /// Reads every record back, charging one read I/O per sealed page.
    /// Unsealed tail records (still in memory) are returned without I/O.
    pub fn read_all(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for page in &self.pages {
            let bytes = self.store.read(*page);
            for chunk in bytes.chunks_exact(T::SIZE) {
                out.push(T::decode(chunk));
            }
        }
        out.extend(self.tail.iter().cloned());
        out
    }

    /// Reads every record without charging I/O (construction-time use).
    pub fn read_all_uncounted(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for page in &self.pages {
            let bytes = self.store.read_uncounted(*page);
            for chunk in bytes.chunks_exact(T::SIZE) {
                out.push(T::decode(chunk));
            }
        }
        out.extend(self.tail.iter().cloned());
        out
    }

    /// Shared handle to the backing store.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Frees every sealed page of the list for reuse by the next allocation
    /// in its store. The list is consumed: its pages are no longer its own.
    pub fn free(self) {
        for page in self.pages {
            self.store.free(page);
        }
    }

    /// Writes the persistent state of the list: the page ids it occupies and
    /// the unsealed tail records. The page *contents* belong to the backing
    /// [`PageStore`], which is persisted separately — a list state is only
    /// meaningful next to the store it indexes into.
    pub fn write_state<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.pages.len().write_to(w)?;
        for page in &self.pages {
            page.0.write_to(w)?;
        }
        self.tail.len().write_to(w)?;
        let mut buf = Vec::with_capacity(T::SIZE);
        for record in &self.tail {
            buf.clear();
            record.encode(&mut buf);
            w.write_all(&buf)?;
        }
        Ok(())
    }

    /// Reconstructs a list from its persisted state over an already-loaded
    /// `store`. Every page id must name an allocated page of the store, so a
    /// corrupted snapshot cannot panic a later [`PagedList::read_all`] or
    /// [`PagedList::free`].
    pub fn read_state<R: Read + ?Sized>(store: Arc<PageStore>, r: &mut R) -> io::Result<Self> {
        let num_pages = usize::read_from(r)?;
        let records_per_page = store.page_size() / T::SIZE;
        let mut pages = Vec::with_capacity(num_pages.min(4_096));
        for _ in 0..num_pages {
            let id = PageId(u32::read_from(r)?);
            if !store.is_allocated(id) {
                return Err(corrupt(format!(
                    "page list references page {}, which is not allocated",
                    id.0
                )));
            }
            pages.push(id);
        }
        let tail_len = usize::read_from(r)?;
        if tail_len >= records_per_page.max(1) {
            return Err(corrupt(format!(
                "page-list tail holds {tail_len} records, a page holds {records_per_page}"
            )));
        }
        let mut tail = Vec::with_capacity(tail_len.min(4_096));
        let mut buf = vec![0u8; T::SIZE];
        for _ in 0..tail_len {
            r.read_exact(&mut buf)?;
            tail.push(T::decode(&buf));
        }
        let len = pages
            .iter()
            .map(|p| store.read_uncounted(*p).len() / T::SIZE)
            .sum::<usize>()
            + tail.len();
        Ok(Self {
            store,
            pages,
            tail,
            len,
        })
    }
}

/// Checks that no page belongs to two of `lists` — the page lists of one
/// loaded structure. Each list frees its own pages, so a shared page would
/// be freed twice.
pub fn ensure_disjoint<'a, T: Record + 'a>(
    lists: impl IntoIterator<Item = &'a PagedList<T>>,
) -> io::Result<()> {
    let mut owned = HashSet::new();
    for page in lists.into_iter().flat_map(|list| &list.pages) {
        if !owned.insert(*page) {
            return Err(corrupt(format!(
                "page {} belongs to two page lists",
                page.0
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rec(u64);

    impl Record for Rec {
        const SIZE: usize = 8;
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Self {
            Rec(u64::from_le_bytes(buf.try_into().unwrap()))
        }
    }

    fn small_store() -> Arc<PageStore> {
        // 32-byte pages -> 4 records per page.
        Arc::new(PageStore::with_page_size(32))
    }

    #[test]
    fn push_and_read_roundtrip() {
        let store = small_store();
        let mut list = PagedList::new(Arc::clone(&store));
        for i in 0..10u64 {
            list.push(Rec(i));
        }
        assert_eq!(list.len(), 10);
        assert_eq!(list.records_per_page(), 4);
        // 10 records -> 2 full pages + tail of 2.
        assert_eq!(list.num_pages(), 3);
        let all = list.read_all();
        assert_eq!(all, (0..10).map(Rec).collect::<Vec<_>>());
        // Reading charged one I/O per sealed page (2).
        assert_eq!(store.io().reads, 2);
    }

    #[test]
    fn seal_flushes_tail() {
        let store = small_store();
        let mut list = PagedList::new(Arc::clone(&store));
        list.push(Rec(7));
        assert_eq!(list.num_pages(), 1);
        list.seal();
        assert_eq!(list.num_pages(), 1);
        store.reset_io();
        let all = list.read_all();
        assert_eq!(all, vec![Rec(7)]);
        assert_eq!(store.io().reads, 1);
    }

    #[test]
    fn empty_list() {
        let store = small_store();
        let mut list: PagedList<Rec> = PagedList::new(store);
        assert!(list.is_empty());
        assert_eq!(list.num_pages(), 0);
        assert!(list.read_all().is_empty());
        list.seal();
        assert_eq!(list.num_pages(), 0);
    }

    #[test]
    fn next_push_allocates_signal() {
        let store = small_store();
        let mut list = PagedList::new(store);
        assert!(!list.next_push_allocates());
        list.push(Rec(0));
        list.push(Rec(1));
        list.push(Rec(2));
        // Tail has 3 of 4 slots filled: the next push completes a page.
        assert!(list.next_push_allocates());
        list.push(Rec(3));
        assert!(!list.next_push_allocates());
    }

    #[test]
    fn state_roundtrip_preserves_pages_tail_and_len() {
        let store = small_store();
        let mut list = PagedList::new(Arc::clone(&store));
        for i in 0..11u64 {
            list.push(Rec(i));
        }
        // 2 sealed pages + a tail of 3.
        let mut state = Vec::new();
        list.write_state(&mut state).unwrap();
        let back: PagedList<Rec> =
            PagedList::read_state(Arc::clone(&store), &mut state.as_slice()).unwrap();
        assert_eq!(back.len(), 11);
        assert_eq!(back.num_pages(), 3);
        assert_eq!(back.read_all_uncounted(), list.read_all_uncounted());
        // The restored tail keeps appending where the original left off.
        let mut back = back;
        back.push(Rec(11));
        assert_eq!(back.read_all_uncounted().len(), 12);
    }

    #[test]
    fn state_rejects_out_of_range_pages_and_overlong_tails() {
        let store = small_store();
        let mut list = PagedList::new(Arc::clone(&store));
        for i in 0..4u64 {
            list.push(Rec(i)); // exactly one sealed page
        }
        let mut state = Vec::new();
        list.write_state(&mut state).unwrap();
        // Patch the single page id (after the u64 page count) out of range,
        // then to a page of the store that was freed.
        let mut bad = state.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(PagedList::<Rec>::read_state(Arc::clone(&store), &mut bad.as_slice()).is_err());
        let mut freed = PagedList::new(Arc::clone(&store));
        for i in 0..4u64 {
            freed.push(Rec(i));
        }
        freed.free();
        let mut bad = state.clone();
        bad[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(!store.is_allocated(PageId(1)));
        assert!(PagedList::<Rec>::read_state(Arc::clone(&store), &mut bad.as_slice()).is_err());
        // Two lists naming one page each read, but not as one structure's.
        let twice: Vec<PagedList<Rec>> = (0..2)
            .map(|_| PagedList::read_state(Arc::clone(&store), &mut state.as_slice()).unwrap())
            .collect();
        assert!(ensure_disjoint(&twice[..1]).is_ok());
        let err = ensure_disjoint(&twice).unwrap_err();
        assert!(err.to_string().contains("two page lists"), "{err}");
        // Patch the tail length to a full page's worth.
        let mut bad = state.clone();
        let tail_at = bad.len() - 8;
        bad[tail_at..].copy_from_slice(&4u64.to_le_bytes());
        assert!(PagedList::<Rec>::read_state(store, &mut bad.as_slice()).is_err());
    }

    #[test]
    fn a_freed_list_hands_its_pages_to_the_next_list() {
        let store = small_store();
        let mut old = PagedList::new(Arc::clone(&store));
        for i in 0..10u64 {
            old.push(Rec(i));
        }
        old.seal();
        let before = store.num_pages();
        old.free();
        assert_eq!(store.num_pages(), 0);
        assert_eq!(store.free_pages(), before);
        let mut new = PagedList::new(Arc::clone(&store));
        for i in 0..9u64 {
            new.push(Rec(i + 100));
        }
        new.seal();
        assert_eq!(store.num_pages(), 3);
        assert_eq!(store.free_pages(), 0);
        assert_eq!(new.read_all_uncounted()[8], Rec(108));
    }

    #[test]
    fn uncounted_read_does_not_charge_io() {
        let store = small_store();
        let mut list = PagedList::new(Arc::clone(&store));
        for i in 0..8u64 {
            list.push(Rec(i));
        }
        store.reset_io();
        let all = list.read_all_uncounted();
        assert_eq!(all.len(), 8);
        assert_eq!(store.io().reads, 0);
    }
}
