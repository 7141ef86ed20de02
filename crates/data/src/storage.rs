//! Page-backed object storage shared by both indexes.
//!
//! Leaf pages of the R-tree and of the UV-index store `<ID, MBC, pointer>`
//! tuples ([`ObjectEntry`]); the pointer refers to the full object record —
//! uncertainty region plus pdf — kept in the [`ObjectStore`]. Retrieving the
//! pdf of an answer candidate is the "object retrieval" component of the
//! query-time breakdown in Figure 6(c) and is charged one page read per
//! object page, identically for both indexes.

use crate::object::{ObjectId, UncertainObject};
use crate::pdf::Pdf;
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::sync::Arc;
use uv_geom::{Circle, Point};
use uv_store::codec::{corrupt, Decode, Encode};
use uv_store::{PageId, PageStore, Record};

/// The `<ID, MBC, pointer>` tuple stored in leaf pages (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectEntry {
    /// Object identifier.
    pub id: ObjectId,
    /// Minimum bounding circle of the object's uncertainty region.
    pub mbc: Circle,
    /// Disk address of the full object record (page holding its pdf).
    pub ptr: u64,
}

impl ObjectEntry {
    /// Builds the leaf entry of `object`, pointing at `ptr`.
    pub fn new(object: &UncertainObject, ptr: u64) -> Self {
        Self {
            id: object.id,
            mbc: object.mbc(),
            ptr,
        }
    }

    /// Minimum possible distance between the object and `q`.
    #[inline]
    pub fn dist_min(&self, q: Point) -> f64 {
        self.mbc.dist_min(q)
    }

    /// Maximum possible distance between the object and `q`.
    #[inline]
    pub fn dist_max(&self, q: Point) -> f64 {
        self.mbc.dist_max(q)
    }
}

impl Record for ObjectEntry {
    // id (4) + padding (4) + x, y, radius (24) + ptr (8)
    const SIZE: usize = 40;

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(&self.mbc.center.x.to_le_bytes());
        buf.extend_from_slice(&self.mbc.center.y.to_le_bytes());
        buf.extend_from_slice(&self.mbc.radius.to_le_bytes());
        buf.extend_from_slice(&self.ptr.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let id = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let x = f64::from_le_bytes(buf[8..16].try_into().unwrap());
        let y = f64::from_le_bytes(buf[16..24].try_into().unwrap());
        let r = f64::from_le_bytes(buf[24..32].try_into().unwrap());
        let ptr = u64::from_le_bytes(buf[32..40].try_into().unwrap());
        Self {
            id,
            mbc: Circle::new(Point::new(x, y), r),
            ptr,
        }
    }
}

/// Disk-resident store of full object records (uncertainty region + pdf).
///
/// Objects are packed several to a page; reading an object charges one page
/// read unless the page was already read for an earlier object of the same
/// query batch (the per-query cache models the buffer the paper's
/// implementation would enjoy within a single query).
///
/// The store is *dynamic* and its pages hold live records only:
/// [`ObjectStore::update`] rewrites a record in place,
/// [`ObjectStore::remove`] rewrites its page without the record and frees
/// the page once it is empty, and [`ObjectStore::insert`] appends to the
/// lowest-id page with room, or else to a new page. No record changes page
/// unless its own operation moved it, so the record pointer
/// ([`ObjectStore::ptr_of`]) a leaf entry holds for any other object never
/// goes stale. Each operation writes at most one page.
#[derive(Debug)]
pub struct ObjectStore {
    store: Arc<PageStore>,
    /// Object id -> the page holding its record.
    directory: HashMap<ObjectId, PageId>,
    /// Decoded objects for verification-free access paths (construction).
    objects: HashMap<ObjectId, UncertainObject>,
    objects_per_page: usize,
    /// Pages that hold a record and have room for another: inserts fill the
    /// lowest first. A pure function of the directory and the page lengths,
    /// so a loader recomputes it.
    open: BTreeSet<PageId>,
}

/// Fixed encoded size of one object record: id (4) + bar count (4) +
/// centre/radius (24) + up to 20 bars (160).
const OBJECT_RECORD_SIZE: usize = 192;

impl ObjectStore {
    /// Packs `objects` onto pages of `store` and builds the directory.
    pub fn build(store: Arc<PageStore>, objects: &[UncertainObject]) -> Self {
        let objects_per_page = (store.page_size() / OBJECT_RECORD_SIZE).max(1);
        let mut directory = HashMap::with_capacity(objects.len());
        let mut map = HashMap::with_capacity(objects.len());
        let mut open = BTreeSet::new();
        for chunk in objects.chunks(objects_per_page) {
            let mut buf = Vec::with_capacity(chunk.len() * OBJECT_RECORD_SIZE);
            for o in chunk {
                encode_object(o, &mut buf);
            }
            let page = store.allocate(Bytes::from(buf));
            for o in chunk {
                directory.insert(o.id, page);
                map.insert(o.id, o.clone());
            }
            if chunk.len() < objects_per_page {
                open.insert(page);
            }
        }
        Self {
            store,
            directory,
            objects: map,
            objects_per_page,
            open,
        }
    }

    /// Stores a new object record on the lowest-id page with room, or on a
    /// new page when every page is full (one page write either way).
    ///
    /// # Panics
    /// Panics if an object with the same id is already stored — callers
    /// validate ids before mutating the store.
    pub fn insert(&mut self, object: &UncertainObject) {
        assert!(
            !self.directory.contains_key(&object.id),
            "object {} is already stored",
            object.id
        );
        let mut record = Vec::with_capacity(OBJECT_RECORD_SIZE);
        encode_object(object, &mut record);
        let page = match self.open.first().copied() {
            Some(page) => {
                let mut bytes = self.store.read_uncounted(page).to_vec();
                bytes.extend_from_slice(&record);
                if !has_room(bytes.len(), self.objects_per_page) {
                    self.open.remove(&page);
                }
                self.store.write(page, Bytes::from(bytes));
                page
            }
            None => {
                let page = self.store.allocate(Bytes::from(record));
                if has_room(OBJECT_RECORD_SIZE, self.objects_per_page) {
                    self.open.insert(page);
                }
                page
            }
        };
        self.directory.insert(object.id, page);
        self.objects.insert(object.id, object.clone());
    }

    /// Removes the record of `id`: its page is rewritten without it, or
    /// freed when it was the page's last record. Returns `false` when the id
    /// was not stored.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let Some(page) = self.directory.remove(&id) else {
            return false;
        };
        self.objects.remove(&id);
        let mut bytes = self.store.read_uncounted(page).to_vec();
        let at = record_offset(&bytes, id);
        bytes.drain(at..at + OBJECT_RECORD_SIZE);
        if bytes.is_empty() {
            self.open.remove(&page);
            self.store.free(page);
        } else {
            self.open.insert(page);
            self.store.write(page, Bytes::from(bytes));
        }
        true
    }

    /// Rewrites the record of `object` in place, on the page it already
    /// occupies.
    ///
    /// # Panics
    /// Panics if the object is not currently stored.
    pub fn update(&mut self, object: &UncertainObject) {
        let page = *self
            .directory
            .get(&object.id)
            .unwrap_or_else(|| panic!("object {} is not stored", object.id));
        let mut bytes = self.store.read_uncounted(page).to_vec();
        let at = record_offset(&bytes, object.id);
        let mut record = Vec::with_capacity(OBJECT_RECORD_SIZE);
        encode_object(object, &mut record);
        bytes[at..at + OBJECT_RECORD_SIZE].copy_from_slice(&record);
        self.store.write(page, Bytes::from(bytes));
        self.objects.insert(object.id, object.clone());
    }

    /// Number of objects per full page.
    pub fn objects_per_page(&self) -> usize {
        self.objects_per_page
    }

    /// The disk address stored in leaf entries for `id` (the page number).
    pub fn ptr_of(&self, id: ObjectId) -> u64 {
        self.directory.get(&id).map(|p| p.0 as u64).unwrap_or(0)
    }

    /// Retrieves the full record of `id`, charging one page read if its page
    /// is not in `touched_pages` yet (which is updated).
    pub fn fetch(
        &self,
        id: ObjectId,
        touched_pages: &mut std::collections::HashSet<u32>,
    ) -> Option<UncertainObject> {
        let page = *self.directory.get(&id)?;
        if touched_pages.insert(page.0) {
            let bytes = self.store.read(page);
            // Decode to honour the disk format (result matches the cache).
            let decoded = decode_page(&bytes);
            debug_assert!(decoded.iter().any(|o| o.id == id));
        }
        self.objects.get(&id).cloned()
    }

    /// Direct, I/O-free access used at construction time.
    pub fn get(&self, id: ObjectId) -> Option<&UncertainObject> {
        self.objects.get(&id)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Backing page store.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Writes the persistent state of the store: the id → page directory,
    /// id-sorted for a deterministic byte stream. The page *bytes* belong to
    /// the backing [`PageStore`], persisted separately; the pages with room
    /// follow from the directory and the page lengths, and the
    /// decoded-object cache is rebuilt on load from the live object set.
    pub fn write_state<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let mut directory: Vec<(u32, u32)> = self
            .directory
            .iter()
            .map(|(id, page)| (*id, page.0))
            .collect();
        directory.sort_unstable();
        directory.write_to(w)
    }

    /// Reconstructs a store over an already-loaded page `store`.
    ///
    /// `objects` is the live object set the directory must cover exactly —
    /// it refills the decoded-object cache without re-reading (and
    /// re-truncating) page bytes, so fetches after a load return records
    /// bit-identical to the never-persisted store. Any disagreement between
    /// the directory and the object set, a page that is not allocated, or a
    /// page that does not hold exactly the records the directory maps to it
    /// is reported as corruption rather than panicking in a later update.
    pub fn read_state<R: Read + ?Sized>(
        store: Arc<PageStore>,
        objects: &[UncertainObject],
        r: &mut R,
    ) -> io::Result<Self> {
        let objects_per_page = (store.page_size() / OBJECT_RECORD_SIZE).max(1);
        let raw_directory: Vec<(u32, u32)> = Vec::read_from(r)?;
        let mut directory = HashMap::with_capacity(raw_directory.len());
        let mut records: HashMap<PageId, Vec<ObjectId>> = HashMap::new();
        for (id, page) in raw_directory {
            let page = PageId(page);
            if !store.is_allocated(page) {
                return Err(corrupt(format!(
                    "object {id} points at page {}, which is not allocated",
                    page.0
                )));
            }
            if directory.insert(id, page).is_some() {
                return Err(corrupt(format!(
                    "object {id} appears twice in the directory"
                )));
            }
            records.entry(page).or_default().push(id);
        }
        let mut open = BTreeSet::new();
        for (page, mut ids) in records {
            let bytes = store.read_uncounted(page);
            let mut held: Vec<ObjectId> = bytes
                .chunks(OBJECT_RECORD_SIZE)
                .map(|rec| rec.get(0..4).map_or(ObjectId::MAX, record_id))
                .collect();
            ids.sort_unstable();
            held.sort_unstable();
            if !bytes.len().is_multiple_of(OBJECT_RECORD_SIZE) || held != ids {
                return Err(corrupt(format!(
                    "object page {} does not hold exactly the {} records mapped to it",
                    page.0,
                    ids.len()
                )));
            }
            if has_room(bytes.len(), objects_per_page) {
                open.insert(page);
            }
        }

        let mut map = HashMap::with_capacity(objects.len());
        for o in objects {
            if !directory.contains_key(&o.id) {
                return Err(corrupt(format!(
                    "live object {} missing from the directory",
                    o.id
                )));
            }
            if map.insert(o.id, o.clone()).is_some() {
                return Err(corrupt(format!("duplicate live object {}", o.id)));
            }
        }
        if map.len() != directory.len() {
            return Err(corrupt(format!(
                "directory holds {} entries for {} live objects",
                directory.len(),
                map.len()
            )));
        }
        Ok(Self {
            store,
            directory,
            objects: map,
            objects_per_page,
            open,
        })
    }
}

/// `true` when an object page of `len` bytes has room for one more record.
fn has_room(len: usize, objects_per_page: usize) -> bool {
    len < objects_per_page * OBJECT_RECORD_SIZE
}

/// The object id a record starts with.
fn record_id(rec: &[u8]) -> ObjectId {
    ObjectId::from_le_bytes([rec[0], rec[1], rec[2], rec[3]])
}

/// Byte offset of `id`'s record on a page the directory maps it to.
fn record_offset(page: &[u8], id: ObjectId) -> usize {
    let slot = page
        .chunks_exact(OBJECT_RECORD_SIZE)
        .position(|rec| record_id(rec) == id)
        .expect("a directory page holds the record of every id it maps");
    slot * OBJECT_RECORD_SIZE
}

fn encode_object(o: &UncertainObject, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&o.id.to_le_bytes());
    let bars: &[f64] = match &o.pdf {
        Pdf::Uniform => &[],
        Pdf::Histogram { bars } => bars.as_slice(),
    };
    let nbars = bars.len().min(20) as u32;
    buf.extend_from_slice(&nbars.to_le_bytes());
    buf.extend_from_slice(&o.center().x.to_le_bytes());
    buf.extend_from_slice(&o.center().y.to_le_bytes());
    buf.extend_from_slice(&o.radius().to_le_bytes());
    for b in bars.iter().take(20) {
        buf.extend_from_slice(&b.to_le_bytes());
    }
    // Pad to the fixed record size.
    buf.resize(start + OBJECT_RECORD_SIZE, 0);
}

fn decode_page(bytes: &[u8]) -> Vec<UncertainObject> {
    bytes
        .chunks_exact(OBJECT_RECORD_SIZE)
        .map(|rec| {
            let id = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let nbars = u32::from_le_bytes(rec[4..8].try_into().unwrap()) as usize;
            let x = f64::from_le_bytes(rec[8..16].try_into().unwrap());
            let y = f64::from_le_bytes(rec[16..24].try_into().unwrap());
            let r = f64::from_le_bytes(rec[24..32].try_into().unwrap());
            let pdf = if nbars == 0 {
                Pdf::Uniform
            } else {
                let bars = (0..nbars)
                    .map(|k| f64::from_le_bytes(rec[32 + k * 8..40 + k * 8].try_into().unwrap()))
                    .collect();
                Pdf::Histogram { bars }
            };
            UncertainObject::new(id, Point::new(x, y), r, pdf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample_objects(n: u32) -> Vec<UncertainObject> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    UncertainObject::with_gaussian(i, Point::new(i as f64 * 10.0, 5.0), 3.0)
                } else {
                    UncertainObject::with_uniform(i, Point::new(i as f64 * 10.0, 5.0), 3.0)
                }
            })
            .collect()
    }

    #[test]
    fn object_entry_roundtrip() {
        let o = UncertainObject::with_gaussian(9, Point::new(1.5, -2.5), 4.0);
        let e = ObjectEntry::new(&o, 77);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), ObjectEntry::SIZE);
        let back = ObjectEntry::decode(&buf);
        assert_eq!(back, e);
        assert_eq!(back.dist_min(Point::new(11.5, -2.5)), 6.0);
        assert_eq!(back.dist_max(Point::new(11.5, -2.5)), 14.0);
    }

    #[test]
    fn store_roundtrip_and_io_accounting() {
        let page_store = Arc::new(PageStore::new());
        let objects = sample_objects(50);
        let store = ObjectStore::build(Arc::clone(&page_store), &objects);
        assert_eq!(store.len(), 50);
        let build_io = page_store.io();
        assert!(build_io.writes > 0);
        page_store.reset_io();

        let mut touched = HashSet::new();
        let fetched = store.fetch(13, &mut touched).unwrap();
        assert_eq!(fetched, objects[13]);
        assert_eq!(page_store.io().reads, 1);

        // Fetching another object on the same page does not re-read it.
        let same_page_neighbor = 13 / store.objects_per_page() * store.objects_per_page();
        store
            .fetch(same_page_neighbor as u32, &mut touched)
            .unwrap();
        assert_eq!(page_store.io().reads, 1);

        // A fresh query batch pays the I/O again.
        let mut touched2 = HashSet::new();
        store.fetch(13, &mut touched2).unwrap();
        assert_eq!(page_store.io().reads, 2);
    }

    #[test]
    fn fetch_unknown_id_returns_none() {
        let page_store = Arc::new(PageStore::new());
        let store = ObjectStore::build(page_store, &sample_objects(3));
        let mut touched = HashSet::new();
        assert!(store.fetch(99, &mut touched).is_none());
        assert!(store.get(99).is_none());
        assert_eq!(store.ptr_of(99), 0);
    }

    #[test]
    fn churn_keeps_ptr_of_and_fetch_consistent() {
        // Regression for the dynamic store: after interleaved deletes,
        // inserts and in-place rewrites, every live object must fetch to its
        // exact record, its pointer must name the page the record lives on,
        // and dead ids must be gone.
        let page_store = Arc::new(PageStore::new());
        let mut objects = sample_objects(40);
        let mut store = ObjectStore::build(Arc::clone(&page_store), &objects);
        let pages = page_store.num_pages();

        // Delete every fourth object: the pages shrink but none empties.
        for id in (0..40u32).step_by(4) {
            assert!(store.remove(id));
            assert!(!store.remove(id), "double delete must report false");
        }
        assert_eq!(store.len(), 30);
        assert_eq!(page_store.num_pages(), pages);

        // Insert a fresh batch (re-using two of the freed ids): the holes
        // the deletes left take it, so no page is added.
        let mut fresh = sample_objects(48)[40..].to_vec();
        fresh.push(UncertainObject::with_uniform(0, Point::new(7.0, 7.0), 2.0));
        fresh.push(UncertainObject::with_gaussian(4, Point::new(9.0, 9.0), 3.0));
        for o in &fresh {
            store.insert(o);
        }
        assert_eq!(page_store.num_pages(), pages);
        // Move a survivor: its record is rewritten in place.
        let ptr = store.ptr_of(13);
        objects[13] = UncertainObject::with_gaussian(13, Point::new(-3.0, -4.0), 5.0);
        store.update(&objects[13]);
        assert_eq!(store.ptr_of(13), ptr);

        // `objects[13]` already holds the rewritten record.
        let live: Vec<UncertainObject> = objects
            .iter()
            .filter(|o| o.id % 4 != 0)
            .chain(fresh.iter())
            .cloned()
            .collect();
        for o in &live {
            let mut touched = HashSet::new();
            let fetched = store.fetch(o.id, &mut touched).unwrap();
            assert_eq!(&fetched, o, "object {} fetched a stale record", o.id);
            assert_eq!(store.get(o.id), Some(o));
            assert_eq!(
                store.ptr_of(o.id),
                touched.iter().next().copied().unwrap() as u64,
                "pointer of {} does not name its record page",
                o.id
            );
        }
        for dead in [8u32, 12, 16] {
            let mut touched = HashSet::new();
            assert!(store.fetch(dead, &mut touched).is_none());
            assert_eq!(store.ptr_of(dead), 0);
        }

        // I/O accounting stays exact under churn: fetching every live object
        // in one batch charges exactly one read per distinct directory page,
        // which must equal the store's atomic read counter delta.
        page_store.reset_io();
        let mut touched = HashSet::new();
        for o in &live {
            store.fetch(o.id, &mut touched).unwrap();
        }
        let distinct_pages: HashSet<u32> = live.iter().map(|o| store.ptr_of(o.id) as u32).collect();
        assert_eq!(touched.len(), distinct_pages.len());
        assert_eq!(page_store.io().reads, touched.len() as u64);
    }

    #[test]
    fn appends_compact_into_the_open_page() {
        let page_store = Arc::new(PageStore::new());
        let mut store = ObjectStore::build(Arc::clone(&page_store), &[]);
        let per_page = store.objects_per_page();
        let pages_before = page_store.num_pages();
        for o in sample_objects(per_page as u32) {
            store.insert(&o);
        }
        // A full page worth of appends allocates exactly one page.
        assert_eq!(page_store.num_pages(), pages_before + 1);
        store.insert(&UncertainObject::with_uniform(
            per_page as u32,
            Point::new(1.0, 1.0),
            1.0,
        ));
        assert_eq!(page_store.num_pages(), pages_before + 2);
    }

    #[test]
    fn records_stay_put_and_pages_hold_live_records_only() {
        let page_store = Arc::new(PageStore::new());
        let per_page = ObjectStore::build(Arc::new(PageStore::new()), &[]).objects_per_page();
        let objects = sample_objects(3 * per_page as u32);
        let mut store = ObjectStore::build(Arc::clone(&page_store), &objects);
        assert_eq!(page_store.num_pages(), 3);
        let writes = page_store.io().writes;

        // A move rewrites one page and keeps its pointer.
        let last = objects.last().unwrap().id;
        let ptr = store.ptr_of(last);
        store.update(&UncertainObject::with_uniform(
            last,
            Point::new(1.0, 1.0),
            2.0,
        ));
        assert_eq!(store.ptr_of(last), ptr);
        assert_eq!(page_store.io().writes, writes + 1);

        // Emptying the middle page frees it; a delete elsewhere rewrites
        // its page without the record.
        let middle = store.ptr_of(objects[per_page].id);
        for o in &objects[per_page..2 * per_page] {
            assert!(store.remove(o.id));
        }
        assert!(store.remove(objects[0].id));
        assert_eq!(page_store.num_pages(), 2);
        assert_eq!(page_store.free_pages(), 1);
        assert_eq!(
            page_store.stored_bytes(),
            store.len() * OBJECT_RECORD_SIZE,
            "object pages hold live records only"
        );

        // An insert fills the lowest page with room; once every page is
        // full, the next one takes the freed id.
        let fresh = |id: u32| UncertainObject::with_uniform(id, Point::new(5.0, 5.0), 1.0);
        store.insert(&fresh(900));
        assert_eq!(store.ptr_of(900), store.ptr_of(objects[1].id));
        store.insert(&fresh(901));
        assert_eq!(page_store.free_pages(), 0);
        assert_eq!(store.ptr_of(901), middle);
        for o in objects.iter().chain([&fresh(900), &fresh(901)]) {
            if let Some(live) = store.get(o.id) {
                let mut touched = HashSet::new();
                assert_eq!(store.fetch(o.id, &mut touched).as_ref(), Some(live));
            }
        }
    }

    #[test]
    fn state_roundtrip_preserves_the_directory_and_pages_with_room() {
        let page_store = Arc::new(PageStore::new());
        let mut objects = sample_objects(30);
        let mut store = ObjectStore::build(Arc::clone(&page_store), &objects);
        // Churn so the persisted state covers deletes, inserts and moves.
        store.remove(3);
        store.remove(17);
        objects[5] = UncertainObject::with_gaussian(5, Point::new(-1.0, -2.0), 4.0);
        store.update(&objects[5]);
        let extra = UncertainObject::with_uniform(90, Point::new(8.0, 8.0), 2.0);
        store.insert(&extra);

        let live: Vec<UncertainObject> = objects
            .iter()
            .filter(|o| o.id != 3 && o.id != 17)
            .cloned()
            .chain(std::iter::once(extra.clone()))
            .collect();

        // Round-trip the page store and the object-store state.
        let pages: PageStore =
            uv_store::codec::from_bytes(&uv_store::codec::to_bytes(&*page_store)).unwrap();
        let pages = Arc::new(pages);
        let mut state = Vec::new();
        store.write_state(&mut state).unwrap();
        let back =
            ObjectStore::read_state(Arc::clone(&pages), &live, &mut state.as_slice()).unwrap();

        assert_eq!(back.len(), store.len());
        assert_eq!(back.objects_per_page(), store.objects_per_page());
        for o in &live {
            assert_eq!(back.ptr_of(o.id), store.ptr_of(o.id), "pointer of {}", o.id);
            let mut touched = HashSet::new();
            assert_eq!(back.fetch(o.id, &mut touched).as_ref(), Some(o));
        }
        // The restored pages with room take inserts like the original's.
        let mut back = back;
        let mut orig = store;
        let next = UncertainObject::with_uniform(91, Point::new(9.0, 9.0), 2.0);
        back.insert(&next);
        orig.insert(&next);
        assert_eq!(back.ptr_of(91), orig.ptr_of(91));
    }

    #[test]
    fn state_rejects_directory_object_disagreements() {
        let page_store = Arc::new(PageStore::new());
        let objects = sample_objects(4);
        let store = ObjectStore::build(Arc::clone(&page_store), &objects);
        let mut state = Vec::new();
        store.write_state(&mut state).unwrap();
        // An object set missing a directory id.
        assert!(ObjectStore::read_state(
            Arc::clone(&page_store),
            &objects[..3],
            &mut state.as_slice()
        )
        .is_err());
        // An object set with an id the directory does not know.
        let mut extra = objects.clone();
        extra.push(UncertainObject::with_uniform(99, Point::new(1.0, 1.0), 1.0));
        assert!(
            ObjectStore::read_state(Arc::clone(&page_store), &extra, &mut state.as_slice())
                .is_err()
        );
        // A directory pointing at a page the store does not hold.
        let empty = Arc::new(PageStore::new());
        assert!(ObjectStore::read_state(empty, &objects, &mut state.as_slice()).is_err());
        // A directory naming a free page: the page was freed after the save.
        let page = PageId(store.ptr_of(objects[0].id) as u32);
        let freed = Arc::new(PageStore::new());
        ObjectStore::build(Arc::clone(&freed), &objects);
        freed.free(page);
        let err = ObjectStore::read_state(freed, &objects, &mut state.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not allocated"), "{err}");
        // A page holding other records than the directory maps to it: too
        // few, or the right number with a foreign id.
        for records in [vec![0u8; OBJECT_RECORD_SIZE], {
            let mut foreign = Vec::new();
            for o in &objects[1..] {
                encode_object(o, &mut foreign);
            }
            encode_object(
                &UncertainObject::with_uniform(77, Point::new(1.0, 1.0), 1.0),
                &mut foreign,
            );
            foreign
        }] {
            let bad = Arc::new(PageStore::new());
            ObjectStore::build(Arc::clone(&bad), &objects);
            bad.write(page, Bytes::from(records));
            let err = ObjectStore::read_state(bad, &objects, &mut state.as_slice()).unwrap_err();
            assert!(err.to_string().contains("does not hold exactly"), "{err}");
        }
    }

    #[test]
    fn uniform_and_histogram_pdfs_survive_encoding() {
        let page_store = Arc::new(PageStore::new());
        let objects = sample_objects(4);
        let store = ObjectStore::build(Arc::clone(&page_store), &objects);
        // Decode straight from the page bytes to verify the on-disk format.
        let page = *store.directory.get(&0).unwrap();
        let decoded = decode_page(&page_store.read_uncounted(page));
        assert_eq!(decoded.len(), 4.min(store.objects_per_page()));
        assert_eq!(decoded[0], objects[0]);
        assert_eq!(decoded[1].pdf, Pdf::Uniform);
    }
}
