//! Nearest-neighbour pattern analysis queries (Section V-C).
//!
//! 1. **UV-cell retrieval** — the approximate area / extent / shape of the
//!    region in which an object can be the nearest neighbour, computed from
//!    the leaf regions associated with the object (the per-leaf summaries are
//!    maintained offline at construction time, as the paper suggests).
//! 2. **UV-partition retrieval** — given a query region `R`, all leaf regions
//!    intersecting `R` together with their nearest-neighbour *density*
//!    (objects associated with the leaf divided by the leaf area).

use crate::index::{GridNode, UvIndex};
use uv_data::ObjectId;
use uv_geom::Rect;

/// One grid cell returned by a UV-partition query.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCell {
    /// Region covered by the leaf.
    pub region: Rect,
    /// Objects whose UV-cells (may) overlap the region.
    pub object_ids: Vec<ObjectId>,
    /// Nearest-neighbour density: objects per unit area.
    pub density: f64,
}

impl PartitionCell {
    /// Number of objects associated with the cell.
    pub fn object_count(&self) -> usize {
        self.object_ids.len()
    }
}

impl UvIndex {
    /// Regions of all leaves associated with object `id` (the approximate
    /// shape of its UV-cell). Uses the offline per-leaf summaries, so no I/O
    /// is charged.
    pub fn cell_leaf_regions(&self, id: ObjectId) -> Vec<Rect> {
        self.leaves()
            .filter(|(_, ids)| ids.contains(&id))
            .map(|(region, _)| *region)
            .collect()
    }

    /// Approximate area of the UV-cell of `id`: the total area of the leaf
    /// regions associated with it. This over-approximates the true cell (a
    /// leaf is associated with every cell that may overlap it), exactly as
    /// the paper's offline area information does.
    pub fn cell_area(&self, id: ObjectId) -> f64 {
        self.cell_leaf_regions(id).iter().map(Rect::area).sum()
    }

    /// Bounding box of the UV-cell of `id`, or `None` when the object is
    /// unknown to the index.
    pub fn cell_extent(&self, id: ObjectId) -> Option<Rect> {
        let regions = self.cell_leaf_regions(id);
        if regions.is_empty() {
            return None;
        }
        Some(regions.iter().fold(Rect::empty(), |acc, r| acc.union(r)))
    }

    /// UV-partition query: every leaf region intersecting `query_region`,
    /// with its object list and density. Leaf page lists are read from disk
    /// (charging I/O), mirroring how a user-facing query would materialise
    /// the partition contents.
    pub fn partition_query(&self, query_region: &Rect) -> Vec<PartitionCell> {
        let mut out = Vec::new();
        for (node, region) in self.nodes.iter().zip(&self.node_regions) {
            let GridNode::Leaf { list, .. } = node else {
                continue;
            };
            if !region.intersects(query_region) {
                continue;
            }
            let object_ids: Vec<ObjectId> = list.read_all().iter().map(|e| e.id).collect();
            let area = region.area();
            let density = if area > 0.0 {
                object_ids.len() as f64 / area
            } else {
                0.0
            };
            out.push(PartitionCell {
                region: *region,
                object_ids,
                density,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use crate::config::UvConfig;
    use crate::UvSystem;
    use std::sync::Arc;
    use uv_data::{Dataset, GeneratorConfig, ObjectStore};
    use uv_store::PageStore;

    fn build(n: usize) -> (Dataset, UvIndex) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let system = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default(),
        );
        (ds, system.unwrap().index)
    }

    #[test]
    fn cell_area_is_positive_and_bounded_by_domain() {
        let (ds, index) = build(400);
        for id in [0u32, 100, 399] {
            let area = index.cell_area(id);
            assert!(area > 0.0, "object {id} has empty cell");
            assert!(area <= ds.domain.area() + 1e-6);
            let extent = index.cell_extent(id).unwrap();
            assert!(ds.domain.contains_rect(&extent));
            // The cell extent must contain the object's own centre.
            assert!(extent.contains(ds.objects[id as usize].center()));
        }
        assert!(index.cell_extent(9999).is_none());
        assert_eq!(index.cell_area(9999), 0.0);
    }

    #[test]
    fn denser_neighbourhoods_have_smaller_cells() {
        // An object in a crowded area should have a smaller UV-cell footprint
        // than the average cell, which in turn is far below the domain area.
        let (ds, index) = build(600);
        let total: f64 = (0..ds.len() as u32).map(|id| index.cell_area(id)).sum();
        let avg = total / ds.len() as f64;
        assert!(avg < ds.domain.area() * 0.25);
    }

    #[test]
    fn partition_query_returns_intersecting_cells_only() {
        let (ds, index) = build(500);
        let region = Rect::new(2000.0, 2000.0, 4000.0, 4000.0);
        let cells = index.partition_query(&region);
        assert!(!cells.is_empty());
        for cell in &cells {
            assert!(cell.region.intersects(&region));
            assert!(ds.domain.contains_rect(&cell.region));
            assert!(cell.density >= 0.0);
            assert_eq!(cell.object_count(), cell.object_ids.len());
            assert!(cell.object_count() > 0, "leaf with no associated objects");
        }
        // A query covering the whole domain returns every leaf.
        let all = index.partition_query(&ds.domain);
        assert_eq!(all.len(), index.num_leaf_nodes());
        // A query outside the domain returns nothing.
        let outside = Rect::new(20_000.0, 20_000.0, 21_000.0, 21_000.0);
        assert!(index.partition_query(&outside).is_empty());
    }

    #[test]
    fn partition_query_grows_with_region_size() {
        let (_, index) = build(500);
        let small = index.partition_query(&Rect::new(4500.0, 4500.0, 5500.0, 5500.0));
        let large = index.partition_query(&Rect::new(2000.0, 2000.0, 8000.0, 8000.0));
        assert!(large.len() >= small.len());
    }

    #[test]
    fn partition_query_charges_io() {
        let (_, index) = build(400);
        index.store().reset_io();
        let cells = index.partition_query(&Rect::new(1000.0, 1000.0, 3000.0, 3000.0));
        assert!(!cells.is_empty());
        assert!(index.store().io().reads > 0);
    }

    #[test]
    fn cell_regions_cover_query_answers() {
        // If the PNN answer at q contains object o, then q must lie in one of
        // o's leaf regions — the leaf-region union covers the true UV-cell.
        let (ds, index) = build(300);
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        for q in ds.query_points(15, 5) {
            let answer = index.pnn(&objects, q, 60);
            for (id, _) in &answer.probabilities {
                let regions = index.cell_leaf_regions(*id);
                assert!(
                    regions.iter().any(|r| r.contains(q)),
                    "query {q:?} not covered by leaf regions of object {id}"
                );
            }
        }
    }
}
