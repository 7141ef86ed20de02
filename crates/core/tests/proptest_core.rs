//! Property-based tests of the UV-diagram core: cell semantics, pruning
//! soundness and overlap-check safety on arbitrary small inputs.

use proptest::prelude::*;
use std::sync::Arc;
use uv_core::cell::build_exact_cell;
use uv_core::crobjects::{cr_objects_cover_r_objects, derive_cr_objects};
use uv_core::index::check_overlap;
use uv_core::{PossibleRegion, UvConfig};
use uv_data::UncertainObject;
use uv_geom::{Circle, Point, Rect};
use uv_rtree::RTree;
use uv_store::PageStore;

const DOMAIN_SIDE: f64 = 1_000.0;

fn objects_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((50.0..950.0f64, 50.0..950.0f64, 0.0..30.0f64), min..max).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, r))| UncertainObject::with_uniform(i as u32, Point::new(x, y), r))
                .collect()
        },
    )
}

fn config() -> UvConfig {
    UvConfig {
        parallel: false,
        ..UvConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The possible region only shrinks under clipping and always contains
    /// the subject centre.
    #[test]
    fn possible_region_shrinks_monotonically(objects in objects_strategy(2, 12)) {
        let domain = Rect::square(DOMAIN_SIDE);
        let subject = objects[0].mbc();
        let mut region = PossibleRegion::full(subject, &domain);
        let mut prev_area = region.area();
        for other in &objects[1..] {
            region.clip(other.mbc(), 8, DOMAIN_SIDE / 64.0);
            prop_assert!(region.area() <= prev_area + 1e-6);
            prop_assert!(region.contains(subject.center));
            prev_area = region.area();
        }
    }

    /// Exact-cell semantics: a point strictly dominated by some other object
    /// is (essentially) never inside the cell; a clearly non-dominated point
    /// always is.
    #[test]
    fn exact_cell_respects_domination(
        objects in objects_strategy(2, 8),
        qx in 0.0..DOMAIN_SIDE,
        qy in 0.0..DOMAIN_SIDE,
    ) {
        let domain = Rect::square(DOMAIN_SIDE);
        let subject = &objects[0];
        let cell = build_exact_cell(subject, objects.iter().skip(1), &domain, &config());
        let q = Point::new(qx, qy);
        let margin = objects[1..]
            .iter()
            .map(|o| subject.dist_min(q) - o.dist_max(q))
            .fold(f64::NEG_INFINITY, f64::max);
        // Allow a slack band around the boundary for the polyline
        // approximation (a fraction of the domain size).
        let slack = DOMAIN_SIDE / 200.0;
        if margin > slack {
            prop_assert!(!cell.contains(q), "dominated point (margin {margin}) inside the cell");
        }
        if margin < -slack {
            prop_assert!(cell.contains(q), "possible point (margin {margin}) outside the cell");
        }
    }

    /// Pruning soundness (Lemmas 2 and 3): cr-objects cover the r-objects of
    /// the exact cell built against the full dataset.
    #[test]
    fn cr_objects_cover_exact_r_objects(objects in objects_strategy(3, 20)) {
        let domain = Rect::square(DOMAIN_SIDE);
        let rtree = RTree::build(&objects, Arc::new(PageStore::new()));
        let cfg = config();
        for subject in objects.iter().take(4) {
            let cr = derive_cr_objects(subject, &rtree, &objects, &domain, &cfg);
            let cell = build_exact_cell(
                subject,
                objects.iter().filter(|o| o.id != subject.id),
                &domain,
                &cfg,
            );
            prop_assert!(
                cr_objects_cover_r_objects(&cr, &cell.r_objects),
                "object {}: r-objects {:?} not covered by {:?}",
                subject.id,
                cell.r_objects,
                cr.cr_ids
            );
        }
    }

    /// Overlap-check safety (Lemma 4): whenever the 4-point test declares "no
    /// overlap", no sampled point of the region can have the subject as a
    /// possible nearest neighbour with respect to the tested objects.
    #[test]
    fn check_overlap_never_reports_false_negatives(
        subject in (50.0..950.0f64, 50.0..950.0f64, 0.0..30.0f64),
        others in prop::collection::vec((50.0..950.0f64, 50.0..950.0f64, 0.0..30.0f64), 1..8),
        rx in 0.0..900.0f64,
        ry in 0.0..900.0f64,
        side in 10.0..300.0f64,
    ) {
        let subject = Circle::new(Point::new(subject.0, subject.1), subject.2);
        let crs: Vec<Circle> = others
            .into_iter()
            .map(|(x, y, r)| Circle::new(Point::new(x, y), r))
            .collect();
        let region = Rect::new(rx, ry, rx + side, ry + side);
        if !check_overlap(subject, &crs, &region) {
            for i in 0..5 {
                for j in 0..5 {
                    let p = Point::new(
                        region.min_x + region.width() * (i as f64 + 0.5) / 5.0,
                        region.min_y + region.height() * (j as f64 + 0.5) / 5.0,
                    );
                    let dominated = crs.iter().any(|c| c.dist_max(p) < subject.dist_min(p));
                    prop_assert!(dominated, "false negative of the 4-point test at {p:?}");
                }
            }
        }
    }
}
