//! Golden digests of the derivation pipeline: every object's Algorithm 2
//! output (cr ids, possible-region vertex bits, update-sensitivity bits) and
//! the canonical leaf view of the cold IC and ICR builds, each folded into
//! one FNV-64 digest.
//!
//! The constants pin the exact bits the clip kernel, the pruning phases and
//! the grid build produce. A kernel optimisation must leave every one of
//! them unchanged; a change that means to alter derivation output must say
//! so and update them.

use std::sync::Arc;
use uv_core::crobjects::derive_cr_objects;
use uv_core::{Method, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, ObjectStore, UncertainObject};
use uv_rtree::RTree;
use uv_store::codec::fnv64;
use uv_store::PageStore;

/// Appends the raw bits of `values` to `bytes`.
fn push_bits(bytes: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// FNV-64 over every object's `derive_cr_objects` output, in id order.
fn derivation_digest(objects: &[UncertainObject], domain: uv_geom::Rect, config: &UvConfig) -> u64 {
    let store = ObjectStore::build(Arc::new(PageStore::new()), objects);
    let rtree = RTree::build(objects, &store, Arc::new(PageStore::new()));
    let mut bytes = Vec::new();
    for subject in objects {
        let cr = derive_cr_objects(subject, &rtree, objects, &domain, config);
        bytes.extend_from_slice(&cr.object_id.to_le_bytes());
        bytes.extend_from_slice(&(cr.cr_ids.len() as u64).to_le_bytes());
        for id in &cr.cr_ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let vertices = cr.region.polygon().vertices();
        bytes.extend_from_slice(&(vertices.len() as u64).to_le_bytes());
        push_bits(&mut bytes, vertices.iter().flat_map(|v| [v.x, v.y]));
        let s = &cr.sensitivity;
        push_bits(&mut bytes, [s.knn_dist, s.prune_radius]);
        let seed_dists = s.seed_dists().unwrap_or(&[]);
        bytes.extend_from_slice(&(seed_dists.len() as u64).to_le_bytes());
        push_bits(&mut bytes, seed_dists.iter().copied());
        bytes.extend_from_slice(&(s.d_bounds().len() as u64).to_le_bytes());
        push_bits(
            &mut bytes,
            s.d_bounds()
                .iter()
                .flat_map(|c| [c.center.x, c.center.y, c.radius]),
        );
    }
    fnv64(&bytes)
}

/// FNV-64 over the canonical leaf view of a cold `method` build.
fn grid_digest(dataset: &Dataset, method: Method, config: UvConfig) -> u64 {
    let system = UvSystem::build(dataset.objects.clone(), dataset.domain, method, config)
        .expect("the golden configurations validate");
    let mut bytes = Vec::new();
    for ((min_x, min_y, max_x, max_y), ids) in system.index().canonical_leaves() {
        for bits in [min_x, min_y, max_x, max_y] {
            bytes.extend_from_slice(&bits.to_le_bytes());
        }
        bytes.extend_from_slice(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// The derivation digest and the IC and ICR grid digests of `dataset`.
fn digests(dataset: &Dataset, config: UvConfig) -> [u64; 3] {
    [
        derivation_digest(&dataset.objects, dataset.domain, &config),
        grid_digest(dataset, Method::IC, config),
        grid_digest(dataset, Method::ICR, config),
    ]
}

/// The dynamic-serving tuning: `k = 31`, small local leaves and a large
/// non-leaf budget, everything else at the paper's defaults.
fn dynamic_config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(31)
        .with_leaf_split_capacity(12)
        .with_max_nonleaf(20_000)
}

#[test]
fn derivations_and_grids_match_the_golden_digests() {
    let uniform = Dataset::generate(GeneratorConfig::paper_uniform(150).with_seed(11));
    let skewed = Dataset::generate(GeneratorConfig::paper_skewed(150, 2_500.0).with_seed(12));
    let got = [
        digests(&uniform, dynamic_config()),
        digests(&skewed, dynamic_config()),
    ];
    assert_eq!(
        got,
        [
            [
                0x19a8_02ac_cee9_1ab8,
                0x05d4_ee90_d607_5724,
                0x63e9_f895_afc4_68ea
            ],
            [
                0xf229_4b48_98ef_28b8,
                0x1bc5_dd2c_083c_d109,
                0xce65_8d2e_7874_8099
            ],
        ],
        "{got:#018x?}"
    );
}

/// The paper configuration at 8k uniform objects (`k = 300`): the scale
/// where the early clips trace long curves through large polygons. Too slow
/// for the debug `cargo test`; CI runs it in release.
#[test]
#[ignore = "paper scale; run with `cargo test --release -- --ignored`"]
fn paper_scale_derivations_and_grid_match_the_golden_digests() {
    let uniform = Dataset::generate(GeneratorConfig::paper_uniform(8_000));
    let config = UvConfig::default();
    let got = [
        derivation_digest(&uniform.objects, uniform.domain, &config),
        grid_digest(&uniform, Method::IC, config),
    ];
    assert_eq!(
        got,
        [0x2d80_9d70_1456_e22c, 0xcb83_842c_924e_e627],
        "{got:#018x?}"
    );
}
