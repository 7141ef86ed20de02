//! Everything the program under test receives is made here, from `--seed`:
//! objects, query points, client walks and update batches. Only public
//! object constructors are used, so a change to the program's own
//! generators cannot move the benchmark's inputs.

use std::collections::HashSet;
use uv_core::{Method, UpdateBatch, UvConfig};
use uv_data::{ObjectId, UncertainObject};
use uv_geom::{Point, Rect};

/// Side of the paper's square 10 km × 10 km domain.
pub const DOMAIN_SIDE: f64 = 10_000.0;
/// Radius of every uncertainty region (the paper's diameter 40).
pub const RADIUS: f64 = 20.0;
/// Every workload builds with the paper's IC method.
pub const METHOD: Method = Method::IC;

/// Independent random streams derived from one seed.
pub mod stream {
    pub const OBJECTS: u64 = 1;
    pub const QUERIES: u64 = 2;
    pub const UPDATES: u64 = 3;
    pub const CLIENTS: u64 = 4;
    pub const WALK: u64 = 5;
    pub const RIDERS: u64 = 6;
}

pub fn domain() -> Rect {
    Rect::square(DOMAIN_SIDE)
}

/// `UvConfig::default()` as of the benchmark's definition, written out field
/// by field so a change of the program's defaults does not change what is
/// measured.
pub fn paper_config() -> UvConfig {
    UvConfig {
        curve_samples: 8,
        max_edge_len_fraction: 1.0 / 64.0,
        seed_knn: 300,
        num_seeds: 8,
        max_nonleaf: 4000,
        split_threshold: 1.0,
        integration_steps: 100,
        parallel: true,
        query_workers: 0,
        leaf_cache: true,
        leaf_split_capacity: 0,
        num_shards: 1,
        safe_region: true,
        safe_region_min_radius_fraction: 0.0,
        reshard_split_load: 0,
        reshard_merge_load: 0,
    }
}

/// The dynamic-serving tuning at 1,000 objects: small local leaves and a
/// large non-leaf budget, everything else as in [`paper_config`].
pub fn dynamic_config(num_shards: usize) -> UvConfig {
    UvConfig {
        seed_knn: 31,
        leaf_split_capacity: 12,
        max_nonleaf: 20_000,
        num_shards,
        ..paper_config()
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Spatial distribution of object centres.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    Uniform,
    /// Isotropic Gaussian around the domain centre (Fig. 7(g)'s skew).
    Gaussian {
        sigma: f64,
    },
}

impl Layout {
    /// A centre whose uncertainty region lies inside the domain; Gaussian
    /// samples outside are drawn again.
    pub fn center(self, rng: &mut Rng) -> Point {
        let (lo, hi) = (RADIUS, DOMAIN_SIDE - RADIUS);
        match self {
            Layout::Uniform => Point::new(rng.range(lo, hi), rng.range(lo, hi)),
            Layout::Gaussian { sigma } => loop {
                let mid = DOMAIN_SIDE / 2.0;
                let p = Point::new(mid + rng.normal() * sigma, mid + rng.normal() * sigma);
                if (lo..=hi).contains(&p.x) && (lo..=hi).contains(&p.y) {
                    return p;
                }
            },
        }
    }
}

/// `n` objects with ids `0..n`, paper Gaussian pdf, diameter 40.
pub fn objects(n: usize, layout: Layout, seed: u64) -> Vec<UncertainObject> {
    let mut rng = Rng::new(seed, stream::OBJECTS);
    (0..n)
        .map(|i| UncertainObject::with_gaussian(i as ObjectId, layout.center(&mut rng), RADIUS))
        .collect()
}

/// A point uniform over the whole domain.
pub fn uniform_point(rng: &mut Rng) -> Point {
    Point::new(rng.range(0.0, DOMAIN_SIDE), rng.range(0.0, DOMAIN_SIDE))
}

pub fn uniform_points(n: usize, rng: &mut Rng) -> Vec<Point> {
    (0..n).map(|_| uniform_point(rng)).collect()
}

/// One position report of a moving client: 15 in 16 drift by at most ±1.25
/// per axis, 1 in 16 jumps by up to ±1/8 of the domain width per axis.
pub fn walk_step(p: Point, rng: &mut Rng) -> Point {
    let span = if rng.below(16) == 0 {
        DOMAIN_SIDE / 4.0
    } else {
        2.5
    };
    Point::new(
        (p.x + (rng.unit() - 0.5) * span).clamp(0.0, DOMAIN_SIDE),
        (p.y + (rng.unit() - 0.5) * span).clamp(0.0, DOMAIN_SIDE),
    )
}

/// Update batches that keep the live count steady: 6 local moves of at most
/// domain/250 per axis, 2 joins and 2 leaves, on 8 distinct live objects.
/// The generator tracks the live set itself, so every op it emits is valid
/// against a system that applied all earlier batches.
pub struct Churn {
    live: Vec<ObjectId>,
    centers: Vec<Option<Point>>,
    next_id: ObjectId,
    layout: Layout,
    rng: Rng,
}

const MOVES: usize = 6;
const JOINS: usize = 2;
const LEAVES: usize = 2;

impl Churn {
    /// `layout` places joining objects.
    pub fn new(objects: &[UncertainObject], layout: Layout, seed: u64) -> Self {
        let next_id = objects.iter().map(|o| o.id + 1).max().unwrap_or(0);
        let mut centers = vec![None; next_id as usize];
        for o in objects {
            centers[o.id as usize] = Some(o.center());
        }
        Self {
            live: objects.iter().map(|o| o.id).collect(),
            centers,
            next_id,
            layout,
            rng: Rng::new(seed, stream::UPDATES),
        }
    }

    pub fn next_batch(&mut self) -> UpdateBatch {
        let step = DOMAIN_SIDE / 250.0;
        let (lo, hi) = (RADIUS, DOMAIN_SIDE - RADIUS);
        let mut picked = HashSet::new();
        let mut slots = Vec::with_capacity(MOVES + LEAVES);
        while slots.len() < MOVES + LEAVES {
            let slot = self.rng.below(self.live.len());
            if picked.insert(slot) {
                slots.push(slot);
            }
        }
        let mut batch = UpdateBatch::new();
        for &slot in &slots[..MOVES] {
            let id = self.live[slot];
            let c = self.centers[id as usize].expect("live objects have a centre");
            let to = Point::new(
                (c.x + self.rng.range(-step, step)).clamp(lo, hi),
                (c.y + self.rng.range(-step, step)).clamp(lo, hi),
            );
            self.centers[id as usize] = Some(to);
            batch = batch.move_to(id, to);
        }
        // Leaves are removed from the live list highest slot first, so the
        // swap-removals do not disturb the other picked slots.
        let mut leaving: Vec<usize> = slots[MOVES..].to_vec();
        leaving.sort_unstable_by(|a, b| b.cmp(a));
        for slot in leaving {
            let id = self.live.swap_remove(slot);
            self.centers[id as usize] = None;
            batch = batch.delete(id);
        }
        for _ in 0..JOINS {
            let id = self.next_id;
            self.next_id += 1;
            let c = self.layout.center(&mut self.rng);
            self.centers.push(Some(c));
            self.live.push(id);
            batch = batch.insert(UncertainObject::with_gaussian(id, c, RADIUS));
        }
        batch
    }
}
