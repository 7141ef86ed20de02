//! Tunable parameters of UV-diagram construction and indexing.

use serde::{Deserialize, Serialize};

/// Parameters controlling UV-cell approximation, cr-object derivation and the
/// adaptive grid. The defaults follow the experimental setup of Section VI-A
/// of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UvConfig {
    /// Number of extra vertices inserted along a UV-edge for every clipped
    /// chord of a possible region (boundary fidelity of the polygonal
    /// approximation).
    pub curve_samples: usize,
    /// Edge-subdivision granularity of clipping, expressed as a fraction of
    /// the domain side: polygon edges longer than
    /// `domain_side * max_edge_len_fraction` are subdivided before sign
    /// evaluation so mid-edge incursions are not missed. Finite and
    /// non-negative; `0.0` disables subdivision.
    pub max_edge_len_fraction: f64,
    /// `k` of the seed-selection k-NN query (the paper uses 300).
    pub seed_knn: usize,
    /// Number of sectors / seeds (`k_s`, the paper uses 8).
    pub num_seeds: usize,
    /// Maximum number of memory-resident non-leaf grid nodes (`M`, the paper
    /// uses 4000).
    pub max_nonleaf: usize,
    /// Split threshold `T_theta` in `[0, 1]`; the paper uses 1.0.
    pub split_threshold: f64,
    /// Number of integration steps of qualification-probability computation.
    pub integration_steps: usize,
    /// Fan derivations, shard builds, update reconciles and routed batches
    /// (one job per shard) out over the crate's worker pool, which runs on
    /// at most `available_parallelism()` threads; `false` keeps them on the
    /// calling thread.
    pub parallel: bool,
    /// Most threads [`crate::engine::QueryEngine::pnn_batch`] and
    /// subscription misses fan out over, the calling thread included; `0`
    /// means one per available CPU. An upper bound: the worker pool runs on
    /// at most `available_parallelism()` threads, and `1` never touches it.
    pub query_workers: usize,
    /// Enable the per-leaf memoization cache of the query engine: queries
    /// landing in the same leaf reuse the page read and the region-level
    /// `d_minmax` candidate screen.
    pub leaf_cache: bool,
    /// Member count above which a leaf is considered for splitting. `0`
    /// (the default) uses the number of `<ID, MBC, pointer>` tuples that fit
    /// one disk page, which is the paper's trigger; smaller values produce
    /// more, smaller leaves, which localises incremental updates (see
    /// [`crate::update`]) at the cost of more non-leaf nodes.
    pub leaf_split_capacity: usize,
    /// Side length `S` of the shard grid used by
    /// [`crate::shard::ShardedUvSystem`]: the domain is split into `S × S`
    /// shard rectangles. `1` (the default) means a single shard. Ignored by
    /// the unsharded [`crate::UvSystem`].
    pub num_shards: usize,
    /// Enable safe regions for continuous queries: the subscription engine
    /// ([`crate::subscribe`]) answers ticks inside a client's safe region
    /// with zero leaf page reads, and trajectory evaluation reuses the
    /// cached candidate set for path points inside a stable region. `false`
    /// re-derives every tick / path point from the index (the PR-5
    /// behaviour); answers are bit-identical either way.
    pub safe_region: bool,
    /// Minimum useful safe-region radius as a fraction of the domain side,
    /// in `[0, 1]`. Radii below `domain_side * fraction` are discarded (the
    /// client re-derives every tick) — a floor that avoids tracking regions
    /// too small to ever absorb a movement step. `0.0` (the default) keeps
    /// every positive radius.
    pub safe_region_min_radius_fraction: f64,
    /// Elastic-resharding *split* threshold: when
    /// [`crate::shard::ShardedUvSystem::maybe_reshard`] finds a shard whose
    /// accumulated query + update tally reaches this count, it splits that
    /// shard's slab along its longer axis. `0` (the default) disables
    /// policy-driven splitting; explicit
    /// [`crate::shard::ShardedUvSystem::split_shard`] calls always work.
    pub reshard_split_load: u64,
    /// Elastic-resharding *merge* threshold: when `maybe_reshard` finds two
    /// adjacent slabs whose combined tally is at or below this count (and no
    /// shard is hot enough to split), it merges them. `0` (the default)
    /// disables policy-driven merging. When both thresholds are non-zero the
    /// merge threshold must be strictly below the split threshold, or a
    /// merge could immediately re-trigger a split.
    pub reshard_merge_load: u64,
}

impl Default for UvConfig {
    fn default() -> Self {
        Self {
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
}

impl UvConfig {
    /// Maximum clip-edge length for a domain of the given side length.
    pub fn max_edge_len(&self, domain_side: f64) -> f64 {
        if self.max_edge_len_fraction <= 0.0 {
            f64::INFINITY
        } else {
            domain_side * self.max_edge_len_fraction
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), crate::error::UvError> {
        use crate::error::UvError;
        if self.num_seeds == 0 {
            return Err(UvError::InvalidConfig("num_seeds must be positive"));
        }
        if self.seed_knn == 0 {
            return Err(UvError::InvalidConfig("seed_knn must be positive"));
        }
        // NaN, infinite and negative fractions would each silently switch
        // subdivision off; only an explicit 0 means that.
        if !self.max_edge_len_fraction.is_finite() || self.max_edge_len_fraction < 0.0 {
            return Err(UvError::InvalidConfig(
                "max_edge_len_fraction must be finite and non-negative",
            ));
        }
        if !(0.0..=1.0).contains(&self.split_threshold) {
            return Err(UvError::InvalidConfig("split_threshold must lie in [0, 1]"));
        }
        if self.max_nonleaf == 0 {
            return Err(UvError::InvalidConfig("max_nonleaf must be positive"));
        }
        if self.integration_steps < 2 {
            return Err(UvError::InvalidConfig(
                "integration_steps must be at least 2",
            ));
        }
        if self.curve_samples == 0 {
            return Err(UvError::InvalidConfig("curve_samples must be positive"));
        }
        if self.num_shards == 0 {
            return Err(UvError::InvalidConfig("num_shards must be positive"));
        }
        if !self.safe_region_min_radius_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.safe_region_min_radius_fraction)
        {
            return Err(UvError::InvalidConfig(
                "safe_region_min_radius_fraction must lie in [0, 1]",
            ));
        }
        if self.reshard_split_load > 0
            && self.reshard_merge_load > 0
            && self.reshard_merge_load >= self.reshard_split_load
        {
            return Err(UvError::InvalidConfig(
                "reshard_merge_load must be strictly below reshard_split_load",
            ));
        }
        Ok(())
    }

    /// Builder-style setter for the seed-selection k-NN size (`k`, the paper
    /// uses 300).
    pub fn with_seed_knn(mut self, k: usize) -> Self {
        self.seed_knn = k;
        self
    }

    /// Builder-style setter for the number of sectors / seeds (`k_s`, the
    /// paper uses 8).
    pub fn with_num_seeds(mut self, seeds: usize) -> Self {
        self.num_seeds = seeds;
        self
    }

    /// Builder-style setter for the number of integration steps of
    /// qualification-probability computation.
    pub fn with_integration_steps(mut self, steps: usize) -> Self {
        self.integration_steps = steps;
        self
    }

    /// Builder-style setter for the number of extra vertices per clipped
    /// UV-edge chord.
    pub fn with_curve_samples(mut self, samples: usize) -> Self {
        self.curve_samples = samples;
        self
    }

    /// Builder-style setter for the leaf split capacity (`0` = one full disk
    /// page of entries, the paper's trigger).
    pub fn with_leaf_split_capacity(mut self, capacity: usize) -> Self {
        self.leaf_split_capacity = capacity;
        self
    }

    /// Builder-style setter for the split threshold `T_theta`.
    pub fn with_split_threshold(mut self, t: f64) -> Self {
        self.split_threshold = t;
        self
    }

    /// Builder-style setter for the memory cap `M` on non-leaf nodes.
    pub fn with_max_nonleaf(mut self, m: usize) -> Self {
        self.max_nonleaf = m;
        self
    }

    /// Builder-style setter for sequential/parallel construction.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Builder-style setter for the query-engine worker count (`0` = one
    /// worker per available CPU).
    pub fn with_query_workers(mut self, workers: usize) -> Self {
        self.query_workers = workers;
        self
    }

    /// Builder-style setter for the query-engine leaf cache.
    pub fn with_leaf_cache(mut self, enabled: bool) -> Self {
        self.leaf_cache = enabled;
        self
    }

    /// Builder-style setter for the shard-grid side `S` of
    /// [`crate::shard::ShardedUvSystem`] (`S × S` shard rectangles; `1` =
    /// a single shard).
    pub fn with_num_shards(mut self, shards: usize) -> Self {
        self.num_shards = shards;
        self
    }

    /// Builder-style setter for safe-region maintenance (subscriptions and
    /// trajectory reuse).
    pub fn with_safe_region(mut self, enabled: bool) -> Self {
        self.safe_region = enabled;
        self
    }

    /// Builder-style setter for the minimum useful safe-region radius, as a
    /// fraction of the domain side.
    pub fn with_safe_region_min_radius_fraction(mut self, fraction: f64) -> Self {
        self.safe_region_min_radius_fraction = fraction;
        self
    }

    /// Builder-style setter for the elastic-resharding split threshold
    /// (`0` disables policy-driven splits).
    pub fn with_reshard_split_load(mut self, load: u64) -> Self {
        self.reshard_split_load = load;
        self
    }

    /// Builder-style setter for the elastic-resharding merge threshold
    /// (`0` disables policy-driven merges).
    pub fn with_reshard_merge_load(mut self, load: u64) -> Self {
        self.reshard_merge_load = load;
        self
    }

    /// Applies the safe-region policy to a raw stability radius: `0.0` when
    /// safe regions are disabled or the radius falls below the configured
    /// floor (`safe_region_min_radius_fraction` of the longer domain side),
    /// the radius itself otherwise. A zero radius simply means "re-derive
    /// every tick", so the policy only trades work for work — never
    /// correctness.
    pub(crate) fn apply_safe_region_floor(&self, radius: f64, domain: uv_geom::Rect) -> f64 {
        if !self.safe_region {
            return 0.0;
        }
        let floor = self.safe_region_min_radius_fraction * domain.width().max(domain.height());
        if radius < floor {
            0.0
        } else {
            radius
        }
    }

    /// The query-engine worker bound: `query_workers`, with `0`
    /// resolved to the number of available CPUs.
    pub fn resolved_query_workers(&self) -> usize {
        if self.query_workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.query_workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = UvConfig::default();
        assert_eq!(c.seed_knn, 300);
        assert_eq!(c.num_seeds, 8);
        assert_eq!(c.max_nonleaf, 4000);
        assert_eq!(c.split_threshold, 1.0);
        assert!(c.safe_region);
        assert_eq!(c.safe_region_min_radius_fraction, 0.0);
        assert_eq!(c.reshard_split_load, 0);
        assert_eq!(c.reshard_merge_load, 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn max_edge_len_scales_with_domain() {
        let c = UvConfig::default();
        assert_eq!(c.max_edge_len(6400.0), 100.0);
        let no_subdiv = UvConfig {
            max_edge_len_fraction: 0.0,
            ..c
        };
        assert!(no_subdiv.max_edge_len(6400.0).is_infinite());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let base = UvConfig::default();
        assert!(UvConfig {
            num_seeds: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            split_threshold: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            max_nonleaf: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            integration_steps: 1,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            seed_knn: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            curve_samples: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            num_shards: 0,
            ..base
        }
        .validate()
        .is_err());
        for fraction in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01] {
            assert!(UvConfig {
                max_edge_len_fraction: fraction,
                ..base
            }
            .validate()
            .is_err());
        }
        // Zero keeps meaning "no subdivision".
        assert!(UvConfig {
            max_edge_len_fraction: 0.0,
            ..base
        }
        .validate()
        .is_ok());
        assert!(UvConfig {
            safe_region_min_radius_fraction: -0.1,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            safe_region_min_radius_fraction: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            safe_region_min_radius_fraction: f64::NAN,
            ..base
        }
        .validate()
        .is_err());
        // Merge threshold at or above the split threshold would oscillate.
        assert!(UvConfig {
            reshard_split_load: 100,
            reshard_merge_load: 100,
            ..base
        }
        .validate()
        .is_err());
        assert!(UvConfig {
            reshard_split_load: 100,
            reshard_merge_load: 200,
            ..base
        }
        .validate()
        .is_err());
        // Either threshold alone (or merge < split) is fine.
        assert!(UvConfig {
            reshard_split_load: 100,
            reshard_merge_load: 0,
            ..base
        }
        .validate()
        .is_ok());
        assert!(UvConfig {
            reshard_split_load: 0,
            reshard_merge_load: 100,
            ..base
        }
        .validate()
        .is_ok());
        assert!(UvConfig {
            reshard_split_load: 100,
            reshard_merge_load: 10,
            ..base
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn builder_setters() {
        let c = UvConfig::default()
            .with_split_threshold(0.5)
            .with_max_nonleaf(128)
            .with_parallel(false)
            .with_query_workers(3)
            .with_leaf_cache(false)
            .with_seed_knn(50)
            .with_num_seeds(6)
            .with_integration_steps(40)
            .with_curve_samples(4)
            .with_leaf_split_capacity(16)
            .with_num_shards(3)
            .with_safe_region(false)
            .with_safe_region_min_radius_fraction(0.01)
            .with_reshard_split_load(5_000)
            .with_reshard_merge_load(500);
        assert_eq!(c.split_threshold, 0.5);
        assert_eq!(c.max_nonleaf, 128);
        assert!(!c.parallel);
        assert_eq!(c.query_workers, 3);
        assert!(!c.leaf_cache);
        assert_eq!(c.seed_knn, 50);
        assert_eq!(c.num_seeds, 6);
        assert_eq!(c.integration_steps, 40);
        assert_eq!(c.curve_samples, 4);
        assert_eq!(c.leaf_split_capacity, 16);
        assert_eq!(c.num_shards, 3);
        assert!(!c.safe_region);
        assert_eq!(c.safe_region_min_radius_fraction, 0.01);
        assert_eq!(c.reshard_split_load, 5_000);
        assert_eq!(c.reshard_merge_load, 500);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn query_workers_resolve_to_cpus_when_zero() {
        let auto = UvConfig::default();
        assert_eq!(auto.query_workers, 0);
        assert!(auto.leaf_cache);
        assert!(auto.resolved_query_workers() >= 1);
        let fixed = UvConfig::default().with_query_workers(5);
        assert_eq!(fixed.resolved_query_workers(), 5);
    }
}
