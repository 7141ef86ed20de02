//! Continuous PNN subscriptions: per-client safe regions with delta push.
//!
//! The paper's UV-diagram makes one promise that batch queries cannot cash
//! in: inside a UV-cell the PNN answer is *constant* (Section V-A), so a
//! moving client whose position stays inside a known stable region needs no
//! index work at all — the setting of the probabilistic moving-NN literature
//! (Ali et al., see `docs/PAPER_MAP.md`). [`SubscriptionEngine`] is that
//! serving mode:
//!
//! * **Safe regions** — every full derivation for a client also computes a
//!   *stability disk* around the query point: the largest radius within
//!   which (a) the `d_minmax` candidate screen of the client's UV-leaf keeps
//!   the exact same candidate list (`candidate_stability_radius`) and (b)
//!   the numerically integrated qualification probabilities keep the exact
//!   same positive/zero split (`answer_stability_radius`). While a tick
//!   stays strictly inside the disk and in the same leaf, the answer *id
//!   set* is provably unchanged: the tick is answered with zero leaf page
//!   reads and pushes no delta.
//! * **Delta push** — a tick that leaves the safe region re-derives through
//!   the same per-leaf cache and worker pool as [`crate::engine`] and pushes
//!   an [`AnswerDelta`] only when the answer id set actually changed, so the
//!   client-visible stream is one unbroken chain of deltas.
//! * **Epoch-tagged invalidation** — after an update, only subscriptions
//!   whose position lies inside a repaired leaf rectangle of their shard
//!   ([`crate::update::UpdateStats::repaired_regions`]) re-derive; everyone
//!   else revalidates by bumping their epoch tag
//!   ([`SubscriptionEngine::refresh_after`],
//!   [`SubscriptionEngine::refresh_after_sharded`]). Domain growth
//!   re-derives every client.
//! * **Shard-aware migration** — each client is pinned to its owning shard;
//!   a tick that crosses a shard boundary re-derives on the destination
//!   shard and the client migrates, with the delta chain staying unbroken
//!   ([`SubscriptionEngine::sharded`]). An elastic reshard renumbers the
//!   pins of shards that moved wholesale and re-derives only clients on
//!   rebuilt shards — bit-identical answers, so the reshard itself pushes
//!   no deltas ([`SubscriptionEngine::refresh_after_reshard`]).
//!
//! There is one serving path: the engine serves from the routed view of
//! [`crate::engine`], and an unsharded [`UvSystem`] is the 1×1 layout, shard
//! 0 owning its whole domain, so every hit test, derivation and refresh runs
//! the same code for both. All three refreshes are adapters over one
//! revalidation pass, and a refresh handed a record of another layout (say,
//! an unsharded apply's stats on a sharded engine) re-derives every client,
//! which is always correct.
//!
//! The engine borrows the system immutably (like [`crate::engine`]'s
//! [`QueryEngine`]), so applying updates requires handing the table across:
//! [`SubscriptionEngine::into_table`], apply, then
//! [`SubscriptionEngine::with_table`] and a `refresh_after*` call with the
//! apply's stats **before the next tick** — the refresh is what re-derives
//! subscriptions the update invalidated.
//!
//! # Soundness of the stability margins
//!
//! Both radii below are *conservative* under-approximations built from
//! Lipschitz bounds on the exact quantities the query pipeline computes
//! (`dist_min`/`dist_max` are 1-Lipschitz in the query point, the
//! integration bounds and ring saturation points 1-Lipschitz, the step
//! width `dt` at most `2/steps`-Lipschitz), with explicit `~1e-9`-scale
//! guards wherever a floating-point comparison inside
//! [`uv_data::qualification_probabilities`] must land on a *specific side*
//! of a branch. A margin that comes out non-positive simply produces no
//! safe region, which only costs a re-derivation — never a wrong answer.

#![deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use crate::engine::{fan_out, EngineScratch, QueryEngine, RoutedView};
use crate::error::UvError;
use crate::shard::{Layout, ReshardStats, ShardedUpdateStats, ShardedUvSystem};
use crate::system::UvSystem;
use crate::update::UpdateStats;
use std::collections::{BTreeMap, HashMap, HashSet};
use uv_data::{AnswerDelta, ObjectId, PnnAnswer, UncertainObject, DEFAULT_RINGS};
use uv_geom::Point;

/// Identifier of a subscribed client, chosen by the caller.
pub type ClientId = u64;

/// A disk around a client's last fully derived position inside which the PNN
/// answer id set is provably unchanged, tagged with the UV-leaf the
/// derivation descended to. A tick strictly inside the disk that still lands
/// in the same leaf (and, sharded, the same owning shard at an unchanged
/// epoch) is served with zero leaf page reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeRegion {
    leaf: usize,
    anchor: Point,
    radius: f64,
}

impl SafeRegion {
    /// Centre of the stability disk (the position of the derivation).
    pub fn anchor(&self) -> Point {
        self.anchor
    }

    /// Radius of the stability disk. May be infinite (e.g. a single live
    /// object answers every query with probability 1).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// UV-leaf (grid node id) the derivation descended to; sharded, this is
    /// a node id *within the owning shard's index*.
    pub fn leaf(&self) -> usize {
        self.leaf
    }
}

/// One subscribed client: its last reported position, its current answer id
/// set (the state the pushed delta chain encodes), the epoch it was last
/// validated against and, when one exists, its safe region.
#[derive(Debug, Clone)]
pub struct Client {
    position: Point,
    answer_ids: Vec<ObjectId>,
    epoch: u64,
    shard: Option<usize>,
    safe: Option<SafeRegion>,
}

impl Client {
    /// Last reported position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Current answer id set (sorted ascending) — the state a consumer of
    /// the client's delta stream has accumulated.
    pub fn answer_ids(&self) -> &[ObjectId] {
        &self.answer_ids
    }

    /// The client's safe region, when the last derivation produced a
    /// positive stability radius.
    pub fn safe_region(&self) -> Option<&SafeRegion> {
        self.safe.as_ref()
    }

    /// Owning shard of the last derivation: `Some(0)` on an unsharded
    /// engine, which serves its system as the one-shard layout. `None` for
    /// an out-of-domain position, and for a client restored from a snapshot
    /// that has not been derived since.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }
}

/// The registered clients, keyed by id. Owned by the engine during serving;
/// handed across update cycles via [`SubscriptionEngine::into_table`] /
/// [`SubscriptionEngine::with_table`] and persisted by
/// [`crate::UvSystem::save_snapshot_with_subscriptions`].
#[derive(Debug, Clone, Default)]
pub struct SubscriptionTable {
    clients: BTreeMap<ClientId, Client>,
}

impl SubscriptionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` when no client is registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// `true` when `id` is registered.
    pub fn contains(&self, id: ClientId) -> bool {
        self.clients.contains_key(&id)
    }

    /// The client registered under `id`.
    pub fn client(&self, id: ClientId) -> Option<&Client> {
        self.clients.get(&id)
    }

    /// Iterates over all clients in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClientId, &Client)> {
        self.clients.iter().map(|(id, c)| (*id, c))
    }

    /// Snapshot-load constructor: a client restored from disk carries no
    /// safe region and no shard pin, so its first tick (or refresh) fully
    /// re-derives; `epoch` is the loaded system's epoch, making the restored
    /// answer ids current.
    pub(crate) fn insert_persisted(
        &mut self,
        id: ClientId,
        position: Point,
        answer_ids: Vec<ObjectId>,
        epoch: u64,
    ) {
        self.clients.insert(
            id,
            Client {
                position,
                answer_ids,
                epoch,
                shard: None,
                safe: None,
            },
        );
    }
}

/// Serving counters of a [`SubscriptionEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Position reports processed (known clients only).
    pub ticks: u64,
    /// Ticks served from a safe region: zero leaf page reads, no delta.
    pub hits: u64,
    /// Full derivations (subscribes, safe-region misses, refreshes).
    pub derivations: u64,
    /// Derivations that moved a client to a different owning shard.
    pub migrations: u64,
    /// Clients re-derived by a `refresh_after*` call because the change
    /// could not vouch for them: a repaired region covered their position,
    /// their shard was rebuilt, or the whole table was invalidated.
    pub invalidated: u64,
    /// Non-empty deltas pushed to clients.
    pub deltas_pushed: u64,
    /// Derivations that reused a leaf's cached clearance geometry (the
    /// screened entry arena an earlier derivation or query already built),
    /// so co-located clients share the screen setup instead of re-reading
    /// and re-screening the leaf.
    pub clearance_reuses: u64,
}

impl SubscriptionStats {
    /// Fraction of ticks served from a safe region (0.0 before any tick).
    pub fn hit_rate(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.hits as f64 / self.ticks as f64
        }
    }
}

/// Everything one full derivation hands back to the table: the client state
/// it leaves and the answer.
struct Derived {
    client: Client,
    answer: PnnAnswer,
    /// Whether the derivation reused an already-built cached leaf arena
    /// (clearance geometry shared with earlier co-located derivations).
    clearance_reused: bool,
}

/// Continuous PNN subscription engine: thousands of moving clients register
/// once and then stream position ticks; the engine answers each tick either
/// from the client's safe region (zero leaf page reads, no delta) or by a
/// full re-derivation that pushes the answer-set delta.
///
/// ```
/// use uv_core::{SubscriptionEngine, UvSystem};
/// use uv_data::{Dataset, GeneratorConfig};
/// use uv_geom::Point;
///
/// let ds = Dataset::generate(GeneratorConfig::paper_uniform(150));
/// let system = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
/// let mut subs = SubscriptionEngine::new(&system);
/// let start = ds.query_points(1, 7)[0];
/// let answer = subs.subscribe(42, start).unwrap();
/// assert_eq!(answer.answer_ids(), system.pnn(start).answer_ids());
/// // A tiny move almost always stays inside the safe region: no delta.
/// let deltas = subs.tick(&[(42, Point::new(start.x + 1e-6, start.y))]);
/// assert!(deltas.is_empty());
/// ```
pub struct SubscriptionEngine<'a> {
    /// The routed view's parts: one engine (and per-leaf cache) per shard
    /// and the layout routing to them; an unsharded system is the 1×1
    /// layout. Subscriptions tally no query loads.
    engines: Vec<QueryEngine<'a>>,
    layout: Layout,
    table: SubscriptionTable,
    stats: SubscriptionStats,
}

impl<'a> SubscriptionEngine<'a> {
    /// Creates an engine over a single (unsharded) system with an empty
    /// subscription table. The system is served as the one-shard layout:
    /// every in-domain client is pinned to shard 0.
    pub fn new(system: &'a UvSystem) -> Self {
        Self::with_table(system, SubscriptionTable::new())
    }

    /// Creates an engine over a single system, resuming an existing table
    /// (from [`SubscriptionEngine::into_table`] across an update cycle, or
    /// from a loaded snapshot). After a [`UvSystem::apply`], call
    /// [`SubscriptionEngine::refresh_after`] with the apply's stats before
    /// the next tick.
    pub fn with_table(system: &'a UvSystem, table: SubscriptionTable) -> Self {
        let layout = Layout::uniform(system.domain(), 1);
        Self::over(vec![system.engine()], layout, table)
    }

    /// Creates an engine over a sharded system with an empty table.
    pub fn sharded(system: &'a ShardedUvSystem) -> Self {
        Self::sharded_with_table(system, SubscriptionTable::new())
    }

    /// Creates an engine over a sharded system, resuming an existing table.
    ///
    /// After a [`ShardedUvSystem::apply`], call
    /// [`SubscriptionEngine::refresh_after_sharded`] with the apply's stats
    /// before the next tick; after a reshard,
    /// [`SubscriptionEngine::refresh_after_reshard`]. The refresh is what
    /// re-derives every client the change invalidated.
    pub fn sharded_with_table(system: &'a ShardedUvSystem, table: SubscriptionTable) -> Self {
        let engines = (0..system.shard_count()).map(|s| system.shard(s).engine());
        Self::over(engines.collect(), system.layout.clone(), table)
    }

    fn over(engines: Vec<QueryEngine<'a>>, layout: Layout, table: SubscriptionTable) -> Self {
        Self {
            engines,
            layout,
            table,
            stats: SubscriptionStats::default(),
        }
    }

    /// The subscription table (positions, answer sets, safe regions).
    pub fn table(&self) -> &SubscriptionTable {
        &self.table
    }

    /// Releases the table, e.g. to apply updates (which needs `&mut` on the
    /// system) and resume via [`SubscriptionEngine::with_table`].
    pub fn into_table(self) -> SubscriptionTable {
        self.table
    }

    /// Serving counters since construction (or the last reset).
    pub fn stats(&self) -> SubscriptionStats {
        self.stats
    }

    /// Zeroes the serving counters.
    pub fn reset_stats(&mut self) {
        self.stats = SubscriptionStats::default();
    }

    /// Registers client `id` at `position` and returns its initial answer
    /// (the head of its delta chain). Errors with
    /// [`UvError::DuplicateClient`] when the id is already registered and
    /// with [`UvError::InvalidPoint`] when a coordinate is not finite.
    pub fn subscribe(&mut self, id: ClientId, position: Point) -> Result<PnnAnswer, UvError> {
        if self.table.clients.contains_key(&id) {
            return Err(UvError::DuplicateClient(id));
        }
        if !position.is_finite() {
            return Err(UvError::InvalidPoint);
        }
        let d = derive(
            &RoutedView::over(&self.engines, &self.layout),
            position,
            &mut EngineScratch::default(),
        );
        self.stats.derivations += 1;
        self.stats.clearance_reuses += u64::from(d.clearance_reused);
        self.table.clients.insert(id, d.client);
        Ok(d.answer)
    }

    /// Removes client `id`. Errors with [`UvError::UnknownClient`] when it
    /// is not registered.
    pub fn unsubscribe(&mut self, id: ClientId) -> Result<(), UvError> {
        match self.table.clients.remove(&id) {
            Some(_) => Ok(()),
            None => Err(UvError::UnknownClient(id)),
        }
    }

    /// Processes a batch of position reports and returns the non-empty
    /// answer-set deltas, in report order.
    ///
    /// A report inside the client's safe region is a *hit*: the answer id
    /// set is provably unchanged, so the tick costs zero leaf page reads
    /// and pushes nothing. Misses re-derive concurrently over the worker
    /// pool (sequentially when one client appears twice in the batch, so
    /// later reports see earlier state) and push a delta only when the
    /// answer set actually changed. Reports for unregistered ids and
    /// reports with a non-finite coordinate are skipped: the client is
    /// unchanged, nothing is pushed and nothing is counted.
    pub fn tick(&mut self, moves: &[(ClientId, Point)]) -> Vec<(ClientId, AnswerDelta)> {
        let view = RoutedView::over(&self.engines, &self.layout);
        let mut seen = HashSet::with_capacity(moves.len());
        let unique_ids = moves.iter().all(|(id, _)| seen.insert(*id));
        let mut derived: HashMap<usize, Derived> = HashMap::new();
        if unique_ids {
            let (at, misses): (Vec<usize>, Vec<Point>) = moves
                .iter()
                .enumerate()
                .filter(|(_, (id, p))| {
                    p.is_finite()
                        && self
                            .table
                            .clients
                            .get(id)
                            .is_some_and(|c| !hit(&view, c, *p))
                })
                .map(|(i, (_, p))| (i, *p))
                .unzip();
            derived = at.into_iter().zip(self.derive_many(misses)).collect();
        }
        let mut scratch = EngineScratch::default();
        let mut out = Vec::new();
        for (i, (id, p)) in moves.iter().enumerate() {
            let Some(client) = self.table.clients.get_mut(id) else {
                continue;
            };
            if !p.is_finite() {
                continue;
            }
            self.stats.ticks += 1;
            if hit(&view, client, *p) {
                self.stats.hits += 1;
                client.position = *p;
                continue;
            }
            let d = derived
                .remove(&i)
                .unwrap_or_else(|| derive(&view, *p, &mut scratch));
            if let Some(delta) = commit(&mut self.stats, client, d) {
                out.push((*id, delta));
            }
        }
        out
    }

    /// Revalidates every subscription after an unsharded
    /// [`UvSystem::apply`], given the apply's stats: clients whose position
    /// lies outside every repaired leaf rectangle keep their answer *and
    /// safe region* and only bump their epoch tag; clients inside a
    /// repaired rectangle (or too many epochs behind, or after domain
    /// growth) re-derive, returning the resulting non-empty deltas in
    /// ascending client order. On a sharded engine the one record cannot
    /// vouch for any shard, so every client re-derives.
    pub fn refresh_after(&mut self, stats: &UpdateStats) -> Vec<(ClientId, AnswerDelta)> {
        self.refresh_after_update(std::slice::from_ref(stats), stats.domain_grown)
    }

    /// Sharded counterpart of [`SubscriptionEngine::refresh_after`]: the
    /// epoch tags and repaired rectangles are checked per owning shard.
    /// Domain growth moves the outer shard boundaries, so it re-derives
    /// every client; so does a record whose shard count differs from the
    /// engine's (say, on an unsharded engine).
    pub fn refresh_after_sharded(
        &mut self,
        stats: &ShardedUpdateStats,
    ) -> Vec<(ClientId, AnswerDelta)> {
        self.refresh_after_update(&stats.per_shard, stats.domain_grown)
    }

    /// Remaps every subscription after an elastic reshard
    /// ([`ShardedUvSystem::split_shard`], [`ShardedUvSystem::merge_shards`]
    /// or [`ShardedUvSystem::maybe_reshard`]), given the reshard's stats.
    /// Call it on the engine built over the *post-reshard* system
    /// ([`SubscriptionEngine::sharded_with_table`]) before the next tick.
    ///
    /// Clients pinned to a shard that moved wholesale
    /// ([`ReshardStats::shard_map`]` = Some(new)`) keep their answer, epoch
    /// and safe region — the shard's rectangle, epoch and leaf structure are
    /// untouched, so the pin is simply renumbered. Clients pinned to a
    /// rebuilt shard re-derive on the new layout; routed answers are
    /// bit-identical to the unsharded oracle, so a reshard never changes an
    /// answer set and the returned delta list is empty — the client-visible
    /// delta chain continues unbroken (property-tested in
    /// `tests/proptest_shard.rs`). When the new layout's shard count differs
    /// from the engine's (say, on an unsharded engine), every client
    /// re-derives.
    pub fn refresh_after_reshard(&mut self, stats: &ReshardStats) -> Vec<(ClientId, AnswerDelta)> {
        let other_layout = stats.nx * stats.ny != self.engines.len();
        self.revalidate(other_layout, |_, client, s| {
            match stats.shard_map.get(s).copied().flatten() {
                // Renumber the pin: the moved shard kept its rectangle
                // (ownership region unchanged), its epoch and its leaf ids,
                // so the safe region stays valid as-is.
                Some(new) => {
                    client.shard = Some(new);
                    true
                }
                None => false,
            }
        })
    }

    /// The update half of the refreshes: `per_shard` holds one record per
    /// shard of the engine's layout.
    fn refresh_after_update(
        &mut self,
        per_shard: &[UpdateStats],
        domain_grown: bool,
    ) -> Vec<(ClientId, AnswerDelta)> {
        let other_layout = per_shard.len() != self.engines.len();
        self.revalidate(domain_grown || other_layout, |view, client, s| {
            let (Some(engine), Some(update)) = (view.engines.get(s), per_shard.get(s)) else {
                return false;
            };
            let cur = engine.index().epoch();
            if client.epoch == cur {
                return true;
            }
            // A PNN answer can only change at points inside a repaired
            // leaf; same for the safe region, whose hit test is pinned to
            // the client's (untouched) leaf.
            let untouched = update.epoch == cur
                && client.epoch + 1 == cur
                && !update
                    .repaired_regions()
                    .iter()
                    .any(|r| r.contains(client.position));
            if untouched {
                client.epoch = cur;
            }
            untouched
        })
    }

    /// The one revalidation pass behind every refresh. A client pinned to
    /// shard `s` keeps its answer, epoch and safe region when `keep`
    /// vouches for it (`keep` may bump its epoch or renumber its pin). An
    /// unpinned client (out of domain at its last derivation, or restored
    /// from a snapshot) is kept while no shard owns its position.
    /// `all_stale` re-derives everyone. The rest re-derive concurrently at
    /// their current positions; the non-empty deltas come back in
    /// ascending client order.
    fn revalidate(
        &mut self,
        all_stale: bool,
        keep: impl Fn(&RoutedView<'_, '_>, &mut Client, usize) -> bool,
    ) -> Vec<(ClientId, AnswerDelta)> {
        let view = RoutedView::over(&self.engines, &self.layout);
        let mut stale = Vec::new();
        for (id, client) in self.table.clients.iter_mut() {
            let kept = !all_stale
                && match client.shard {
                    Some(s) => keep(&view, client, s),
                    None => view.layout.owner_of(client.position).is_none(),
                };
            if !kept {
                stale.push((*id, client.position));
            }
        }
        self.stats.invalidated += stale.len() as u64;
        let (ids, points): (Vec<ClientId>, Vec<Point>) = stale.into_iter().unzip();
        let mut out = Vec::new();
        for (id, d) in ids.into_iter().zip(self.derive_many(points)) {
            let Some(client) = self.table.clients.get_mut(&id) else {
                continue;
            };
            if let Some(delta) = commit(&mut self.stats, client, d) {
                out.push((id, delta));
            }
        }
        out
    }

    /// Derives at every point over the worker pool, in point order.
    fn derive_many(&self, points: Vec<Point>) -> Vec<Derived> {
        let view = RoutedView::over(&self.engines, &self.layout);
        let workers = view.engines.first().map_or(1, QueryEngine::workers);
        fan_out(workers, points, |scratch, p| derive(&view, p, scratch))
    }
}

/// Commits one derivation to `client`, returning the delta to push (if the
/// answer set changed).
fn commit(stats: &mut SubscriptionStats, client: &mut Client, d: Derived) -> Option<AnswerDelta> {
    stats.derivations += 1;
    stats.clearance_reuses += u64::from(d.clearance_reused);
    if let (Some(old), Some(new)) = (client.shard, d.client.shard) {
        if old != new {
            stats.migrations += 1;
        }
    }
    let delta = delta_between_ids(&client.answer_ids, &d.client.answer_ids);
    *client = d.client;
    if delta.is_unchanged() {
        None
    } else {
        stats.deltas_pushed += 1;
        Some(delta)
    }
}

/// Safe-region hit test: strictly inside the stability disk, still owned by
/// the pinned shard at its current epoch, and in the same leaf (located
/// through the in-memory grid — no page reads).
fn hit(view: &RoutedView<'_, '_>, client: &Client, p: Point) -> bool {
    let (Some(safe), Some(s)) = (&client.safe, client.shard) else {
        return false;
    };
    // `partial_cmp` rather than `<` so a NaN distance (non-finite client
    // position) is a miss, never a hit.
    if p.dist(safe.anchor).partial_cmp(&safe.radius) != Some(std::cmp::Ordering::Less) {
        return false;
    }
    let Some(engine) = view.engines.get(s) else {
        return false;
    };
    view.layout.owner_of(p) == Some(s)
        && client.epoch == engine.index().epoch()
        && engine.index().locate_leaf(p) == Some(safe.leaf)
}

/// One full derivation (answer + safe region) on the shard owning `p`. The
/// stability radius is the fused-screen clearance (bit-identical to the
/// scalar `candidate_stability_radius` over the screened leaf entries)
/// capped by the integrated candidates' [`answer_stability_radius`].
fn derive(view: &RoutedView<'_, '_>, p: Point, scratch: &mut EngineScratch) -> Derived {
    // An unowned (out-of-domain) position gets the empty answer, no pin.
    let mut out = Derived {
        client: Client {
            position: p,
            answer_ids: Vec::new(),
            epoch: 0,
            shard: None,
            safe: None,
        },
        answer: PnnAnswer::default(),
        clearance_reused: false,
    };
    let owned = view
        .layout
        .owner_of(p)
        .and_then(|s| view.engines.get(s).map(|engine| (s, engine)));
    let Some((s, engine)) = owned else {
        return out;
    };
    let index = engine.index();
    out.client.epoch = index.epoch();
    out.client.shard = Some(s);
    let Some(d) = engine.derive_at(p, scratch) else {
        return out;
    };
    let config = index.config();
    let rho = d.clearance.min(answer_stability_radius(
        p,
        &d.candidates,
        &d.answer,
        config.integration_steps,
    ));
    let rho = config.apply_safe_region_floor(rho, index.domain());
    out.client.answer_ids = d.answer.answer_ids();
    out.client.safe = (rho > 0.0).then_some(SafeRegion {
        leaf: d.leaf,
        anchor: p,
        radius: rho,
    });
    out.answer = d.answer;
    out.clearance_reused = d.arena_reused;
    out
}

/// Diff of two sorted-ascending answer id sets, mirroring
/// [`AnswerDelta::between`].
fn delta_between_ids(prev: &[ObjectId], next: &[ObjectId]) -> AnswerDelta {
    let entered: Vec<ObjectId> = next
        .iter()
        .filter(|id| prev.binary_search(id).is_err())
        .copied()
        .collect();
    let left: Vec<ObjectId> = prev
        .iter()
        .filter(|id| next.binary_search(id).is_err())
        .copied()
        .collect();
    let retained = next.len() - entered.len();
    AnswerDelta {
        entered,
        left,
        retained,
    }
}

/// Largest radius around `q` within which the `d_minmax` candidate screen
/// over `entries` provably keeps the exact same outcome for every entry.
///
/// The screen admits entry `e` iff `dist_min_e(q) <= dminmax(q) + EPS`,
/// where `dminmax(q) = min_e dist_max_e(q)`. Both sides are 1-Lipschitz in
/// `q`, so the signed clearance `f_e(q) = dist_min_e(q) - dminmax(q) - EPS`
/// is 2-Lipschitz and a move of less than `|f_e|/2` cannot flip its sign.
/// The minimum over all entries therefore freezes the candidate *list*
/// (same ids, same order, same examined count). Infinite when there are no
/// entries (nothing to flip).
///
/// The scalar reference for the fused screen in
/// [`uv_data::EntryArena::screen`], which computes this same clearance
/// bit-for-bit alongside the candidate pass; production derivations go
/// through the arena, and the tests keep this oracle.
#[cfg(test)]
pub(crate) fn candidate_stability_radius(q: Point, entries: &[uv_data::ObjectEntry]) -> f64 {
    if entries.is_empty() {
        return f64::INFINITY;
    }
    let dminmax = entries
        .iter()
        .map(|e| e.dist_max(q))
        .fold(f64::INFINITY, f64::min);
    let threshold = dminmax + uv_geom::EPS;
    entries
        .iter()
        .map(|e| (e.dist_min(q) - threshold).abs() / 2.0)
        .fold(f64::INFINITY, f64::min)
}

/// Per-candidate ring discretisation facts the stability analysis needs:
/// the onset `a` (the smallest distance at which the candidate's distance
/// cdf becomes positive: `min |d - s_k|` over positive-mass rings), the
/// saturation `sat` (the largest `d + s_k`, beyond which every positive
/// ring's cdf is 1) and the total ring mass (whether the clamp in
/// [`uv_data::DistanceDistribution::cdf`] reaches an exact 1.0 at `sat`).
/// `None` when the analysis would be fragile: a degenerate radius or a
/// query (nearly) at the candidate's centre switch `ring_cdf` into its step
/// branches, or no ring carries mass.
fn ring_support(o: &UncertainObject, q: Point) -> Option<(f64, f64, f64)> {
    let d = o.center().dist(q);
    let radius = o.radius();
    if radius <= 1e-9 || d <= 1e-9 {
        return None;
    }
    let rings = o.pdf.num_bars().unwrap_or(DEFAULT_RINGS);
    let masses = o.pdf.ring_masses(rings);
    let mut onset = f64::INFINITY;
    let mut sat = f64::NEG_INFINITY;
    let mut mass = 0.0;
    for (k, w) in masses.iter().enumerate() {
        if *w <= 0.0 {
            continue;
        }
        let s = radius * (k as f64 + 0.5) / rings as f64;
        onset = onset.min((d - s).abs());
        sat = sat.max(d + s);
        mass += w;
    }
    if !onset.is_finite() || !sat.is_finite() {
        return None;
    }
    Some((onset, sat, mass))
}

/// Largest radius around `q` within which the numerically integrated
/// answer — the *set* of candidates retained with positive probability by
/// [`uv_data::qualification_probabilities`] followed by the `p > 0.0`
/// filter — provably cannot change, assuming the candidate list itself is
/// frozen (see `candidate_stability_radius`; callers take the minimum of
/// both radii).
///
/// The analysis tracks, per candidate, which side of zero its *computed*
/// probability landed on and bounds how far `q` can move before the
/// floating-point evaluation could land differently:
///
/// * a candidate computed **positive** stays positive while some
///   integration step both starts at or before its cdf onset `a_i` and ends
///   strictly after it, with every competitor's survival factor still
///   strictly below saturation at the step start;
/// * a candidate computed **zero** stays exactly zero while either its
///   onset lies at or beyond the integration's upper bound (`df` is exactly
///   `0.0` on every step — the cdf sums zero terms) or some competitor's
///   cdf is exactly `1.0` (by forced `dist_max` return or by clamp with
///   total ring mass >= 1) at the start of every step that could see a
///   positive `df` (the survival product is exactly `0.0`).
///
/// All quantities involved are 1-Lipschitz in `q` except the step width
/// (`2/steps`-Lipschitz), giving the `/2` and `/4` divisors; `~1e-9`-scale
/// guards absorb floating-point evaluation noise around each branch point.
/// Probabilities within `1e-12` of the `p > 0.0` filter are treated as
/// unstable. Any non-positive margin yields radius 0 — no safe region, so a
/// pessimistic bound only ever costs a re-derivation.
pub(crate) fn answer_stability_radius(
    q: Point,
    candidates: &[UncertainObject],
    answer: &PnnAnswer,
    steps: usize,
) -> f64 {
    let n = candidates.len();
    if n <= 1 {
        // Empty answers stay empty and a lone candidate keeps probability 1
        // for as long as the candidate list itself is stable.
        return f64::INFINITY;
    }
    let dist_min: Vec<f64> = candidates.iter().map(|o| o.dist_min(q)).collect();
    let dist_max: Vec<f64> = candidates.iter().map(|o| o.dist_max(q)).collect();
    let lower = dist_min.iter().copied().fold(f64::INFINITY, f64::min);
    let upper = dist_max.iter().copied().fold(f64::INFINITY, f64::min);
    if upper <= lower {
        // Degenerate-geometry branch: a uniform share among all candidates,
        // stable while `upper` stays at or below `lower`.
        return (lower - upper) / 2.0;
    }
    let mut rho = (upper - lower) / 2.0;

    let steps_eff = steps.max(2) as f64;
    let dt = (upper - lower) / steps_eff;
    let guard = 1e-9 * (1.0 + upper.abs());

    let mut supports = Vec::with_capacity(n);
    for o in candidates {
        match ring_support(o, q) {
            Some(s) => supports.push(s),
            None => return 0.0,
        }
    }
    // First exact-saturation point of each competitor's cdf: `dist_max`
    // always forces an exact 1.0; the ring-sum clamp does too, but only
    // when the masses sum to at least 1 (Gaussian ring masses normalise to
    // ~1 from below, so the clamp may never engage).
    let zero_sat: Vec<f64> = supports
        .iter()
        .zip(&dist_max)
        .map(|((_, sat, mass), dm)| if *mass >= 1.0 { *sat } else { *dm })
        .collect();
    let positive: HashMap<ObjectId, f64> = answer.probabilities.iter().copied().collect();

    for (i, o) in candidates.iter().enumerate() {
        let (onset, _, _) = supports[i];
        // Keep the query far enough from the candidate's centre that
        // `ring_cdf` stays in its law-of-cosines branch everywhere in the
        // disk.
        let d_center = o.center().dist(q);
        rho = rho.min((d_center - 1e-9) / 2.0);
        match positive.get(&o.id) {
            Some(p) => {
                if *p < 1e-12 {
                    return 0.0;
                }
                // Competitors must all still be strictly unsaturated at the
                // start of the step that first crosses the onset.
                let sat_lo = supports
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, (_, sat, _))| *sat)
                    .fold(f64::INFINITY, f64::min)
                    - guard;
                rho = rho.min((sat_lo.min(upper) - (onset + 2.0 * dt)) / 4.0);
            }
            None => {
                let z = zero_sat
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, zs)| *zs)
                    .fold(f64::INFINITY, f64::min);
                let never_rises = (onset - upper - guard) / 2.0;
                let killed_first = (onset - dt - z - guard) / 4.0;
                rho = rho.min(never_rises.max(killed_first));
            }
        }
        if rho <= 0.0 {
            return 0.0;
        }
    }
    rho
}

#[cfg(test)]
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Method, UvConfig, UvSystem};
    use uv_data::{qualification_probabilities, ObjectEntry, QueryBreakdown};
    use uv_data::{Dataset, GeneratorConfig};
    use uv_geom::{Rect, EPS};

    fn fixture(n: usize) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let system = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default(),
        )
        .unwrap();
        (ds, system)
    }

    #[test]
    fn subscribe_returns_the_pnn_answer_and_rejects_duplicates() {
        let (ds, system) = fixture(200);
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 3)[0];
        let answer = subs.subscribe(7, q).unwrap();
        assert_eq!(answer.probabilities, system.pnn(q).probabilities);
        assert_eq!(
            subs.subscribe(7, q).unwrap_err(),
            UvError::DuplicateClient(7)
        );
        assert_eq!(subs.table().len(), 1);
        assert_eq!(
            subs.table().client(7).unwrap().answer_ids(),
            answer.answer_ids()
        );
    }

    #[test]
    fn unsubscribe_unknown_errors_and_known_removes() {
        let (ds, system) = fixture(150);
        let mut subs = SubscriptionEngine::new(&system);
        assert_eq!(subs.unsubscribe(9).unwrap_err(), UvError::UnknownClient(9));
        subs.subscribe(9, ds.query_points(1, 5)[0]).unwrap();
        subs.unsubscribe(9).unwrap();
        assert!(subs.table().is_empty());
    }

    #[test]
    fn safe_region_hits_read_no_leaf_pages_and_match_the_oracle() {
        let (ds, system) = fixture(400);
        let mut subs = SubscriptionEngine::new(&system);
        let points = ds.query_points(64, 11);
        for (i, q) in points.iter().enumerate() {
            subs.subscribe(i as ClientId, *q).unwrap();
        }
        // Nudge every client by a vanishing amount: almost all ticks should
        // be safe-region hits, and hits must read zero leaf pages.
        system.reset_io();
        let moves: Vec<(ClientId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, q)| (i as ClientId, Point::new(q.x + 1e-7, q.y - 1e-7)))
            .collect();
        let deltas = subs.tick(&moves);
        let stats = subs.stats();
        assert_eq!(stats.ticks, 64);
        assert!(
            stats.hit_rate() > 0.9,
            "expected mostly hits, got {stats:?}"
        );
        if stats.hits == stats.ticks {
            let io = system.index().store().io();
            assert_eq!(io.reads, 0, "pure-hit tick must read no pages");
            assert!(deltas.is_empty());
        }
        // Every client's tracked answer must equal the oracle at its new
        // position, hit or miss.
        for (id, client) in subs.table().iter() {
            let oracle = system.pnn(moves[id as usize].1);
            assert_eq!(
                client.answer_ids(),
                oracle.answer_ids(),
                "client {id} diverged from the oracle"
            );
        }
    }

    #[test]
    fn long_random_walk_stays_bit_identical_to_per_tick_oracle() {
        let (ds, system) = fixture(300);
        let mut subs = SubscriptionEngine::new(&system);
        let start = ds.query_points(1, 21)[0];
        subs.subscribe(1, start).unwrap();
        let mut tracked = subs.table().client(1).unwrap().answer_ids().to_vec();
        let mut p = start;
        // Deterministic jagged walk: mixes sub-safe-region steps with jumps.
        let mut k = 0u64;
        for _ in 0..200 {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dx = ((k >> 16) % 2001) as f64 / 10.0 - 100.0;
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dy = ((k >> 16) % 2001) as f64 / 10.0 - 100.0;
            p = Point::new(
                (p.x + dx).clamp(ds.domain.min_x, ds.domain.max_x),
                (p.y + dy).clamp(ds.domain.min_y, ds.domain.max_y),
            );
            let deltas = subs.tick(&[(1, p)]);
            for (_, delta) in &deltas {
                for id in &delta.left {
                    let pos = tracked.binary_search(id).expect("left id was tracked");
                    tracked.remove(pos);
                }
                for id in &delta.entered {
                    let pos = tracked.binary_search(id).unwrap_err();
                    tracked.insert(pos, *id);
                }
            }
            assert_eq!(
                tracked,
                system.pnn(p).answer_ids(),
                "delta chain diverged at {p:?}"
            );
        }
        let stats = subs.stats();
        assert!(stats.ticks == 200 && stats.derivations >= 1);
    }

    #[test]
    fn duplicate_ids_in_one_tick_are_processed_sequentially() {
        let (ds, system) = fixture(250);
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 9)[0];
        subs.subscribe(3, q).unwrap();
        let far = Point::new(
            ds.domain.min_x + ds.domain.width() * 0.1,
            ds.domain.min_y + ds.domain.height() * 0.1,
        );
        let deltas = subs.tick(&[(3, far), (3, q)]);
        // Both moves processed in order: final position is back at q with
        // the original answer; the two deltas (if any) must compose to the
        // identity.
        assert_eq!(subs.table().client(3).unwrap().position(), q);
        assert_eq!(
            subs.table().client(3).unwrap().answer_ids(),
            system.pnn(q).answer_ids()
        );
        if deltas.len() == 2 {
            assert_eq!(deltas[0].1.entered, deltas[1].1.left);
            assert_eq!(deltas[0].1.left, deltas[1].1.entered);
        }
        // Unknown ids are skipped silently.
        assert!(subs.tick(&[(99, q)]).is_empty());
    }

    #[test]
    fn refresh_after_rederives_only_touched_regions() {
        let (ds, mut system) = fixture(300);
        let points = ds.query_points(32, 17);
        let mut subs = SubscriptionEngine::new(&system);
        for (i, q) in points.iter().enumerate() {
            subs.subscribe(i as ClientId, *q).unwrap();
        }
        let table = subs.into_table();
        // Move one object: the repair touches few leaves.
        let target = ds.objects[0].id;
        let dest = Point::new(
            ds.domain.min_x + ds.domain.width() * 0.25,
            ds.domain.min_y + ds.domain.height() * 0.75,
        );
        let stats = system.updater().move_to(target, dest).commit().unwrap();
        assert!(!stats.repaired_regions().is_empty());
        let mut subs = SubscriptionEngine::with_table(&system, table);
        let deltas = subs.refresh_after(&stats);
        let sstats = subs.stats();
        assert!(
            (sstats.invalidated as usize) < points.len(),
            "selective invalidation should spare clients outside repaired leaves: {sstats:?}"
        );
        // All clients current again, answers equal the oracle.
        for (id, client) in subs.table().iter() {
            assert_eq!(
                client.answer_ids(),
                system.pnn(points[id as usize]).answer_ids(),
                "client {id} stale after refresh"
            );
        }
        // Pushed deltas must be consistent: only invalidated clients may push.
        assert!(deltas.len() as u64 <= sstats.invalidated);
        // Subsequent ticks still work (epochs upgraded).
        let moves: Vec<(ClientId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, q)| (i as ClientId, *q))
            .collect();
        subs.tick(&moves);
        for (id, client) in subs.table().iter() {
            assert_eq!(
                client.answer_ids(),
                system.pnn(points[id as usize]).answer_ids(),
                "client {id} stale after post-refresh tick"
            );
        }
    }

    #[test]
    fn candidate_stability_radius_edges() {
        let q = Point::new(0.0, 0.0);
        assert_eq!(candidate_stability_radius(q, &[]), f64::INFINITY);
        let a = UncertainObject::with_uniform(1, Point::new(10.0, 0.0), 2.0);
        let b = UncertainObject::with_uniform(2, Point::new(100.0, 0.0), 2.0);
        let entries = vec![ObjectEntry::new(&a, 0), ObjectEntry::new(&b, 0)];
        let rho = candidate_stability_radius(q, &entries);
        // b fails the screen by ~86; a passes by ~dminmax. The margin must
        // be positive and no larger than half the smallest clearance.
        assert!(rho > 0.0 && rho.is_finite());
        assert!(rho <= (b.dist_min(q) - (a.dist_max(q) + EPS)).abs() / 2.0 + 1e-12);
    }

    #[test]
    fn fused_screen_clearance_is_bit_identical_to_the_scalar_reference() {
        // The arena's fused screen reports the same clearance bits as the
        // retained scalar reference, so the safe regions derived through the
        // engine are exactly the PR 7 disks.
        let objects = [
            UncertainObject::with_uniform(1, Point::new(12.0, 5.0), 3.0),
            UncertainObject::with_uniform(2, Point::new(40.0, 11.0), 2.0),
            UncertainObject::with_gaussian(3, Point::new(25.0, 30.0), 6.0),
            UncertainObject::with_uniform(4, Point::new(12.0, 5.0), 3.0), // co-located twin
            UncertainObject::with_uniform(5, Point::new(7.0, 9.0), 0.0),  // zero radius
        ];
        let entries: Vec<ObjectEntry> = objects.iter().map(|o| ObjectEntry::new(o, 0)).collect();
        let mut arena = uv_data::EntryArena::default();
        arena.assign(&entries);
        let mut scratch = uv_data::ScreenScratch::default();
        let mut candidates = Vec::new();
        for q in [
            Point::new(0.0, 0.0),
            Point::new(13.0, 6.0),
            Point::new(26.0, 29.5),
            Point::new(100.0, -40.0),
        ] {
            let screen = arena.screen(q, &mut scratch, &mut candidates);
            let scalar = candidate_stability_radius(q, &entries);
            assert_eq!(
                screen.clearance.to_bits(),
                scalar.to_bits(),
                "clearance diverged from the scalar reference at {q:?}"
            );
        }
    }

    #[test]
    fn co_located_subscribers_reuse_the_leaf_clearance_geometry() {
        let (ds, system) = fixture(250);
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 17)[0];
        // A cluster of clients at (essentially) the same position: the first
        // derivation builds the leaf's screened arena, the rest reuse it.
        let n = 16u64;
        for i in 0..n {
            let p = Point::new(q.x + 1e-9 * i as f64, q.y);
            subs.subscribe(i, p).unwrap();
        }
        let stats = subs.stats();
        assert_eq!(stats.derivations, n);
        assert!(
            stats.clearance_reuses >= n - 1,
            "co-located subscribes should reuse the cached leaf arena: {stats:?}"
        );
    }

    #[test]
    fn answer_stability_radius_is_conservative_on_a_grid() {
        // Empirical soundness sweep: at every probe point, the computed
        // radius must keep the answer id set unchanged at points just
        // inside the disk along several directions.
        let objects = vec![
            UncertainObject::with_uniform(1, Point::new(30.0, 30.0), 8.0),
            UncertainObject::with_uniform(2, Point::new(70.0, 30.0), 6.0),
            UncertainObject::with_gaussian(3, Point::new(50.0, 70.0), 10.0),
            UncertainObject::with_uniform(4, Point::new(45.0, 45.0), 4.0),
        ];
        let refs: Vec<&UncertainObject> = objects.iter().collect();
        let answer_at = |q: Point| {
            let mut probs = qualification_probabilities(q, &refs, 60);
            probs.retain(|(_, p)| *p > 0.0);
            let mut ids: Vec<ObjectId> = probs.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            ids
        };
        for gy in 0..12 {
            for gx in 0..12 {
                let q = Point::new(8.0 * gx as f64 + 3.7, 8.0 * gy as f64 + 2.3);
                let mut probs = qualification_probabilities(q, &refs, 60);
                probs.retain(|(_, p)| *p > 0.0);
                let answer = PnnAnswer {
                    probabilities: probs,
                    candidates_examined: refs.len(),
                    breakdown: QueryBreakdown::default(),
                };
                let rho = answer_stability_radius(q, &objects, &answer, 60);
                assert!(rho >= 0.0 && !rho.is_nan());
                if rho <= 0.0 || !rho.is_finite() {
                    continue;
                }
                let base = answer.answer_ids();
                for (dx, dy) in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.7, -0.7)] {
                    let step = rho * 0.95;
                    let probe = Point::new(q.x + dx * step, q.y + dy * step);
                    assert_eq!(
                        answer_at(probe),
                        base,
                        "answer set changed inside stability disk at {q:?} + {rho}*({dx},{dy})"
                    );
                }
            }
        }
    }

    #[test]
    fn safe_region_accessors_and_floor_knob() {
        let (ds, _) = fixture(200);
        // With an absurdly large floor every radius collapses to zero: no
        // safe regions, every tick re-derives, answers still exact.
        let system = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default().with_safe_region_min_radius_fraction(1.0),
        )
        .unwrap();
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 2)[0];
        subs.subscribe(1, q).unwrap();
        assert!(subs.table().client(1).unwrap().safe_region().is_none());
        let p2 = Point::new(q.x + 1e-9, q.y);
        subs.tick(&[(1, p2)]);
        assert_eq!(subs.stats().hits, 0);
        assert_eq!(
            subs.table().client(1).unwrap().answer_ids(),
            system.pnn(p2).answer_ids()
        );

        // Defaults produce a safe region with sane accessors at most points.
        let system = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
        let mut subs = SubscriptionEngine::new(&system);
        subs.subscribe(1, q).unwrap();
        if let Some(region) = subs.table().client(1).unwrap().safe_region() {
            assert_eq!(region.anchor(), q);
            assert!(region.radius() > 0.0);
            assert!(region.leaf() < usize::MAX);
        }
    }

    #[test]
    fn out_of_domain_clients_have_empty_answers_and_recover() {
        let (ds, system) = fixture(150);
        let mut subs = SubscriptionEngine::new(&system);
        let outside = Point::new(ds.domain.max_x + 1_000.0, ds.domain.max_y + 1_000.0);
        let answer = subs.subscribe(5, outside).unwrap();
        assert!(answer.probabilities.is_empty());
        // Walking back inside pushes the full answer as `entered`.
        let inside = ds.query_points(1, 4)[0];
        let deltas = subs.tick(&[(5, inside)]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].1.entered, system.pnn(inside).answer_ids());
        assert!(deltas[0].1.left.is_empty());
    }

    #[test]
    fn delta_between_ids_matches_answer_delta_semantics() {
        let d = delta_between_ids(&[1, 2, 3], &[2, 3, 4]);
        assert_eq!(d.entered, vec![4]);
        assert_eq!(d.left, vec![1]);
        assert_eq!(d.retained, 2);
        assert!(delta_between_ids(&[], &[]).is_unchanged());
        assert!(delta_between_ids(&[7], &[7]).is_unchanged());
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = SubscriptionStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.ticks = 10;
        s.hits = 8;
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn table_resume_preserves_the_delta_chain() {
        let (ds, system) = fixture(200);
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 8)[0];
        subs.subscribe(11, q).unwrap();
        let table = subs.into_table();
        let mut resumed = SubscriptionEngine::with_table(&system, table);
        // Same position: the resumed client's answer is current; a no-move
        // tick pushes nothing.
        let deltas = resumed.tick(&[(11, q)]);
        assert!(deltas.is_empty());
        assert_eq!(
            resumed.table().client(11).unwrap().answer_ids(),
            system.pnn(q).answer_ids()
        );
    }

    #[test]
    fn domain_growth_invalidates_every_in_domain_client() {
        let (ds, mut system) = fixture(120);
        let points = ds.query_points(8, 13);
        let mut subs = SubscriptionEngine::new(&system);
        for (i, q) in points.iter().enumerate() {
            subs.subscribe(i as ClientId, *q).unwrap();
        }
        let table = subs.into_table();
        let outside = UncertainObject::with_uniform(
            9_000,
            Point::new(ds.domain.max_x + 600.0, ds.domain.max_y + 600.0),
            10.0,
        );
        let stats = system.insert_object(outside).unwrap();
        assert!(stats.domain_grown);
        let mut subs = SubscriptionEngine::with_table(&system, table);
        subs.refresh_after(&stats);
        assert_eq!(subs.stats().invalidated, points.len() as u64);
        for (id, client) in subs.table().iter() {
            assert_eq!(
                client.answer_ids(),
                system.pnn(points[id as usize]).answer_ids()
            );
        }
    }

    #[test]
    fn reshard_migrates_subscriptions_with_unbroken_delta_chains() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(150));
        let config = UvConfig::default()
            .with_seed_knn(24)
            .with_leaf_split_capacity(16)
            .with_num_shards(2);
        let mut sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let oracle = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let points = ds.query_points(12, 31);
        let mut subs = SubscriptionEngine::sharded(&sharded);
        for (i, q) in points.iter().enumerate() {
            subs.subscribe(i as ClientId, *q).unwrap();
        }
        let pins_before: Vec<Option<usize>> = (0..points.len())
            .map(|i| subs.table().client(i as ClientId).unwrap().shard())
            .collect();

        // Hot split: 2x2 -> 3x2. Clients on the four moved shards keep their
        // pins (renumbered); clients on the two rebuilt shards re-derive.
        let table = subs.into_table();
        let stats = sharded.split_shard(0).unwrap();
        let mut subs = SubscriptionEngine::sharded_with_table(&sharded, table);
        let deltas = subs.refresh_after_reshard(&stats);
        assert!(
            deltas.is_empty(),
            "bit-identical answers push no deltas: {deltas:?}"
        );
        let rebuilt_clients = pins_before
            .iter()
            .filter(|p| p.is_some_and(|s| stats.shard_map[s].is_none()))
            .count() as u64;
        assert_eq!(subs.stats().invalidated, rebuilt_clients);
        for (id, client) in subs.table().iter() {
            assert_eq!(client.shard(), sharded.owner_of(client.position()));
            assert_eq!(
                client.answer_ids(),
                oracle.pnn(points[id as usize]).answer_ids(),
                "client {id} diverged after the split"
            );
        }

        // Ticks keep flowing on the post-split layout.
        let moves: Vec<(ClientId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, q)| (i as ClientId, Point::new(q.x + 150.0, q.y)))
            .collect();
        subs.tick(&moves);
        for (id, client) in subs.table().iter() {
            assert_eq!(
                client.answer_ids(),
                oracle.pnn(moves[id as usize].1).answer_ids(),
                "client {id} diverged on the tick after the split"
            );
        }

        // Cold merge after churn: the chain survives a second reshard too.
        let table = subs.into_table();
        let stats = sharded.merge_shards(1, 2).unwrap();
        let mut subs = SubscriptionEngine::sharded_with_table(&sharded, table);
        assert!(subs.refresh_after_reshard(&stats).is_empty());
        for (id, client) in subs.table().iter() {
            assert_eq!(client.shard(), sharded.owner_of(client.position()));
            assert_eq!(
                client.answer_ids(),
                oracle.pnn(moves[id as usize].1).answer_ids(),
                "client {id} diverged after the merge"
            );
        }
    }

    #[test]
    fn ring_support_guards_degenerate_geometry() {
        let q = Point::new(0.0, 0.0);
        let at_center = UncertainObject::with_uniform(1, q, 5.0);
        assert!(ring_support(&at_center, q).is_none());
        let degenerate = UncertainObject::with_uniform(2, Point::new(3.0, 0.0), 0.0);
        assert!(ring_support(&degenerate, q).is_none());
        let fine = UncertainObject::with_uniform(3, Point::new(10.0, 0.0), 2.0);
        let (onset, sat, mass) = ring_support(&fine, q).unwrap();
        assert!(onset >= fine.dist_min(q) && sat <= fine.dist_max(q));
        assert!((0.9..=1.1).contains(&mass));
    }

    #[test]
    fn tick_applies_safe_region_floor_from_config() {
        // A small but positive floor: regions narrower than the floor are
        // dropped, wider ones kept as-is.
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(100));
        let domain: Rect = ds.domain;
        let system = UvSystem::build(
            ds.objects.clone(),
            domain,
            Method::IC,
            UvConfig::default().with_safe_region_min_radius_fraction(1e-12),
        )
        .unwrap();
        let mut subs = SubscriptionEngine::new(&system);
        let q = ds.query_points(1, 6)[0];
        subs.subscribe(1, q).unwrap();
        if let Some(r) = subs.table().client(1).unwrap().safe_region() {
            assert!(r.radius() >= 1e-12 * domain.width().max(domain.height()));
        }
    }
}
