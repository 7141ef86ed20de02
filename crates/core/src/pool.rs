//! The crate's one worker pool: batched queries, subscription misses, shard
//! builds, reconciles and routed batches, and cr-object derivations all fan
//! out over the same process-wide helper threads.
//!
//! The first fan-out that can use a second thread starts
//! `available_parallelism() − 1` helpers. They park on a condition variable
//! while idle and are never joined, so a fan-out pays a wake-up, not a
//! thread start, and the process keeps one fixed set of threads however
//! often engines and systems are rebuilt around it.
//!
//! A fan-out publishes its job with up to `workers − 1` seats and claims
//! items one at a time alongside the helpers that take a seat. Once no item
//! is left to claim, the caller withdraws the seats no helper took and waits
//! only for the helpers inside its job. A caller therefore never waits on
//! unclaimed work: a fan-out inside an item (a routed batch's per-shard
//! batches) runs on the threads it finds free and cannot deadlock, and no
//! fan-out runs on more than `available_parallelism()` threads.

use crate::config::UvConfig;
use std::any::Any;
use std::iter::Enumerate;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::vec::IntoIter;

/// Runs `f` over `items` on the calling thread and up to `workers − 1`
/// helpers of the process-wide pool, and returns the results in item order.
/// Every participant claims items one at a time and keeps one scratch `S`
/// for all of them. With one worker, or at most one item, everything runs
/// on the calling thread over one scratch and the pool is not touched.
///
/// An item's panic stops further claims and is re-raised on the caller with
/// its original payload once every other claimed item has finished. The
/// caller returns, even while unwinding, only once no helper is inside its
/// job.
pub(crate) fn fan_out<T: Send, S: Default, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return sequential(items, f);
    }
    #[cfg(test)]
    tests::POOLED.with(|n| n.set(n.get() + 1));
    Pool::global().fan_out(workers, items, f)
}

/// The `workers` of a fan-out that [`UvConfig::parallel`] gates: the whole
/// pool when set, the calling thread alone otherwise. Derivations, shard
/// builds, routed batches, update reconciles and reshard rebuilds use it.
pub(crate) fn parallel_workers(config: &UvConfig) -> usize {
    if config.parallel {
        usize::MAX
    } else {
        1
    }
}

fn sequential<T, S: Default, R>(items: Vec<T>, f: impl Fn(&mut S, T) -> R) -> Vec<R> {
    let mut scratch = S::default();
    items
        .into_iter()
        .map(|item| f(&mut scratch, item))
        .collect()
}

/// Locks `m`. Nothing panics while one of the pool's locks is held, so a
/// poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Work a helper can join.
trait Job: Sync {
    /// Claims and runs items until none is left or one has panicked. Never
    /// unwinds.
    fn join(&self);
}

/// One fan-out's shared state: the unclaimed items, the finished results
/// and the first panic payload.
struct Batch<'f, T, S, R, F> {
    f: &'f F,
    items: Mutex<Enumerate<IntoIter<T>>>,
    results: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set by the first panic: no participant claims another item. It
    /// publishes no data (the payload travels through `panic`), so it is
    /// read and written `Relaxed`.
    stop: AtomicBool,
    scratch: PhantomData<fn() -> S>,
}

impl<'f, T, S, R, F> Batch<'f, T, S, R, F> {
    fn new(items: Vec<T>, f: &'f F) -> Self {
        let n = items.len();
        Self {
            f,
            items: Mutex::new(items.into_iter().enumerate()),
            results: Mutex::new(Vec::with_capacity(n)),
            panic: Mutex::new(None),
            stop: AtomicBool::new(false),
            scratch: PhantomData,
        }
    }

    /// The results in item order, or the first panic re-raised.
    fn into_results(self) -> Vec<R> {
        if let Some(payload) = self
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        let mut results = self
            .results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

impl<T: Send, S: Default, R: Send, F: Fn(&mut S, T) -> R + Sync> Job for Batch<'_, T, S, R, F> {
    fn join(&self) {
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = S::default();
            let mut done = Vec::new();
            while !self.stop.load(Ordering::Relaxed) {
                let Some((i, item)) = lock(&self.items).next() else {
                    break;
                };
                done.push((i, (self.f)(&mut scratch, item)));
            }
            done
        }));
        match claimed {
            Ok(mut done) => lock(&self.results).append(&mut done),
            Err(payload) => {
                self.stop.store(true, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// A set of helper threads and the jobs published to them.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Idle helpers park here until a seat is offered.
    wake: Condvar,
    /// Callers wait here for the helpers inside their job to leave.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// Published jobs, oldest first.
    offers: Vec<Offer>,
    next_id: u64,
    /// Set when a pool drops: its helpers return instead of parking.
    closing: bool,
}

/// A published job.
struct Offer {
    id: u64,
    /// Valid while the offer is listed: see [`Pool::run`].
    job: &'static dyn Job,
    /// Helpers that may still join.
    seats: usize,
    /// Helpers that joined and have not left.
    inside: usize,
}

impl Pool {
    /// A pool with `helpers` helper threads (fewer if the OS refuses to
    /// start one).
    fn new(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            left: Condvar::new(),
        });
        let helpers = (0..helpers)
            .map_while(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("uv-pool".into())
                    .spawn(move || help(&shared))
                    .ok()
            })
            .collect();
        Self { shared, helpers }
    }

    /// The process-wide pool, started on first use.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            Pool::new(threads - 1)
        })
    }

    /// [`fan_out`] on this pool.
    fn fan_out<T: Send, S: Default, R: Send>(
        &self,
        workers: usize,
        items: Vec<T>,
        f: impl Fn(&mut S, T) -> R + Sync,
    ) -> Vec<R> {
        let seats = workers
            .min(items.len())
            .saturating_sub(1)
            .min(self.helpers.len());
        if seats == 0 {
            return sequential(items, f);
        }
        let batch = Batch::new(items, &f);
        self.run(&batch, seats);
        batch.into_results()
    }

    /// Publishes `job` with `seats` seats, joins it on the calling thread,
    /// then withdraws it: returns (or unwinds) only once no helper is
    /// inside it.
    fn run(&self, job: &(dyn Job + '_), seats: usize) {
        // SAFETY: the extended reference is stored only in this call's
        // `Offer` and copied out of it only by `help`, under the state lock,
        // while the offer has a seat left; that copy increments the offer's
        // `inside` in the same critical section, and `help` decrements
        // `inside`, again under the lock, only after its `Job::join` has
        // returned and the copy is dead. `withdraw` is dropped before this
        // function returns or unwinds, and its drop zeroes the offer's
        // `seats` (so no helper can take another copy), waits until
        // `inside` is zero, and only then removes the offer. Every use of
        // the reference therefore ends while `job` is still borrowed, and
        // `job` is `Sync`, so sharing it with the helpers is sound.
        let job: &'static dyn Job =
            unsafe { std::mem::transmute::<&(dyn Job + '_), &'static dyn Job>(job) };
        let id = {
            let mut state = lock(&self.shared.state);
            let id = state.next_id;
            state.next_id += 1;
            state.offers.push(Offer {
                id,
                job,
                seats,
                inside: 0,
            });
            id
        };
        for _ in 0..seats {
            self.shared.wake.notify_one();
        }
        let withdraw = Withdraw {
            shared: &self.shared,
            id,
        };
        job.join();
        drop(withdraw);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).closing = true;
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper never unwinds: `Job::join` catches item panics.
            let _ = helper.join();
        }
    }
}

/// Withdraws offer `id` when dropped: takes back its unclaimed seats, then
/// waits until no helper is inside the job.
struct Withdraw<'p> {
    shared: &'p Shared,
    id: u64,
}

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        while let Some(at) = state.offers.iter().position(|o| o.id == self.id) {
            let offer = &mut state.offers[at];
            offer.seats = 0;
            if offer.inside == 0 {
                state.offers.remove(at);
                return;
            }
            state = self
                .shared
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper's life: take a seat on the oldest offer that has one, join its
/// job, leave; park while nothing is offered; return once the pool closes.
fn help(shared: &Shared) {
    let mut state = lock(&shared.state);
    loop {
        if let Some(offer) = state.offers.iter_mut().find(|o| o.seats > 0) {
            offer.seats -= 1;
            offer.inside += 1;
            let (id, job) = (offer.id, offer.job);
            drop(state);
            job.join();
            state = lock(&shared.state);
            if let Some(offer) = state.offers.iter_mut().find(|o| o.id == id) {
                offer.inside -= 1;
            }
            shared.left.notify_all();
        } else if state.closing {
            return;
        } else {
            state = shared
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedUvSystem;
    use crate::subscribe::SubscriptionEngine;
    use crate::{Method, UpdateBatch, UvSystem};
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use uv_data::{Dataset, GeneratorConfig};
    use uv_geom::Point;

    thread_local! {
        /// Fan-outs this thread handed to the process-wide pool.
        pub(super) static POOLED: Cell<usize> = const { Cell::new(0) };
    }

    fn pooled() -> usize {
        POOLED.with(Cell::get)
    }

    fn available() -> usize {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }

    /// A pool of its own for a test that needs exactly `helpers` helpers,
    /// joined when it drops; fails rather than hangs if one did not start.
    fn own_pool(helpers: usize) -> Pool {
        let pool = Pool::new(helpers);
        assert_eq!(pool.helpers.len(), helpers, "a helper did not start");
        pool
    }

    /// Scratches created so far; only `results_come_back_in_item_order`
    /// creates any.
    static SCRATCHES: AtomicUsize = AtomicUsize::new(0);

    struct Counted;

    impl Default for Counted {
        fn default() -> Self {
            SCRATCHES.fetch_add(1, Ordering::SeqCst);
            Counted
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        let pool = own_pool(2);
        for workers in [1, 2, 3, usize::MAX] {
            for n in [0u64, 1, 2, 7, 64] {
                let expected: Vec<u64> = (0..n).map(|x| x * x + 1).collect();
                let before = SCRATCHES.load(Ordering::SeqCst);
                let got = pool.fan_out(workers, (0..n).collect(), |_: &mut Counted, x: u64| {
                    x * x + 1
                });
                assert_eq!(got, expected, "own pool, workers {workers}, {n} items");
                // One scratch per participant: the caller plus at most
                // `workers − 1` helpers, never more than there are items.
                let scratches = SCRATCHES.load(Ordering::SeqCst) - before;
                let participants = workers.min(n.max(1) as usize).min(3);
                assert!(
                    (1..=participants).contains(&scratches),
                    "{scratches} scratches for workers {workers}, {n} items"
                );
                let got = fan_out(workers, (0..n).collect(), |(), x: u64| x * x + 1);
                assert_eq!(got, expected, "global pool, workers {workers}, {n} items");
            }
        }
    }

    #[test]
    fn items_may_borrow_locals() {
        let pool = own_pool(1);
        let suffix = String::from("-seen");
        let words: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
        let items: Vec<&String> = words.iter().collect();
        let tagged = pool.fan_out(2, items.clone(), |(), w: &String| format!("{w}{suffix}"));
        let expected: Vec<String> = words.iter().map(|w| format!("{w}-seen")).collect();
        assert_eq!(tagged, expected);
        assert_eq!(
            fan_out(usize::MAX, items, |(), w: &String| w.len()).len(),
            20
        );
    }

    /// Both items meet at a barrier, so one runs on the caller and the other
    /// on the pool's only helper; each then fans out again over the same
    /// pool.
    #[test]
    fn a_fan_out_inside_an_item_runs_on_the_caller_and_on_a_helper() {
        let pool = own_pool(1);
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let outer = pool.fan_out(2, vec![1u64, 2], |(), k| {
            barrier.wait();
            let on_helper = std::thread::current().id() != caller;
            let inner = pool.fan_out(usize::MAX, (0..9u64).collect(), |(), x| x * k);
            (on_helper, inner)
        });
        assert_eq!(outer.iter().filter(|(on_helper, _)| *on_helper).count(), 1);
        for (k, (_, inner)) in (1u64..).zip(&outer) {
            assert_eq!(*inner, (0..9).map(|x| x * k).collect::<Vec<u64>>());
        }
    }

    /// The panicking item and the other item meet at a barrier, so they run
    /// on different threads; the other item cannot finish before the panic
    /// has been raised, so the caller sees it finished only if it waited.
    #[test]
    fn a_panic_is_re_raised_after_the_other_items_finish() {
        let pool = own_pool(1);
        let caller = std::thread::current().id();
        for panic_on_helper in [false, true] {
            let barrier = Barrier::new(2);
            let (raised, wait_raised) = mpsc::channel::<()>();
            let wait_raised = Mutex::new(wait_raised);
            let finished = AtomicBool::new(false);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.fan_out(2, vec![0u8, 1], |(), _| {
                    barrier.wait();
                    let on_helper = std::thread::current().id() != caller;
                    if on_helper == panic_on_helper {
                        raised.send(()).unwrap();
                        panic!("item panicked");
                    }
                    wait_raised.lock().unwrap().recv().unwrap();
                    let spin: u64 = (0..20_000u64).map(std::hint::black_box).sum();
                    finished.store(spin > 0, Ordering::SeqCst);
                })
            }));
            let payload = outcome.expect_err("the item's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item panicked"));
            assert!(
                finished.load(Ordering::SeqCst),
                "returned before the other item"
            );

            // The helper survived: the next call needs it at the barrier.
            let barrier = Barrier::new(2);
            let threads: Vec<ThreadId> = pool.fan_out(2, vec![0u8, 1], |(), _| {
                barrier.wait();
                std::thread::current().id()
            });
            assert_ne!(threads[0], threads[1]);
        }
    }

    #[test]
    fn a_six_by_six_build_runs_on_the_pool_helpers() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(150));
        let config = crate::UvConfig::default().with_num_shards(6);
        let before = pooled();
        let sharded = ShardedUvSystem::build(ds.objects, ds.domain, Method::IC, config).unwrap();
        assert_eq!(sharded.shard_count(), 36);
        assert!(pooled() > before, "the shard build fans out over the pool");
        assert!(Pool::global().helpers.len() < available());
    }

    #[test]
    fn a_sequential_configuration_never_uses_the_pool() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(120));
        let config = crate::UvConfig::default()
            .with_parallel(false)
            .with_query_workers(1)
            .with_num_shards(2);
        let queries = ds.query_points(24, 5);
        let before = pooled();

        let mut system =
            UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let mut sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let answers = system.pnn_batch(&queries);
        for (a, b) in answers.iter().zip(sharded.pnn_batch(&queries)) {
            assert_eq!(a.probabilities, b.probabilities);
        }
        system.pnn_trajectory(&queries);
        sharded.pnn_trajectory(&queries);
        let batch = || {
            UpdateBatch::new()
                .delete(3)
                .move_to(7, Point::new(4_000.0, 6_000.0))
        };
        let stats = system.apply(batch()).unwrap();
        let sharded_stats = sharded.apply(batch()).unwrap();

        let mut engine = SubscriptionEngine::new(&system);
        let mut fleet = SubscriptionEngine::sharded(&sharded);
        for (id, q) in (0u64..).zip(&queries) {
            engine.subscribe(id, *q).unwrap();
            fleet.subscribe(id, *q).unwrap();
        }
        let moves: Vec<(u64, Point)> = (0u64..)
            .zip(queries.iter().rev())
            .map(|(id, q)| (id, *q))
            .collect();
        engine.tick(&moves);
        fleet.tick(&moves);
        engine.refresh_after(&stats);
        fleet.refresh_after_sharded(&sharded_stats);
        assert_eq!(pooled(), before, "a sequential configuration used the pool");
    }
}
