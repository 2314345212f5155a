//! Offline stand-in for the `rayon` crate.
//!
//! Implements the slice-parallelism surface this workspace uses —
//! `par_iter()` followed by `map(...)` or `map_init(...)` and then
//! `collect()`/`sum()`, or `for_each(...)` — on one persistent worker
//! pool. The whole threading model of the workspace is these three rules:
//!
//! * **One pool.** It starts lazily on the first parallel call, once per
//!   process, and holds `available_parallelism − 1` worker threads: the
//!   calling thread is the last participant. Idle workers block on a
//!   condvar; they never spin.
//! * **The caller participates.** A call splits its input into blocks of
//!   at most [`BLOCK`] items, handed out through an atomic cursor. The
//!   calling thread claims blocks exactly like a worker, so a call always
//!   completes, even while every worker is busy with another call.
//! * **Nested calls run inline.** A `par_iter` issued from inside a pool
//!   worker runs sequentially on that worker. Only one level of
//!   parallelism is ever active, whatever the call nesting.
//!
//! `collect()` preserves input order, matching rayon's indexed semantics.
//! A panic in a closure is caught, the call stops handing out blocks,
//! waits for the blocks already running, and re-raises the panic on the
//! caller; the pool stays usable. Swapping the real rayon back in is a
//! manifest-only change.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};

/// The largest number of consecutive items one participant claims at a
/// time. Smaller inputs are cut into about four blocks per participant,
/// so the slowest block stays short and idle threads can take over work.
pub const BLOCK: usize = 128;

thread_local! {
    /// True on pool worker threads: their parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Participants never panic while holding one of the pool's locks
    // (closure panics are caught outside them), so poisoning carries no
    // broken invariant.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A participant's share of a call: process the already claimed block,
/// keep claiming until the cursor runs out, and return how many blocks it
/// retired (see [`Job::finish`]).
type Work = dyn Fn(&Job, usize) -> usize + Sync;

/// One parallel call in flight.
struct Job {
    /// Next unclaimed block index (may run past `blocks`).
    cursor: AtomicUsize,
    blocks: usize,
    /// Blocks finished or abandoned; the caller waits for `blocks`.
    retired: Mutex<usize>,
    all_retired: Condvar,
    /// The first panic raised by a closure of this call.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The call's [`Work`], borrowed from the caller's stack frame with
    /// its lifetime erased.
    work: *const Work,
}

// SAFETY: every field but `work` is `Send + Sync` on its own (an atomic,
// a `usize`, and `Mutex`/`Condvar` over `Send` data). `work` points to a
// `Sync` closure, so calling it from any thread through a shared pointer
// is sound while it is alive. It is dereferenced only by a participant
// holding a claimed, unretired block, and the caller does not leave
// `run_blocks` (ending the closure's borrow) before every block is
// retired — which a participant does only after its call has returned.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn claim(&self) -> Option<usize> {
        // The cursor publishes nothing: the items reach participants
        // through the queue mutex, and block outputs reach the caller
        // through the slot and `retired` mutexes.
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        (b < self.blocks).then_some(b)
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.blocks
    }

    /// Record a closure panic and stop handing out blocks. Returns the
    /// number of blocks that will now never be claimed; the panicking
    /// participant retires them.
    fn abandon(&self, payload: Box<dyn Any + Send>) -> usize {
        lock(&self.panic).get_or_insert(payload);
        self.blocks
            .saturating_sub(self.cursor.swap(self.blocks, Ordering::Relaxed))
    }

    /// Retire `n` blocks, waking the caller once all are.
    fn finish(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut retired = lock(&self.retired);
        *retired += n;
        if *retired == self.blocks {
            self.all_retired.notify_all();
        }
    }

    /// Claim a first block and, if one was left, run the call's work.
    fn participate(&self) {
        if let Some(first) = self.claim() {
            // SAFETY: the claimed block is unretired until `finish` below,
            // so the caller is still inside `run_blocks` and `work` is live.
            let n = unsafe { (*self.work)(self, first) };
            self.finish(n);
        }
    }
}

/// The process-wide pool: a queue of calls in flight and the condvar idle
/// workers sleep on.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static START: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1,
    });
    START.call_once(|| {
        for i in 0..pool.workers {
            // A worker that cannot be started only costs parallelism:
            // callers always take part in their own calls.
            let _ = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(pool));
        }
    });
    pool
}

/// A worker's life: it serves the process until exit and is never joined.
/// It cannot panic — closure panics are caught inside the job's work.
fn worker_loop(pool: &'static Pool) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = lock(&pool.queue);
            loop {
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break Arc::clone(job);
                }
                queue = pool.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.participate();
    }
}

/// Number of threads that take part in a parallel call from outside the
/// pool: the pool's workers plus the caller.
pub fn current_num_threads() -> usize {
    pool().workers + 1
}

/// Items per block for an input of `n` items.
fn block_len(n: usize, participants: usize) -> usize {
    n.div_ceil(participants * 4).clamp(1, BLOCK)
}

/// The engine under every combinator: `f(state, item)` for every item,
/// outputs in input order, with one `init()` state per participating
/// thread.
fn run_blocks<'a, T, S, R, I, F>(items: &'a [T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    let n = items.len();
    let pool = pool();
    let block = block_len(n, pool.workers + 1);
    let blocks = n.div_ceil(block);
    if blocks <= 1 || pool.workers == 0 || IN_WORKER.with(Cell::get) {
        if n == 0 {
            return Vec::new();
        }
        let mut state = init();
        return items.iter().map(|x| f(&mut state, x)).collect();
    }

    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..blocks).map(|_| Mutex::new(None)).collect();
    let work = |job: &Job, first: usize| -> usize {
        let mut claimed = 0;
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            let mut b = first;
            loop {
                claimed += 1;
                let chunk = &items[b * block..((b + 1) * block).min(n)];
                let out: Vec<R> = chunk.iter().map(|x| f(&mut state, x)).collect();
                *lock(&slots[b]) = Some(out);
                match job.claim() {
                    Some(next) => b = next,
                    None => break,
                }
            }
            // `state` drops here, before any of this participant's blocks
            // retire: it may borrow from the caller.
        }));
        match ran {
            Ok(()) => claimed,
            Err(payload) => claimed + job.abandon(payload),
        }
    };
    let work: &(dyn Fn(&Job, usize) -> usize + Sync + '_) = &work;
    // SAFETY: only the lifetime bound changes. The pointer is dereferenced
    // under the protocol documented on `Job`, and this function waits
    // below until every block is retired, so `work` outlives every use.
    let work: *const Work = unsafe { std::mem::transmute(work) };
    let job = Arc::new(Job {
        cursor: AtomicUsize::new(0),
        blocks,
        retired: Mutex::new(0),
        all_retired: Condvar::new(),
        panic: Mutex::new(None),
        work,
    });

    lock(&pool.queue).push_back(Arc::clone(&job));
    for _ in 0..pool.workers.min(blocks - 1) {
        pool.wake.notify_one();
    }
    job.participate();
    {
        let mut retired = lock(&job.retired);
        while *retired < blocks {
            retired = job
                .all_retired
                .wait(retired)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
    lock(&pool.queue).retain(|j| !Arc::ptr_eq(j, &job));
    if let Some(payload) = lock(&job.panic).take() {
        panic::resume_unwind(payload);
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let block = slot.into_inner().unwrap_or_else(|e| e.into_inner());
        out.extend(block.expect("every block ran"));
    }
    out
}

/// A "parallel" iterator over a borrowed slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// A mapped parallel iterator with per-thread state (see
/// [`ParIter::map_init`]).
pub struct ParMapInit<'a, T, I, F> {
    items: &'a [T],
    init: I,
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Apply `f` to every element together with a mutable state that
    /// `init` creates at most once per participating thread and call —
    /// scratch space or caches a worker keeps to itself.
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParMapInit<'a, T, I, F>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        R: Send,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Run `f` for every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        run_blocks(self.items, || (), |_, x| f(x));
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Collect the mapped values, preserving input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        let f = self.f;
        C::from_vec(run_blocks(self.items, || (), |_, x| f(x)))
    }

    /// Sum the mapped values.
    pub fn sum<S: std::iter::Sum<R> + Send>(self) -> S {
        let v: Vec<R> = self.collect();
        v.into_iter().sum()
    }
}

impl<'a, T, S, R, I, F> ParMapInit<'a, T, I, F>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    /// Collect the mapped values, preserving input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        C::from_vec(run_blocks(self.items, self.init, self.f))
    }
}

/// Conversion from an ordered `Vec` of results (rayon's
/// `FromParallelIterator` analogue).
pub trait FromParallel<R> {
    /// Build the collection from results in input order.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Self {
        v
    }
}

impl<A, B> FromParallel<(A, B)> for (Vec<A>, Vec<B>) {
    fn from_vec(v: Vec<(A, B)>) -> Self {
        v.into_iter().unzip()
    }
}

/// `par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Create the parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// The prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallel, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, BLOCK};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<i32> = (0..1000).collect();
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_holds_around_block_boundaries() {
        let max = 4 * current_num_threads() * BLOCK;
        for n in [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, max - 1, max, max + 1] {
            let v: Vec<usize> = (0..n).collect();
            let out: Vec<usize> = v.par_iter().map(|x| x + 1).collect();
            assert_eq!(out, (1..=n).collect::<Vec<_>>(), "n = {n}");
            let out: Vec<usize> = v.par_iter().map_init(|| 7, |seven, x| x * *seven).collect();
            assert_eq!(out, (0..n).map(|x| x * 7).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn empty_input() {
        let v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_from_outer_scope() {
        let names = vec!["a".to_string(), "bb".to_string()];
        let refs: Vec<&str> = names.par_iter().map(|s| s.as_str()).collect();
        assert_eq!(refs, ["a", "bb"]);
    }

    #[test]
    fn consecutive_calls_reuse_a_bounded_set_of_threads() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let v: Vec<u64> = (0..512).collect();
        for _ in 0..1000 {
            let sum: u64 = v
                .par_iter()
                .map(|x| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    *x
                })
                .sum();
            assert_eq!(sum, 511 * 512 / 2);
        }
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= cores,
            "{distinct} threads for {cores} available cores"
        );
    }

    #[test]
    fn nested_calls_complete_in_order() {
        let outer: Vec<usize> = (0..64).collect();
        let inner: Vec<usize> = (0..300).collect();
        let out: Vec<Vec<usize>> = outer
            .par_iter()
            .map(|o| inner.par_iter().map(|i| o * 1000 + i).collect())
            .collect();
        for (o, row) in out.iter().enumerate() {
            assert_eq!(*row, (0..300).map(|i| o * 1000 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_survives() {
        let v: Vec<usize> = (0..10 * BLOCK).collect();
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = v
                .par_iter()
                .map(|x| {
                    if *x == 5 * BLOCK {
                        panic!("boom at {x}")
                    } else {
                        *x
                    }
                })
                .collect();
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some(format!("boom at {}", 5 * BLOCK).as_str()));
        let out: Vec<usize> = v.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=10 * BLOCK).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_runs_init_at_most_once_per_thread_per_call() {
        let v: Vec<usize> = (0..20 * BLOCK).collect();
        for _ in 0..50 {
            let inits = AtomicUsize::new(0);
            let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let out: Vec<usize> = v
                .par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |calls, x| {
                        *calls += 1;
                        threads.lock().unwrap().insert(std::thread::current().id());
                        *x
                    },
                )
                .collect();
            assert_eq!(out, v);
            let inits = inits.into_inner();
            let threads = threads.lock().unwrap().len();
            assert!(
                (1..=threads).contains(&inits),
                "{inits} inits on {threads} threads"
            );
            assert!(threads <= current_num_threads());
        }
    }
}
