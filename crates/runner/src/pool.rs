//! Dependency-light worker pool.
//!
//! `std::thread` + `std::sync` only — the build environment cannot
//! always reach a package registry, so no external executor crates.
//!
//! There is one pool primitive, [`stream`]. It runs one job closure
//! over `0..len`, which the caller cuts into *blocks* of consecutive
//! indices (for the runner's callers, one scenario each). Workers claim
//! whole blocks in order from one atomic counter, so every job runs
//! exactly once and there is no queue; a block longer than ⌈len / (4 ×
//! workers)⌉ is claimed in pieces, so one or two long blocks still keep
//! every worker busy. Each finished job is handed to a callback on the
//! *calling* thread, in index order, while the workers keep computing,
//! so the caller can commit results (a manifest, a shard, a checkpoint)
//! as they stream. A job that finishes ahead of an earlier one waits in
//! a reorder buffer, which the claim window bounds: no worker starts a
//! block more than `workers × largest block` indices past the start of
//! the first block not yet finished, so a slow or retrying job holds
//! back only that many results. The window follows the workers, not the
//! caller, so a caller busy committing (an fsync) never stalls them.
//! [`run_with_retry`] and [`run_to_completion`] collect that stream,
//! one job per block.
//!
//! Every job runs under `catch_unwind`: a panicking job is reported as
//! [`Execution::Panicked`] and the rest of the run continues. An
//! optional per-job wall-clock timeout runs the job on a detached
//! scratch thread and gives up waiting after the deadline
//! ([`Execution::TimedOut`]); the abandoned thread cannot be killed but
//! its result is discarded. Under a [`RetryPolicy`] the worker that ran
//! a failed attempt retries it in place, after that job's own backoff.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How one job's execution ended.
#[derive(Debug)]
pub enum Execution<T> {
    /// The job returned a value.
    Completed(T),
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The job exceeded its wall-clock budget.
    TimedOut,
}

/// One job's final execution plus scheduling metadata.
#[derive(Debug)]
pub struct PoolResult<T> {
    /// Index of the job.
    pub index: usize,
    /// How the last attempt ended.
    pub execution: Execution<T>,
    /// Executions the job took (1 = succeeded or gave up first try).
    pub attempts: u32,
    /// Wall-clock time summed over every attempt (backoff excluded).
    pub wall: Duration,
    /// Index of the worker that ran the job.
    pub worker: usize,
}

/// How the pool treats `Panicked`/`TimedOut` executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per job (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before a job's second attempt; doubles before each
    /// further attempt (exponential backoff). Each job waits out its
    /// own backoff on the worker that retries it; other jobs keep
    /// running.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The sleep before 1-based attempt `attempt` (zero for the first).
    fn delay_before(&self, attempt: u32) -> Duration {
        if attempt < 2 {
            return Duration::ZERO;
        }
        let doublings = (attempt - 2).min(16);
        self.backoff.saturating_mul(1u32 << doublings)
    }
}

/// The worker count a request of `workers` resolves to: 0 means the
/// host's available parallelism (1 when that cannot be read).
#[must_use]
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
}

/// Runs `jobs` like [`run_to_completion`], re-running any job whose
/// execution ended `Panicked` or `TimedOut`, up to
/// `retry.max_attempts` total executions per job. Each attempt invokes
/// the job closure with the 1-based attempt number, so a job can model
/// transient faults (fail on attempt 1, recover on attempt 2); attempt
/// counts therefore depend only on the jobs, never on scheduling.
///
/// Results come back ordered by job index regardless of scheduling or
/// retry history, so downstream artifacts stay deterministic.
#[must_use]
pub fn run_with_retry<T, F>(
    jobs: Vec<F>,
    workers: usize,
    timeout: Option<Duration>,
    retry: &RetryPolicy,
) -> Vec<PoolResult<T>>
where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let blocks: Vec<usize> = (1..=jobs.len()).collect();
    let mut results = Vec::with_capacity(jobs.len());
    let job = move |index: usize, attempt| jobs[index](attempt);
    let Ok(()) = stream(&blocks, workers, timeout, retry, job, |result| {
        results.push(result);
        Ok::<(), Infallible>(())
    });
    results
}

/// Runs `jobs` on `workers` threads and returns the results ordered by
/// job index, regardless of scheduling.
///
/// `workers` resolves as in [`stream`]. `timeout` bounds each job's
/// wall-clock time.
#[must_use]
pub fn run_to_completion<T, F>(
    jobs: Vec<F>,
    workers: usize,
    timeout: Option<Duration>,
) -> Vec<PoolResult<T>>
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let jobs: Vec<_> = jobs.into_iter().map(|job| move |_: u32| job()).collect();
    run_with_retry(jobs, workers, timeout, &RetryPolicy::default())
}

/// The blocks workers claim: `blocks` (the ascending end index of each
/// caller block) with every block longer than ⌈len / (4 × workers)⌉
/// cut into pieces of at most that size, so a call with one or two long
/// blocks still keeps every worker busy.
fn claims(blocks: &[usize], workers: usize) -> Vec<Range<usize>> {
    let most = blocks
        .last()
        .map_or(1, |n| n.div_ceil(4 * workers.max(1)).max(1));
    let mut claims = Vec::with_capacity(blocks.len());
    let mut start = 0;
    for &end in blocks {
        while start < end {
            claims.push(start..end.min(start + most));
            start = end.min(start + most);
        }
    }
    claims
}

/// What the workers of one [`stream`] call share.
struct Shared<J> {
    job: J,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    /// The blocks, claimed in order through `next`.
    claims: Vec<Range<usize>>,
    next: AtomicUsize,
    /// The first unfinished claim and which claims have finished, and
    /// its change signal.
    finished: Mutex<(usize, Vec<bool>)>,
    moved: Condvar,
    /// How far past the first unfinished claim's start a claim may
    /// start: workers × largest block.
    span: usize,
}

impl<J> Shared<J> {
    /// The next unclaimed block and its number, once it lies inside the
    /// window; `None` past the last block.
    fn claim(&self) -> Option<(usize, Range<usize>)> {
        let number = self.next.fetch_add(1, Ordering::Relaxed);
        let block = self.claims.get(number)?;
        let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let anchor = self.claims.get(finished.0).map_or(usize::MAX, |c| c.start);
            if block.start <= anchor.saturating_add(self.span) {
                return Some((number, block.clone()));
            }
            finished = self
                .moved
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks claim `number` finished.
    fn finish(&self, number: usize) {
        let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        let (first, done) = &mut *finished;
        done[number] = true;
        while done.get(*first) == Some(&true) {
            *first += 1;
        }
        self.moved.notify_all();
    }
}

/// Runs `job` over the indices `0..len` on `workers` threads, where
/// `blocks` holds the ascending end index of each block (`len` is the
/// last), and hands each job's final [`PoolResult`] to `on_result` on
/// the calling thread, in index order, while the workers keep running.
/// A worker claims a whole block and runs its jobs in order; blocks are
/// split and claims are windowed as the [module docs](self) describe.
///
/// `workers` = 0 means the host's available parallelism
/// ([`resolve_workers`]); the count is then clamped to the number of
/// blocks claimed (a zero-job call returns immediately). `timeout`
/// bounds each attempt's wall-clock time. A `Panicked` or `TimedOut`
/// attempt is retried in place by the same worker, with attempt + 1
/// after `retry`'s backoff for that attempt, until
/// `retry.max_attempts`; only the last attempt is reported.
///
/// The first error `on_result` returns stops the run: no further block
/// is claimed, jobs already running or waiting in the buffer are
/// discarded, and the error is returned.
///
/// Degrades rather than panics: a worker thread the OS refuses to spawn
/// leaves its share to the workers that did start, and if *every* spawn
/// fails the calling thread runs the jobs itself before reporting them.
///
/// # Errors
///
/// Returns the first error `on_result` returned.
pub fn stream<T, E>(
    blocks: &[usize],
    workers: usize,
    timeout: Option<Duration>,
    retry: &RetryPolicy,
    job: impl Fn(usize, u32) -> T + Send + Sync + 'static,
    mut on_result: impl FnMut(PoolResult<T>) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send + 'static,
{
    let workers = resolve_workers(workers).min(blocks.last().copied().unwrap_or(0));
    let claims = claims(blocks, workers);
    let workers = workers.min(claims.len());
    let largest = claims.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
    let shared = Arc::new(Shared {
        job,
        timeout,
        retry: retry.clone(),
        finished: Mutex::new((0, vec![false; claims.len()])),
        claims,
        next: AtomicUsize::new(0),
        moved: Condvar::new(),
        span: workers * largest,
    });

    let (result_tx, result_rx) = mpsc::channel::<PoolResult<T>>();
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        let (shared, result_tx) = (Arc::clone(&shared), result_tx.clone());
        let spawned = thread::Builder::new()
            .name(format!("fcdpm-worker-{worker}"))
            .spawn(move || worker_loop(worker, &shared, &result_tx));
        if let Ok(handle) = spawned {
            handles.push(handle);
        }
    }
    if handles.is_empty() {
        // The OS refused every worker thread — drain inline so the run
        // still completes. The window never holds it back: the first
        // unfinished claim is always the one it is running.
        worker_loop(0, &shared, &result_tx);
    }
    drop(result_tx);

    let mut due = 0;
    let mut ahead = BTreeMap::new();
    let outcome = result_rx.iter().try_for_each(|result| {
        ahead.insert(result.index, result);
        while let Some(ready) = ahead.remove(&due) {
            due += 1;
            on_result(ready)?;
        }
        Ok(())
    });
    if outcome.is_err() {
        // Stop claiming: every later block reads as past the end.
        shared.next.store(shared.claims.len(), Ordering::Relaxed);
    }
    drop(result_rx);
    for handle in handles {
        let _ = handle.join();
    }
    outcome
}

/// Renders a `catch_unwind` payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Runs attempt `attempt` of job `index` under `catch_unwind`, on a
/// detached scratch thread when a timeout applies.
fn run_guarded<T, J>(shared: &Arc<Shared<J>>, index: usize, attempt: u32) -> Execution<T>
where
    J: Fn(usize, u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    match shared.timeout {
        None => match catch_unwind(AssertUnwindSafe(|| (shared.job)(index, attempt))) {
            Ok(value) => Execution::Completed(value),
            Err(payload) => Execution::Panicked(panic_message(payload)),
        },
        Some(limit) => {
            // A scratch thread per timed job: the only portable way to
            // abandon a stuck computation without unsafe cancellation.
            let (tx, rx) = mpsc::channel();
            let shared = Arc::clone(shared);
            let handle = thread::Builder::new()
                .name("fcdpm-job".to_owned())
                .spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| (shared.job)(index, attempt)));
                    let _ = tx.send(outcome);
                });
            let Ok(_handle) = handle else {
                return Execution::Panicked("cannot spawn job thread".to_owned());
            };
            match rx.recv_timeout(limit) {
                Ok(Ok(value)) => Execution::Completed(value),
                Ok(Err(payload)) => Execution::Panicked(panic_message(payload)),
                Err(_) => Execution::TimedOut,
            }
        }
    }
}

/// The pool's one worker loop: claim the next block, run its jobs in
/// order (retrying a failed attempt in place) and report each, repeat
/// until the claims run out or the caller stops listening.
#[allow(
    clippy::disallowed_methods,
    reason = "times each job for the result's wall, which no payload folds"
)]
fn worker_loop<T, J>(
    worker: usize,
    shared: &Arc<Shared<J>>,
    result_tx: &mpsc::Sender<PoolResult<T>>,
) where
    J: Fn(usize, u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let retry = &shared.retry;
    while let Some((number, block)) = shared.claim() {
        let listened = block.into_iter().all(|index| {
            let mut attempts = 1;
            let mut wall = Duration::ZERO;
            let execution = loop {
                let start = Instant::now();
                let execution = run_guarded(shared, index, attempts);
                wall += start.elapsed();
                let retryable = matches!(execution, Execution::Panicked(_) | Execution::TimedOut);
                if !retryable || attempts >= retry.max_attempts {
                    break execution;
                }
                attempts += 1;
                let delay = retry.delay_before(attempts);
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
            };
            let result = PoolResult {
                index,
                execution,
                attempts,
                wall,
                worker,
            };
            result_tx.send(result).is_ok()
        });
        // A block cut short because the caller stopped listening still
        // finishes, so a worker waiting behind it wakes and stops too.
        shared.finish(number);
        if !listened {
            return;
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests bound their waits and log when attempts ran"
)]
mod tests {
    use super::*;

    /// A random partition of `0..count` into blocks, as ascending end
    /// indices: mostly one to four jobs each, and in some calls one
    /// block longer than `count / workers`.
    fn partition(rng: &mut u64, count: usize, workers: usize) -> Vec<usize> {
        let mut below = |n: usize| {
            *rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (*rng >> 33) as usize % n
        };
        let mut long = Some(count / workers + 1);
        let mut ends = Vec::new();
        while ends.last().copied().unwrap_or(0) < count {
            let len = match below(8) {
                0 => long.take().unwrap_or(1),
                _ => 1 + below(4),
            };
            ends.push(count.min(ends.last().copied().unwrap_or(0) + len));
        }
        ends
    }

    /// Jobs sleep a jittered while, so with two or more workers they
    /// finish out of index order; under the retry policy every third
    /// job also fails its first attempt and reruns in place, falling
    /// further behind. Over random block partitions, `stream` must
    /// still report each index exactly once, strictly increasing, on
    /// the calling thread, from a worker below the clamped worker
    /// count, after exactly the attempts the job asked for, and every
    /// index of one claimed block from the same worker.
    #[test]
    fn stream_reports_each_index_once_in_order_on_the_calling_thread() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        let caller = thread::current().id();
        let retries = RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        };
        let mut rng = 0x5EED;
        // Set once some job finishes after a higher index did.
        let overtaken = Arc::new(AtomicBool::new(false));
        for retry in [RetryPolicy::default(), retries] {
            for workers in 1..=8 {
                for count in 0..=64usize {
                    let blocks = partition(&mut rng, count, workers);
                    let runs: Arc<Vec<AtomicU32>> =
                        Arc::new((0..count).map(|_| AtomicU32::new(0)).collect());
                    let finished = Arc::new(AtomicUsize::new(0));
                    let flaky = retry.max_attempts > 1;
                    let attempts_of =
                        move |i: usize| if flaky && i.is_multiple_of(3) { 2 } else { 1 };
                    let job = {
                        let (runs, overtaken) = (Arc::clone(&runs), Arc::clone(&overtaken));
                        move |i: usize, attempt: u32| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            let jitter = (i * 7 + count) % 5;
                            thread::sleep(Duration::from_micros(50 * jitter as u64));
                            if attempt < attempts_of(i) {
                                // Fails without running the panic hook,
                                // so the retries stay quiet.
                                std::panic::resume_unwind(Box::new("transient"));
                            }
                            if finished.fetch_max(i + 1, Ordering::SeqCst) > i + 1 {
                                overtaken.store(true, Ordering::SeqCst);
                            }
                            (i, attempt)
                        }
                    };
                    let mut ran_on = Vec::new();
                    let streamed = stream(&blocks, workers, None, &retry, job, |r| {
                        assert_eq!(thread::current().id(), caller, "callback off the caller");
                        assert_eq!(r.index, ran_on.len(), "{workers} workers, {count} jobs");
                        ran_on.push(r.worker);
                        assert!(r.worker < workers.min(count));
                        let attempts = attempts_of(r.index);
                        assert_eq!(r.attempts, attempts);
                        assert!(matches!(
                            r.execution,
                            Execution::Completed((i, a)) if i == r.index && a == attempts
                        ));
                        Ok::<(), ()>(())
                    });
                    assert!(streamed.is_ok(), "{workers} workers, {count} jobs");
                    assert_eq!(ran_on.len(), count, "{workers} workers, {count} jobs");
                    assert!(runs
                        .iter()
                        .enumerate()
                        .all(|(i, n)| n.load(Ordering::Relaxed) == attempts_of(i)));
                    for block in claims(&blocks, workers.min(count)) {
                        let worker = ran_on[block.start];
                        assert!(
                            ran_on[block].iter().all(|&w| w == worker),
                            "a block split across workers: {blocks:?}"
                        );
                    }
                }
            }
        }
        assert!(
            overtaken.load(Ordering::SeqCst),
            "no job finished out of order"
        );
    }

    /// Job 0 stalls until released, at two workers: the other worker
    /// runs ahead only as far as the claim window lets it, so the jobs
    /// started before the release stay within `workers × largest
    /// block` of index 0, plus the block that reaches that far.
    #[test]
    fn a_stalled_job_holds_the_others_within_the_claim_window() {
        use std::sync::atomic::AtomicBool;
        let (workers, block, count) = (2, 3, 60);
        let blocks: Vec<usize> = (1..=count / block).map(|b| b * block).collect();
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let job = {
            let (started, release) = (Arc::clone(&started), Arc::clone(&release));
            move |index: usize, _: u32| {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while index == 0 && !release.load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                }
                index
            }
        };
        // Once the other worker is under way and the count has stopped
        // rising, note it and release job 0.
        let watcher = thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            let mut seen = 0;
            loop {
                thread::sleep(Duration::from_millis(50));
                let now = started.load(Ordering::SeqCst);
                if now == seen {
                    break;
                }
                seen = now;
            }
            release.store(true, Ordering::SeqCst);
            seen
        });
        let mut due = 0;
        let streamed = stream(&blocks, workers, None, &RetryPolicy::default(), job, |r| {
            assert_eq!(r.index, due);
            due += 1;
            Ok::<(), ()>(())
        });
        let seen = watcher.join().expect("watcher");
        assert!(streamed.is_ok());
        assert_eq!(due, count);
        let bound = workers * block + block;
        assert!(
            seen <= bound,
            "{seen} jobs started behind a stalled job 0 (bound {bound})"
        );
        assert!(seen > block, "the other worker never ran ahead: {seen}");
    }

    #[test]
    fn callback_error_stops_the_stream() {
        let blocks: Vec<usize> = (1..=1000).collect();
        let mut reported = 0;
        let job = |i: usize, _: u32| i;
        let streamed = stream(&blocks, 2, None, &RetryPolicy::default(), job, |_| {
            reported += 1;
            if reported == 3 {
                Err("disk full")
            } else {
                Ok(())
            }
        });
        assert_eq!(streamed, Err("disk full"));
        assert_eq!(reported, 3, "no result is reported after the error");
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        // Every job holds its worker until `want` jobs run at once (or
        // a deadline passes), so each of `want` workers takes exactly
        // one job — unless fewer workers were started.
        let want = thread::available_parallelism().map_or(1, usize::from);
        let running = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..want)
            .map(|_| {
                let running = Arc::clone(&running);
                move || {
                    running.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while running.load(Ordering::SeqCst) < want && Instant::now() < deadline {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
            })
            .collect();
        let results = run_to_completion(jobs, 0, None);
        let mut workers: Vec<usize> = results.iter().map(|r| r.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(
            workers.len(),
            want,
            "0 workers ran on {} threads",
            workers.len()
        );
    }

    #[test]
    fn only_zero_workers_resolves_to_the_host() {
        let host = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(resolve_workers(0), host);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn retries_are_deterministic_and_wait_out_their_backoff() {
        // Job i fails its first i % 3 attempts; every attempt logs when
        // it ran.
        use std::sync::Mutex;
        let backoff = Duration::from_millis(20);
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff,
        };
        for workers in [1, 2, 4] {
            let log: Arc<Vec<Mutex<Vec<Instant>>>> =
                Arc::new((0..6).map(|_| Mutex::default()).collect());
            let jobs: Vec<_> = (0..6u32)
                .map(|i| {
                    let log = Arc::clone(&log);
                    move |attempt: u32| {
                        log[i as usize].lock().unwrap().push(Instant::now());
                        assert!(attempt > i % 3, "transient fault on attempt {attempt}");
                        i
                    }
                })
                .collect();
            let results = run_with_retry(jobs, workers, None, &retry);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.attempts, i as u32 % 3 + 1, "job {i}, {workers} workers");
                assert!(matches!(r.execution, Execution::Completed(v) if v as usize == i));
                let attempts = log[i].lock().unwrap();
                assert_eq!(attempts.len(), r.attempts as usize);
                for (a, pair) in attempts.windows(2).enumerate() {
                    let waited = pair[1] - pair[0];
                    let owed = retry.delay_before(a as u32 + 2);
                    assert!(
                        waited >= owed,
                        "job {i} retried after {waited:?} < {owed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn timeout_abandons_stuck_job() {
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| {
                thread::sleep(Duration::from_secs(30));
                0
            }),
            Box::new(|| 7),
        ];
        let results = run_to_completion(jobs, 2, Some(Duration::from_millis(50)));
        assert!(matches!(results[0].execution, Execution::TimedOut));
        assert!(matches!(results[1].execution, Execution::Completed(7)));
    }

    #[test]
    fn persistent_failure_exhausts_attempts_and_keeps_order() {
        let jobs: Vec<Box<dyn Fn(u32) -> u32 + Send + Sync>> = vec![
            Box::new(|_| 1),
            Box::new(|_| panic!("always broken")),
            Box::new(|_| 3),
        ];
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        let results = run_with_retry(jobs, 2, None, &retry);
        assert_eq!(results[1].attempts, 3, "gave up after max_attempts");
        match &results[1].execution {
            Execution::Panicked(msg) => assert!(msg.contains("always broken")),
            other => panic!("expected panic, got {other:?}"),
        }
        assert!(matches!(results[0].execution, Execution::Completed(1)));
        assert!(matches!(results[2].execution, Execution::Completed(3)));
        assert!(results.iter().enumerate().all(|(i, r)| r.index == i));
    }

    #[test]
    fn default_retry_policy_is_a_single_attempt() {
        let jobs: Vec<Box<dyn Fn(u32) -> u32 + Send + Sync>> =
            vec![Box::new(|_| panic!("no second chance"))];
        let results = run_with_retry(jobs, 1, None, &RetryPolicy::default());
        assert_eq!(results[0].attempts, 1);
        assert!(matches!(results[0].execution, Execution::Panicked(_)));
    }
}
