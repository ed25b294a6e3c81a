//! Dependency-light worker pool.
//!
//! `std::thread` + `std::sync` only — the build environment cannot
//! always reach a package registry, so no external executor crates.
//!
//! There is one pool primitive, [`stream`]. The jobs sit in one shared
//! slice, and workers claim them in index order from a single atomic
//! counter: each `fetch_add` hands out the next unclaimed index, so
//! every job runs exactly once and there is no queue and no lock. Jobs
//! are coarse-grained simulations, so the one contended cache line
//! costs nothing measurable. Each finished job is handed to a callback
//! on the *calling* thread, in completion order, while the workers keep
//! computing — so the caller can commit results (the grid engine's
//! fsync'd checkpoint) without a barrier. [`run_with_retry`] and
//! [`run_to_completion`] collect that stream and sort it by index.
//!
//! Every job runs under `catch_unwind`: a panicking job is reported as
//! [`Execution::Panicked`] and the rest of the run continues. An
//! optional per-job wall-clock timeout runs the job on a detached
//! scratch thread and gives up waiting after the deadline
//! ([`Execution::TimedOut`]); the abandoned thread cannot be killed but
//! its result is discarded. Under a [`RetryPolicy`] the worker that ran
//! a failed attempt retries it in place, after that job's own backoff.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
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
    /// Index of the job in the submitted vector.
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
    let mut results = Vec::with_capacity(jobs.len());
    let Ok(()) = stream(jobs, workers, timeout, retry, |result| {
        results.push(result);
        Ok::<(), Infallible>(())
    });
    results.sort_by_key(|r| r.index);
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

/// Runs `jobs` on `workers` threads and hands each job's final
/// [`PoolResult`] to `on_result` on the calling thread, in completion
/// order, while the workers keep running.
///
/// `workers` = 0 means the host's available parallelism
/// ([`resolve_workers`]); the count is then clamped to `1..=jobs.len()`
/// (a zero-job call returns immediately). `timeout` bounds each
/// attempt's wall-clock time. A `Panicked` or `TimedOut` attempt is
/// retried in place by the same worker, with attempt + 1 after
/// `retry`'s backoff for that attempt, until `retry.max_attempts`;
/// only the last attempt is reported.
///
/// The first error `on_result` returns stops the run: no further job
/// is claimed, jobs already running finish and are discarded, and the
/// error is returned.
///
/// Degrades rather than panics: a worker thread the OS refuses to spawn
/// leaves its share to the workers that did start, and if *every* spawn
/// fails the calling thread runs the jobs itself before reporting them.
///
/// # Errors
///
/// Returns the first error `on_result` returned.
pub fn stream<T, F, E>(
    jobs: Vec<F>,
    workers: usize,
    timeout: Option<Duration>,
    retry: &RetryPolicy,
    mut on_result: impl FnMut(PoolResult<T>) -> Result<(), E>,
) -> Result<(), E>
where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    if jobs.is_empty() {
        return Ok(());
    }
    let workers = resolve_workers(workers).min(jobs.len());
    let jobs: Arc<[F]> = jobs.into();
    let next = Arc::new(AtomicUsize::new(0));

    let (result_tx, result_rx) = mpsc::channel::<PoolResult<T>>();
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        let jobs = Arc::clone(&jobs);
        let next = Arc::clone(&next);
        let result_tx = result_tx.clone();
        let retry = retry.clone();
        let spawned = thread::Builder::new()
            .name(format!("fcdpm-worker-{worker}"))
            .spawn(move || worker_loop(worker, &jobs, &next, &result_tx, timeout, &retry));
        if let Ok(handle) = spawned {
            handles.push(handle);
        }
    }
    if handles.is_empty() {
        // The OS refused every worker thread — drain inline so the run
        // still completes.
        worker_loop(0, &jobs, &next, &result_tx, timeout, retry);
    }
    drop(result_tx);

    let mut outcome = Ok(());
    for result in &result_rx {
        if let Err(error) = on_result(result) {
            // Stop claiming: every later index reads as past the end.
            next.store(jobs.len(), Ordering::Relaxed);
            outcome = Err(error);
            break;
        }
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

/// Runs attempt `attempt` of `jobs[index]` under `catch_unwind`, on a
/// detached scratch thread when a timeout applies.
fn run_guarded<T, F>(
    jobs: &Arc<[F]>,
    index: usize,
    attempt: u32,
    timeout: Option<Duration>,
) -> Execution<T>
where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(|| jobs[index](attempt))) {
            Ok(value) => Execution::Completed(value),
            Err(payload) => Execution::Panicked(panic_message(payload)),
        },
        Some(limit) => {
            // A scratch thread per timed job: the only portable way to
            // abandon a stuck computation without unsafe cancellation.
            let (tx, rx) = mpsc::channel();
            let jobs = Arc::clone(jobs);
            let handle = thread::Builder::new()
                .name("fcdpm-job".to_owned())
                .spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| jobs[index](attempt)));
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

/// The pool's one worker loop: claim the next unclaimed index, run it
/// (retrying a failed attempt in place), report it, repeat until the
/// counter passes the last job or the caller stops listening.
fn worker_loop<T, F>(
    worker: usize,
    jobs: &Arc<[F]>,
    next: &AtomicUsize,
    result_tx: &mpsc::Sender<PoolResult<T>>,
    timeout: Option<Duration>,
    retry: &RetryPolicy,
) where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let max_attempts = retry.max_attempts.max(1);
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= jobs.len() {
            return;
        }
        let mut attempts = 1;
        let mut wall = Duration::ZERO;
        let execution = loop {
            let start = Instant::now();
            let execution = run_guarded(jobs, index, attempts, timeout);
            wall += start.elapsed();
            let retryable = matches!(execution, Execution::Panicked(_) | Execution::TimedOut);
            if !retryable || attempts == max_attempts {
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
        if result_tx.send(result).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_index() {
        let jobs: Vec<Box<dyn Fn() -> usize + Send + Sync>> = (0usize..20)
            .map(|i| Box::new(move || i * i) as Box<dyn Fn() -> usize + Send + Sync>)
            .collect();
        let results = run_to_completion(jobs, 4, None);
        assert_eq!(results.len(), 20);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            match &r.execution {
                Execution::Completed(v) => assert_eq!(*v, i * i),
                other => panic!("job {i} did not complete: {other:?}"),
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once_in_index_order() {
        use std::sync::atomic::AtomicU32;
        for workers in 1..=8 {
            for count in 0..=64usize {
                let runs: Arc<Vec<AtomicU32>> =
                    Arc::new((0..count).map(|_| AtomicU32::new(0)).collect());
                let jobs: Vec<_> = (0..count)
                    .map(|i| {
                        let runs = Arc::clone(&runs);
                        move || {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            i
                        }
                    })
                    .collect();
                let results = run_to_completion(jobs, workers, None);
                assert_eq!(results.len(), count, "{workers} workers, {count} jobs");
                for (i, r) in results.iter().enumerate() {
                    assert_eq!(r.index, i);
                    assert!(r.worker < workers.min(count));
                    assert!(matches!(r.execution, Execution::Completed(v) if v == i));
                }
                assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn stream_reports_every_index_once_on_the_calling_thread() {
        use std::sync::atomic::AtomicU32;
        let caller = thread::current().id();
        for workers in 1..=8 {
            for count in 0..=64usize {
                let runs: Arc<Vec<AtomicU32>> =
                    Arc::new((0..count).map(|_| AtomicU32::new(0)).collect());
                let jobs: Vec<_> = (0..count)
                    .map(|i| {
                        let runs = Arc::clone(&runs);
                        move |attempt: u32| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            (i, attempt)
                        }
                    })
                    .collect();
                let mut seen = vec![0u32; count];
                let streamed = stream(jobs, workers, None, &RetryPolicy::default(), |r| {
                    assert_eq!(thread::current().id(), caller, "callback off the caller");
                    assert!(r.worker < workers.min(count));
                    assert_eq!(r.attempts, 1);
                    assert!(matches!(r.execution, Execution::Completed((i, 1)) if i == r.index));
                    seen[r.index] += 1;
                    Ok::<(), ()>(())
                });
                assert!(streamed.is_ok(), "{workers} workers, {count} jobs");
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "{workers} workers, {count} jobs"
                );
                assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn callback_error_stops_the_stream() {
        let jobs: Vec<_> = (0..1000usize).map(|i| move |_: u32| i).collect();
        let mut reported = 0;
        let streamed = stream(jobs, 2, None, &RetryPolicy::default(), |_| {
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
    fn panicking_job_is_isolated() {
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("deliberate")),
            Box::new(|| 3),
        ];
        let results = run_to_completion(jobs, 2, None);
        assert!(matches!(results[0].execution, Execution::Completed(1)));
        match &results[1].execution {
            Execution::Panicked(msg) => assert!(msg.contains("deliberate")),
            other => panic!("expected panic, got {other:?}"),
        }
        assert!(matches!(results[2].execution, Execution::Completed(3)));
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
    fn single_worker_handles_everything() {
        let jobs: Vec<Box<dyn Fn() -> usize + Send + Sync>> = (0usize..7)
            .map(|i| Box::new(move || i) as Box<dyn Fn() -> usize + Send + Sync>)
            .collect();
        let results = run_to_completion(jobs, 1, None);
        assert!(results.iter().all(|r| r.worker == 0));
        assert_eq!(results.len(), 7);
    }

    #[test]
    fn worker_count_is_clamped() {
        let jobs: Vec<Box<dyn Fn() -> usize + Send + Sync>> =
            vec![Box::new(|| 5usize) as Box<dyn Fn() -> usize + Send + Sync>];
        let results = run_to_completion(jobs, 64, None);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<PoolResult<u32>> =
            run_to_completion(Vec::<Box<dyn Fn() -> u32 + Send + Sync>>::new(), 4, None);
        assert!(results.is_empty());
    }

    #[test]
    fn transient_panic_succeeds_within_max_attempts() {
        // Job 1 models a transient fault: it panics on attempt 1 and
        // recovers on attempt 2, driven purely by the attempt number.
        let jobs: Vec<Box<dyn Fn(u32) -> u32 + Send + Sync>> = vec![
            Box::new(|_| 10),
            Box::new(|attempt| {
                assert!(attempt > 1, "transient fault");
                20
            }),
            Box::new(|_| 30),
        ];
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        let results = run_with_retry(jobs, 2, None, &retry);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].attempts, 1);
        assert_eq!(results[1].attempts, 2, "retried exactly once");
        assert_eq!(results[2].attempts, 1);
        for (i, want) in [(0usize, 10u32), (1, 20), (2, 30)] {
            match &results[i].execution {
                Execution::Completed(v) => assert_eq!(*v, want),
                other => panic!("job {i} did not complete: {other:?}"),
            }
        }
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
