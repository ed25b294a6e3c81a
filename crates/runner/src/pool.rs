//! Dependency-light worker pool.
//!
//! `std::thread` + `std::sync` only — the build environment cannot
//! always reach a package registry, so no external executor crates.
//!
//! The jobs sit in one shared slice, and workers claim them in index
//! order from a single atomic counter: each `fetch_add` hands out the
//! next unclaimed index, so every job runs exactly once and there is
//! no queue and no lock. Jobs are coarse-grained simulations, so the
//! one contended cache line costs nothing measurable.
//!
//! Every job runs under `catch_unwind`: a panicking job is reported as
//! [`Execution::Panicked`] and the rest of the run continues. An
//! optional per-job wall-clock timeout runs the job on a detached
//! scratch thread and gives up waiting after the deadline
//! ([`Execution::TimedOut`]); the abandoned thread cannot be killed but
//! its result is discarded.

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

/// One job's execution plus scheduling metadata.
#[derive(Debug)]
pub struct PoolResult<T> {
    /// Index of the job in the submitted vector.
    pub index: usize,
    /// How the execution ended.
    pub execution: Execution<T>,
    /// Wall-clock time the job (or its timed-out portion) took.
    pub wall: Duration,
    /// Index of the worker that ran the job.
    pub worker: usize,
}

/// How [`run_with_retry`] treats `Panicked`/`TimedOut` executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per job (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles each further round
    /// (exponential backoff), shared by the whole retry round.
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

/// One job's final execution under a [`RetryPolicy`].
#[derive(Debug)]
pub struct RetryResult<T> {
    /// Index of the job in the submitted vector.
    pub index: usize,
    /// How the last attempt ended.
    pub execution: Execution<T>,
    /// Executions the job took (1 = succeeded or gave up first try).
    pub attempts: u32,
    /// Wall-clock time summed over every attempt.
    pub wall: Duration,
}

/// Runs `jobs` like [`run_to_completion`], then re-runs any job whose
/// execution ended `Panicked` or `TimedOut`, up to
/// `retry.max_attempts` total executions per job, sleeping
/// `retry.backoff * 2^(round-1)` between rounds. Each attempt invokes
/// the job closure with the 1-based attempt number, so a job can model
/// transient faults (fail on attempt 1, recover on attempt 2).
///
/// Results come back ordered by job index regardless of scheduling or
/// retry history, so downstream artifacts stay deterministic.
#[must_use]
pub fn run_with_retry<T, F>(
    jobs: Vec<F>,
    workers: usize,
    timeout: Option<Duration>,
    retry: &RetryPolicy,
) -> Vec<RetryResult<T>>
where
    F: Fn(u32) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let jobs: Vec<Arc<F>> = jobs.into_iter().map(Arc::new).collect();
    let mut results: Vec<Option<RetryResult<T>>> = jobs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..jobs.len()).collect();
    let max_attempts = retry.max_attempts.max(1);
    for attempt in 1..=max_attempts {
        if pending.is_empty() {
            break;
        }
        if attempt > 1 && !retry.backoff.is_zero() {
            let doublings = (attempt - 2).min(16);
            thread::sleep(retry.backoff.saturating_mul(1u32 << doublings));
        }
        let round: Vec<_> = pending
            .iter()
            .map(|&index| {
                let job = Arc::clone(&jobs[index]);
                move || job(attempt)
            })
            .collect();
        let mut still_failing = Vec::new();
        for result in run_to_completion(round, workers, timeout) {
            let index = pending[result.index];
            let spent = results[index].as_ref().map_or(Duration::ZERO, |r| r.wall);
            let retryable = matches!(
                result.execution,
                Execution::Panicked(_) | Execution::TimedOut
            );
            results[index] = Some(RetryResult {
                index,
                execution: result.execution,
                attempts: attempt,
                wall: spent + result.wall,
            });
            if retryable && attempt < max_attempts {
                still_failing.push(index);
            }
        }
        pending = still_failing;
    }
    results.into_iter().flatten().collect()
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

/// Runs `jobs[index]` under `catch_unwind`, on a detached scratch
/// thread when a timeout applies.
fn run_guarded<T, F>(jobs: &Arc<[F]>, index: usize, timeout: Option<Duration>) -> Execution<T>
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(&jobs[index])) {
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
                    let outcome = catch_unwind(AssertUnwindSafe(&jobs[index]));
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

/// One worker's loop: claim the next unclaimed index, run it, repeat
/// until the counter passes the last job.
fn worker_loop<T, F>(
    worker: usize,
    jobs: &Arc<[F]>,
    next: &AtomicUsize,
    result_tx: &mpsc::Sender<PoolResult<T>>,
    timeout: Option<Duration>,
) where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= jobs.len() {
            return;
        }
        let start = Instant::now();
        let execution = run_guarded(jobs, index, timeout);
        let result = PoolResult {
            index,
            execution,
            wall: start.elapsed(),
            worker,
        };
        if result_tx.send(result).is_err() {
            return;
        }
    }
}

/// Runs `jobs` on `workers` threads and returns the results ordered by
/// job index, regardless of scheduling.
///
/// `workers` is clamped to `1..=jobs.len()` (a zero-job call returns
/// immediately). `timeout` bounds each job's wall-clock time.
///
/// Degrades rather than panics: a worker thread the OS refuses to spawn
/// leaves its share to the workers that did start, and if *every* spawn
/// fails the calling thread runs the jobs itself.
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
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    let jobs: Arc<[F]> = jobs.into();
    let next = Arc::new(AtomicUsize::new(0));

    let (result_tx, result_rx) = mpsc::channel::<PoolResult<T>>();
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        let jobs = Arc::clone(&jobs);
        let next = Arc::clone(&next);
        let result_tx = result_tx.clone();
        let spawned = thread::Builder::new()
            .name(format!("fcdpm-worker-{worker}"))
            .spawn(move || worker_loop(worker, &jobs, &next, &result_tx, timeout));
        if let Ok(handle) = spawned {
            handles.push(handle);
        }
    }
    if handles.is_empty() {
        // The OS refused every worker thread — drain inline so the run
        // still completes.
        worker_loop(0, &jobs, &next, &result_tx, timeout);
    }
    drop(result_tx);

    let mut results: Vec<PoolResult<T>> = result_rx.iter().collect();
    for handle in handles {
        let _ = handle.join();
    }
    results.sort_by_key(|r| r.index);
    results
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
