//! Seeded lock-discipline violations: an A↔B acquisition-order
//! inversion, two instances of an indexed lock family held at once, a
//! job closure run under a guard, and a raw `unwrap` next to the
//! poison-tolerant idiom. Paired with `locks_acyclic.rs`; checked by
//! `workspace.rs` against the path `crates/runner/src/pool.rs`. Never
//! compiled.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock_deque<T>(m: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires `first` then `second`…
pub fn transfer_ab(first: &Mutex<VecDeque<u64>>, second: &Mutex<VecDeque<u64>>) {
    let a = lock_deque(first);
    let b = lock_deque(second);
    move_between(a, b);
}

/// …while this path acquires `second` then `first`: a cycle.
pub fn transfer_ba(first: &Mutex<VecDeque<u64>>, second: &Mutex<VecDeque<u64>>) {
    let b = lock_deque(second);
    let a = lock_deque(first);
    move_between(b, a);
}

/// Two members of the same indexed family held at once: two workers
/// doing this concurrently with swapped indices deadlock.
pub fn rebalance(deques: &[Mutex<VecDeque<u64>>], i: usize, j: usize) {
    let a = lock_deque(&deques[i]);
    let b = lock_deque(&deques[j]);
    swap_halves(a, b);
}

/// A job closure runs while the deque guard is still held: a panicking
/// job poisons the lock.
pub fn drain_under_guard(deques: &[Mutex<VecDeque<u64>>], worker: usize) {
    let guard = lock_deque(&deques[worker]);
    let outcome = run_guarded(job, None);
    record(guard, outcome);
}

/// Raw `unwrap` in a file that elsewhere tolerates poisoning (the
/// panic-policy half of this line is allowed so only the lock rule
/// fires).
pub fn peek_len(m: &Mutex<VecDeque<u64>>) -> usize {
    m.lock().unwrap().len() // fcdpm-lint: allow(panic-policy)
}
