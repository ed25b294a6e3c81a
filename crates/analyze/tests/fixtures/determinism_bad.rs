//! Positive fixture: every determinism hazard the rule must catch.
//! Analyzed under a synthetic `crates/sim/src/...` path by
//! `workspace.rs`.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn hazards() {
    let started = Instant::now();
    let _ = SystemTime::now();
    let mut seen: HashMap<u32, u32> = HashMap::new();
    seen.insert(1, 2);
    let mut set: HashSet<u32> = HashSet::new();
    set.insert(3);
    let _ = started;
}
