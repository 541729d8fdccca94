//! The calibration kernel: a fixed amount of work that uses no workspace
//! code, so its time measures only the machine's speed at that moment.
//!
//! `run.py` runs it in its own process between job repetitions and divides
//! every end-to-end time by it (see `perfbench/README.md`). It mimics an
//! explore job's mix at a fixed size: small-vector clones, a short sort (a
//! canonical form), hashing, and inserts into a seen-set that grows to
//! about 12 MiB.

use crate::stats::{Json, SplitMix};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// States the kernel generates; about 0.1 s on the machine the bounds were
/// set on.
const STATES: u64 = 250_000;
/// Bytes per generated state.
const STATE_BYTES: usize = 24;

/// Runs the kernel once and reports a checksum that must be the same on
/// every run. The caller times the process.
pub fn calibrate() -> Json {
    let mut rng = SplitMix(0xCA11_B8A7_E000_0001);
    let mut seen: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut state = vec![0u8; STATE_BYTES];
    let mut checksum = 0u64;
    for _ in 0..STATES {
        let mut next = state.clone();
        let at = rng.below(STATE_BYTES);
        next[at] = next[at].wrapping_add(rng.next() as u8);
        let mut canonical = next.clone();
        canonical[..8].sort_unstable();
        let mut hasher = DefaultHasher::new();
        hasher.write(&canonical);
        let key = hasher.finish();
        if seen.insert(key, canonical).is_none() {
            checksum = checksum.wrapping_add(key);
        }
        // Walk on, restarting from a visited state now and then.
        state = if rng.below(8) == 0 { vec![0u8; STATE_BYTES] } else { next };
    }
    let mut out = Json::default();
    out.int("states", seen.len() as u64)
        .str("checksum", &format!("{checksum:016x}"));
    out
}
