//! Interference gates that no explorer calls.
//!
//! These names exist only for the repository benchmark (`perfbench/`):
//! its layer timings call [`persistent_set`], [`successor_sleep`],
//! [`mask_of`] and [`orders_commute`], and its explore workloads pass
//! [`ReductionMode`] on to
//! [`ParallelExploreConfig::reduction`](crate::ParallelExploreConfig::reduction).
//! They go when the benchmark drops those timings (`ROADMAP.md`, item 2).

use crate::executor::Executor;
use crate::explore::state_key;
use sa_model::{independent, Automaton, ProcessId};
use std::fmt::Debug;
use std::hash::Hash;

/// The partial-order reduction an exploration requests. No explorer applies
/// one, so [`Off`](ReductionMode::Off) is the only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReductionMode {
    /// Every enabled transition of every visited state is expanded.
    #[default]
    Off,
}

impl ReductionMode {
    /// A stable label used by records and CLIs.
    pub fn label(&self) -> &'static str {
        match self {
            ReductionMode::Off => "off",
        }
    }

    /// Parses [`ReductionMode::label`] output.
    pub fn parse(text: &str) -> Option<ReductionMode> {
        match text {
            "off" => Some(ReductionMode::Off),
            _ => None,
        }
    }
}

/// One process's bit in a `u64` process mask, checked: `None` for
/// `p.index() >= 64`. The single chokepoint every mask builder below goes
/// through — `1u64 << p.index()` alone is a masked shift in release builds,
/// so a 65th process would silently alias process 1.
pub fn checked_bit_of(process: ProcessId) -> Option<u64> {
    1u64.checked_shl(process.index() as u32)
}

/// The bit mask of a process set, checked: `None` if any process index is
/// outside the 64-bit mask width. Callers that know `n <= 64` use
/// [`mask_of`].
pub fn checked_mask_of(processes: &[ProcessId]) -> Option<u64> {
    processes
        .iter()
        .try_fold(0u64, |mask, p| Some(mask | checked_bit_of(*p)?))
}

/// The bit mask of a process set: sleep and persistent sets are `u64` bit
/// sets indexed by process slot.
///
/// # Panics
///
/// Panics if a process index is outside the mask width, where a wrapping
/// shift would alias process `p` with `p - 64`. Use [`checked_mask_of`]
/// when `n <= 64` is not already established.
pub fn mask_of(processes: &[ProcessId]) -> u64 {
    checked_mask_of(processes).expect("process index outside the 64-bit mask width")
}

/// The sleep set a successor inherits when `process` steps from `state`:
/// the members of `sleep` whose poised operations commute with the one
/// `process` is about to perform (dependent members wake).
///
/// Commutation is judged by a three-tier interference analysis, every tier
/// a pure (and, across the pair, symmetric) function of the configuration:
///
/// 1. the static footprint relation ([`independent`]) — free, holds in
///    every state;
/// 2. the invisible-write refinement
///    ([`SimMemory::invisibly_independent`](sa_memory::SimMemory::invisibly_independent))
///    — a value comparison against the current contents;
/// 3. [`orders_commute`] — executes both orders from this very
///    configuration and keeps the pair asleep only if the successors
///    collapse to one state key.
///
/// Debug builds run tier 3 on every pair the cheap tiers keep as well, and
/// panic if such a pair does not commute.
pub fn successor_sleep<A>(state: &Executor<A>, process: ProcessId, sleep: u64) -> u64
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if sleep == 0 {
        return 0;
    }
    let Some(op) = state.poised(process) else {
        return 0;
    };
    let mut kept = 0u64;
    let mut rest = sleep;
    while rest != 0 {
        let q = ProcessId(rest.trailing_zeros() as usize);
        rest &= rest - 1;
        // A sleeping process with no poised op cannot be judged; waking it
        // is always sound.
        let Some(other) = state.poised(q) else {
            continue;
        };
        if independent(&op, &other) || state.memory().invisibly_independent(&op, &other) {
            kept |= 1u64 << q.index();
            debug_assert!(
                orders_commute(state, process, q),
                "independent pair {process}/{q} does not commute — the interference analysis is unsound here"
            );
        } else if orders_commute(state, process, q) {
            kept |= 1u64 << q.index();
        }
    }
    kept
}

/// The persistent subset of `runnable` at `state`: seeded from the first
/// runnable process and closed under the **static** dependency relation
/// over poised operations — a process joins the set when its poised op
/// fails [`independent`] against any member's poised op, until a fixpoint.
///
/// A process with no poised op cannot conflict and never joins. The result
/// is a pure function of the configuration.
pub fn persistent_set<A>(state: &Executor<A>, runnable: &[ProcessId]) -> u64
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let Some(seed) = runnable.first() else {
        return 0;
    };
    let mut set = mask_of(&[*seed]);
    loop {
        let mut grew = false;
        for q in runnable {
            let q_bit = mask_of(&[*q]);
            if set & q_bit != 0 {
                continue;
            }
            let Some(q_op) = state.poised(*q) else {
                continue;
            };
            let mut members = set;
            while members != 0 {
                let p = ProcessId(members.trailing_zeros() as usize);
                members &= members - 1;
                let Some(p_op) = state.poised(p) else {
                    continue;
                };
                if !independent(&p_op, &q_op) {
                    set |= q_bit;
                    grew = true;
                    break;
                }
            }
        }
        if !grew {
            return set;
        }
    }
}

/// `true` if stepping `first` then `second` reaches the same configuration
/// as stepping `second` then `first`: the ground truth the independence
/// relations predict.
pub fn orders_commute<A>(state: &Executor<A>, first: ProcessId, second: ProcessId) -> bool
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut ab = state.clone();
    ab.step(first);
    ab.step(second);
    let mut ba = state.clone();
    ba.step(second);
    ba.step(first);
    state_key(&ab) == state_key(&ba)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::ToyWriter;

    #[test]
    fn dependent_orders_genuinely_diverge() {
        // The ground-truth helper distinguishes a dependent pair: two
        // writers racing on one register with different values do NOT
        // commute — which is exactly why `independent` keeps them apart.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(0, 2)]);
        assert!(!orders_commute(&exec, ProcessId(0), ProcessId(1)));
        // Same values, though, collapse to one state either way.
        let same = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        assert!(orders_commute(&same, ProcessId(0), ProcessId(1)));
    }
}
