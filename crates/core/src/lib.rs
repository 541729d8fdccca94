//! The set-agreement algorithms of "On the Space Complexity of Set Agreement"
//! (Delporte-Gallet, Fauconnier, Kuznetsov, Ruppert — PODC 2015).
//!
//! The paper's constructive contribution is three algorithms for
//! `m`-obstruction-free `k`-set agreement among `n` processes
//! (`1 ≤ m ≤ k < n`), all expressed over multi-writer snapshot objects:
//!
//! * [`OneShotSetAgreement`] — the one-shot algorithm of **Figure 3**, using a
//!   snapshot object with `r = n + 2m − k` components (Theorem 7).
//! * [`RepeatedSetAgreement`] — the repeated algorithm of **Figure 4**, same
//!   space, adding instance numbers and history adoption (Theorem 8).
//! * [`AnonymousSetAgreement`] — the anonymous algorithm of **Figure 5**,
//!   using `(m+1)(n−k) + m²` snapshot components plus one helper register
//!   (Theorem 11).
//!
//! Two baselines accompany them for the paper's comparisons:
//!
//! * [`WideBaseline`] — the Figure 3/4 state machine instantiated with
//!   `2(n−k)` components, the space used by the prior algorithm of
//!   Delporte-Gallet et al. \[4\] for `m = 1`.
//! * [`FullInfoSetAgreement`] (via [`SwmrEmulated`]) — the classic `n`
//!   single-writer-register full-information construction, the trivial upper
//!   bound the paper cites.
//!
//! Every algorithm is an [`Automaton`](sa_model::Automaton): an explicit
//! state machine performing one shared-memory operation per step, so the
//! same code runs on the deterministic simulator, the bounded exhaustive
//! explorer and real OS threads provided by `sa-runtime`.
//!
//! # Example
//!
//! ```
//! use sa_core::OneShotSetAgreement;
//! use sa_model::{Params, ProcessId};
//! use sa_runtime::{check_k_agreement, Executor, ObstructionScheduler, RunConfig};
//!
//! // 2-obstruction-free 3-set agreement among 6 processes.
//! let params = Params::new(6, 2, 3)?;
//! let automata: Vec<_> = (0..6)
//!     .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
//!     .collect();
//! let mut exec = Executor::new(automata);
//! // Heavy contention for 100 steps, then only p0 and p1 keep running.
//! let mut adversary = ObstructionScheduler::new(100, vec![ProcessId(0), ProcessId(1)], 42);
//! let report = exec.run(&mut adversary, RunConfig::default());
//! assert!(report.halted[0] && report.halted[1]);
//! check_k_agreement(3, &report.decisions).unwrap();
//! # Ok::<(), sa_model::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anonymous;
mod baseline;
mod error;
mod instance;
mod oneshot;
mod repeated;
pub mod values;

pub use anonymous::AnonymousSetAgreement;
pub use baseline::{FullInfoRecord, FullInfoSetAgreement, SwmrEmulated, WideBaseline};
pub use error::AlgorithmError;
pub use instance::AgreementInstance;
pub use oneshot::OneShotSetAgreement;
pub use repeated::RepeatedSetAgreement;
pub use values::{AnonTuple, AnonValue, History, Pair, Tuple};

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::{Automaton, Params, ProcessId};
    use sa_runtime::{Executor, RandomScheduler, Scheduler, SchedulerView, Workload};

    /// Steps `automata` under a seeded random schedule for at most `budget`
    /// steps, checking after every step that each automaton's `is_halted`
    /// agrees with its `poised`; returns how many automata halted.
    fn halting_matches_poised<A: Automaton + Clone>(
        automata: Vec<A>,
        seed: u64,
        budget: u64,
    ) -> usize {
        let mut exec = Executor::new(automata);
        let mut scheduler = RandomScheduler::new(seed);
        let processes: Vec<ProcessId> = (0..exec.process_count()).map(ProcessId).collect();
        for step in 0..budget {
            let runnable = exec.runnable();
            let view = SchedulerView {
                step,
                runnable: &runnable,
            };
            let Some(pick) = scheduler.next(&view) else {
                break;
            };
            exec.step(pick);
            for &p in &processes {
                let automaton = exec.automaton(p);
                assert_eq!(
                    automaton.is_halted(),
                    automaton.poised().is_none(),
                    "seed {seed}, step {step}, {p}"
                );
            }
        }
        processes
            .iter()
            .filter(|&&p| exec.automaton(p).is_halted())
            .count()
    }

    #[test]
    fn is_halted_matches_poised_after_every_step() {
        let params = Params::new(3, 1, 2).unwrap();
        let (mut figure4, mut figure5) = (0, 0);
        for seed in 0..20 {
            let workload = Workload::random(3, 3, 3, seed);
            let inputs = |p: usize| workload.sequence(p).to_vec();
            let repeated: Vec<_> = (0..3)
                .map(|p| RepeatedSetAgreement::new(params, ProcessId(p), inputs(p)).unwrap())
                .collect();
            figure4 += halting_matches_poised(repeated, seed, 3_000);
            let anonymous: Vec<_> = (0..3)
                .map(|p| AnonymousSetAgreement::repeated(params, inputs(p)).unwrap())
                .collect();
            figure5 += halting_matches_poised(anonymous, seed, 3_000);
        }
        assert!(
            figure4 > 0 && figure5 > 0,
            "no process halted: {figure4}, {figure5}"
        );
    }
}
