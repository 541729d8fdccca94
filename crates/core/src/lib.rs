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
//!
//! With no scheduler at all, bounded round-robin contention followed by a
//! solo run of each process is a deterministic schedule that terminates,
//! because every algorithm here is m-obstruction-free with `m ≥ 1`. It is
//! the schedule the `sa-serve` service runs each batch under:
//!
//! ```
//! use sa_core::OneShotSetAgreement;
//! use sa_model::{Params, ProcessId};
//! use sa_runtime::Executor;
//!
//! let params = Params::new(3, 1, 2)?;
//! let automata: Vec<_> = (0..3)
//!     .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 10 + p as u64))
//!     .collect();
//! let mut exec = Executor::new(automata);
//! exec.run_round_robin(24);
//! for p in 0..3 {
//!     assert!(exec.run_solo(ProcessId(p), 10_000));
//! }
//! assert!(exec.all_halted());
//! assert!(exec.decisions().distinct_outputs(1) <= 2);
//! # Ok::<(), sa_model::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anonymous;
mod baseline;
mod error;
mod oneshot;
mod repeated;
pub mod values;

pub use anonymous::AnonymousSetAgreement;
pub use baseline::{FullInfoRecord, FullInfoSetAgreement, SwmrEmulated, WideBaseline};
pub use error::AlgorithmError;
pub use oneshot::OneShotSetAgreement;
pub use repeated::RepeatedSetAgreement;
pub use values::{AnonTuple, AnonValue, History, Pair, Tuple};

/// The perfbench benchmark's name for [`sa_runtime::Executor`]; kept only for it.
pub use sa_runtime::Executor as AgreementInstance;

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
            .filter(|&&p| exec.automaton(p).poised().is_none())
            .count()
    }

    fn oneshot_system(params: Params) -> Executor<OneShotSetAgreement> {
        Executor::new(
            (0..params.n())
                .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
                .collect(),
        )
    }

    #[test]
    fn solo_runs_terminate_and_agree() {
        let params = Params::new(5, 2, 3).unwrap();
        let mut exec = oneshot_system(params);
        exec.run_round_robin(40);
        for p in 0..params.n() {
            assert!(exec.run_solo(ProcessId(p), 100_000), "p{p} did not halt");
        }
        assert!(exec.all_halted());
        assert_eq!(exec.decisions().deciders(1), params.n());
        assert!(exec.decisions().distinct_outputs(1) <= params.k());
        for value in exec.decisions().outputs(1) {
            assert!((100..100 + params.n() as u64).contains(&value));
        }
    }

    #[test]
    fn round_robin_respects_the_budget_and_stops_when_halted() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut exec = oneshot_system(params);
        assert_eq!(exec.run_round_robin(7), 7);
        assert_eq!(exec.steps(), 7);
        for p in 0..params.n() {
            exec.run_solo(ProcessId(p), 100_000);
        }
        let done = exec.steps();
        assert_eq!(exec.run_round_robin(50), 0);
        assert_eq!(exec.steps(), done);
    }

    #[test]
    fn repeated_instances_run_under_the_same_driver() {
        let params = Params::new(4, 1, 1).unwrap();
        let mut exec = Executor::new(
            (0..params.n())
                .map(|p| {
                    RepeatedSetAgreement::new(params, ProcessId(p), vec![10 + p as u64]).unwrap()
                })
                .collect(),
        );
        exec.run_round_robin(32);
        for p in 0..params.n() {
            assert!(exec.run_solo(ProcessId(p), 100_000));
        }
        assert_eq!(exec.decisions().distinct_outputs(1), 1);
    }

    #[test]
    fn stepping_a_halted_or_unknown_process_is_a_no_op() {
        let params = Params::new(3, 1, 2).unwrap();
        let mut exec = oneshot_system(params);
        assert!(exec.step(ProcessId(9)).is_none());
        exec.run_solo(ProcessId(0), 100_000);
        assert!(exec.step(ProcessId(0)).is_none());
        assert_eq!(exec.process_count(), 3);
    }

    #[test]
    fn is_halted_matches_poised_after_every_step() {
        let params = Params::new(3, 1, 2).unwrap();
        let (mut figure4, mut figure5, mut full_info) = (0, 0, 0);
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
            let emulated: Vec<_> = (0..3)
                .map(|p| {
                    SwmrEmulated::<OneShotSetAgreement>::one_shot(
                        params,
                        ProcessId(p),
                        inputs(p)[0],
                    )
                })
                .collect();
            full_info += halting_matches_poised(emulated, seed, 3_000);
        }
        assert!(
            figure4 > 0 && figure5 > 0 && full_info > 0,
            "no process halted: {figure4}, {figure5}, {full_info}"
        );
    }
}
