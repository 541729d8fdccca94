//! The replayable witness artifact and its verifier.
//!
//! A [`Witness`] is a *schedule* (the exact process steps that produce the
//! configuration), a *goal* (what structure the configuration exhibits) and
//! a *certificate* (the measured structure: covering pairs, register
//! counts, a fingerprint). It carries no automaton or memory bytes — like
//! an explorer's frontier entry that shed its executor, it is replay-based:
//! anyone holding the initial configuration can [`verify`] it by stepping
//! the schedule and re-evaluating the goal. Hand-built Theorem 2
//! constructions (`sa-lowerbound`) and machine-found search results (the
//! driver in this crate) both emit this format, so one verification path
//! checks them all.

use crate::goal::{goal_for, CoveringPair, GoalMeasure};
use sa_memory::Location;
use sa_model::{Automaton, ProcessId};
use sa_runtime::store::fnv1a64;
use sa_runtime::{Executor, SearchGoal};
use std::fmt;
use std::hash::Hash;

/// A compact, order-canonical label for a location: `r3` for register 3,
/// `c0.2` for component 2 of snapshot 0.
pub fn location_label(location: Location) -> String {
    match location {
        Location::Register(r) => format!("r{r}"),
        Location::Component {
            snapshot,
            component,
        } => format!("c{snapshot}.{component}"),
    }
}

/// What a witness certifies about its configuration: the measured covering
/// structure, the register counts, and a fingerprint over the canonical
/// rendering of all of it.
///
/// Certificates are pure functions of (goal, schedule length, measured
/// configuration), so replaying a witness from the same initial
/// configuration reproduces the certificate bit for bit — which is exactly
/// what [`verify`] checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// The goal this certificate was evaluated under.
    pub goal: SearchGoal,
    /// The schedule length that reaches the configuration.
    pub depth: u64,
    /// The canonical covering: smallest poised process per covered
    /// location, ordered by location.
    pub covering: Vec<CoveringPair>,
    /// Distinct locations covered by pending writes.
    pub registers_covered: usize,
    /// Distinct locations written before the configuration.
    pub registers_written: usize,
    /// `|written ∪ covered|` — the count compared against `n + 2m − k`.
    pub registers: usize,
    /// FNV-1a over [`Certificate::canonical_text`], for cheap cross-run
    /// comparison in records and summaries.
    pub fingerprint: u64,
}

impl Certificate {
    /// Builds the certificate for a measured configuration at `depth`.
    pub fn from_measure(goal: SearchGoal, depth: u64, measure: GoalMeasure) -> Certificate {
        let mut cert = Certificate {
            goal,
            depth,
            covering: measure.covering,
            registers_covered: measure.registers_covered,
            registers_written: measure.registers_written,
            registers: measure.registers,
            fingerprint: 0,
        };
        cert.fingerprint = fnv1a64(cert.canonical_text().as_bytes());
        cert
    }

    /// The canonical one-line rendering the fingerprint is computed over
    /// (everything but the fingerprint itself).
    pub fn canonical_text(&self) -> String {
        format!(
            "goal={} depth={} covering={} written={} covered={} registers={}",
            self.goal.label(),
            self.depth,
            self.covering_label(),
            self.registers_written,
            self.registers_covered,
            self.registers
        )
    }

    /// The covering rendered as `process@location` pairs (`-` when empty) —
    /// the form used in campaign records.
    pub fn covering_label(&self) -> String {
        if self.covering.is_empty() {
            "-".to_string()
        } else {
            self.covering
                .iter()
                .map(|c| format!("{}@{}", c.process.index(), location_label(c.location)))
                .collect::<Vec<_>>()
                .join(",")
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [fingerprint {:016x}]",
            self.canonical_text(),
            self.fingerprint
        )
    }
}

/// A replayable lower-bound witness: schedule + goal + certificate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Witness {
    /// The goal the witness exhibits.
    pub goal: SearchGoal,
    /// The exact schedule reaching the witnessing configuration from the
    /// initial one, in original process ids (witnesses always replay).
    pub schedule: Vec<ProcessId>,
    /// What the configuration certifies.
    pub certificate: Certificate,
}

impl Witness {
    /// The schedule as a dotted label (`0.1.0`), `-` when empty — the form
    /// used in campaign records.
    pub fn schedule_label(&self) -> String {
        if self.schedule.is_empty() {
            "-".to_string()
        } else {
            self.schedule
                .iter()
                .map(|p| p.index().to_string())
                .collect::<Vec<_>>()
                .join(".")
        }
    }

    /// Parses a [`schedule_label`](Self::schedule_label) back into a
    /// schedule. `-` (or the empty string) is the empty schedule.
    pub fn parse_schedule(text: &str) -> Option<Vec<ProcessId>> {
        let text = text.trim();
        if text.is_empty() || text == "-" {
            return Some(Vec::new());
        }
        text.split('.')
            .map(|part| part.parse::<usize>().ok().map(ProcessId))
            .collect()
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} via {}", self.certificate, self.schedule_label())
    }
}

/// Why a witness failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The schedule stepped a halted process — it does not replay.
    ScheduleStalled {
        /// The 0-based schedule position that failed.
        step: usize,
        /// The process that could not be stepped.
        process: ProcessId,
    },
    /// The replayed configuration does not exhibit the goal at all.
    GoalNotMet {
        /// The goal that was evaluated.
        goal: SearchGoal,
    },
    /// The replayed configuration exhibits the goal, but with a different
    /// certificate than the witness claims.
    CertificateMismatch {
        /// What the witness claimed.
        claimed: Box<Certificate>,
        /// What the replay measured.
        found: Box<Certificate>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ScheduleStalled { step, process } => {
                write!(f, "schedule stalled at step {step}: {process} is halted")
            }
            VerifyError::GoalNotMet { goal } => {
                write!(
                    f,
                    "replayed configuration does not exhibit {}",
                    goal.label()
                )
            }
            VerifyError::CertificateMismatch { claimed, found } => {
                write!(
                    f,
                    "certificate mismatch: claimed [{claimed}], found [{found}]"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a witness by replay: steps the schedule from `initial`,
/// re-evaluates the goal on the reached configuration, rebuilds the
/// certificate and compares it to the claimed one. Returns the (identical)
/// re-measured certificate on success.
///
/// This is the single verification path shared by hand-built constructions,
/// the search driver's self-check, and `sweep verify`.
pub fn verify<A>(initial: &Executor<A>, witness: &Witness) -> Result<Certificate, VerifyError>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + std::fmt::Debug,
{
    let mut state = initial.clone();
    for (step, &process) in witness.schedule.iter().enumerate() {
        if state.step(process).is_none() {
            return Err(VerifyError::ScheduleStalled { step, process });
        }
    }
    let goal = goal_for::<A>(witness.goal);
    let measure = goal
        .evaluate(&state)
        .ok_or(VerifyError::GoalNotMet { goal: witness.goal })?;
    let found = Certificate::from_measure(witness.goal, witness.schedule.len() as u64, measure);
    if found != witness.certificate {
        return Err(VerifyError::CertificateMismatch {
            claimed: Box::new(witness.certificate.clone()),
            found: Box::new(found),
        });
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::OneShotSetAgreement;
    use sa_model::Params;

    fn executor() -> Executor<OneShotSetAgreement> {
        let params = Params::new(3, 1, 1).unwrap();
        let automata: Vec<_> = (0..3)
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
            .collect();
        Executor::new(automata)
    }

    fn witness_after(schedule: Vec<ProcessId>, goal: SearchGoal) -> Witness {
        let mut exec = executor();
        for &p in &schedule {
            exec.step(p);
        }
        let measure = goal_for::<OneShotSetAgreement>(goal)
            .evaluate(&exec)
            .expect("configuration must exhibit the goal");
        let certificate = Certificate::from_measure(goal, schedule.len() as u64, measure);
        Witness {
            goal,
            schedule,
            certificate,
        }
    }

    #[test]
    fn location_labels_are_compact_and_distinct() {
        assert_eq!(location_label(Location::Register(3)), "r3");
        assert_eq!(
            location_label(Location::Component {
                snapshot: 0,
                component: 2
            }),
            "c0.2"
        );
    }

    #[test]
    fn schedule_labels_round_trip() {
        let witness = witness_after(
            vec![ProcessId(0), ProcessId(1), ProcessId(0)],
            SearchGoal::Covering,
        );
        assert_eq!(witness.schedule_label(), "0.1.0");
        assert_eq!(
            Witness::parse_schedule(&witness.schedule_label()).unwrap(),
            witness.schedule
        );
        let empty = witness_after(Vec::new(), SearchGoal::Covering);
        assert_eq!(empty.schedule_label(), "-");
        assert_eq!(
            Witness::parse_schedule("-").unwrap(),
            Vec::<ProcessId>::new()
        );
        assert_eq!(
            Witness::parse_schedule("").unwrap(),
            Vec::<ProcessId>::new()
        );
        assert_eq!(Witness::parse_schedule("0.x.1"), None);
    }

    #[test]
    fn fingerprints_cover_every_certified_field() {
        let base = witness_after(vec![ProcessId(0)], SearchGoal::BlockWrite).certificate;
        for mutate in [
            (|c: &mut Certificate| c.depth += 1) as fn(&mut Certificate),
            |c| c.registers += 1,
            |c| c.registers_covered += 1,
            |c| c.registers_written += 1,
            |c| c.covering.clear(),
            |c| c.goal = SearchGoal::Covering,
        ] {
            let mut changed = base.clone();
            mutate(&mut changed);
            changed.fingerprint = fnv1a64(changed.canonical_text().as_bytes());
            assert_ne!(
                changed.fingerprint, base.fingerprint,
                "fingerprint ignored a certified field: {changed}"
            );
        }
    }

    #[test]
    fn verify_accepts_a_faithful_witness() {
        let witness = witness_after(vec![ProcessId(0), ProcessId(1)], SearchGoal::Covering);
        let replayed = verify(&executor(), &witness).expect("faithful witness must verify");
        assert_eq!(replayed, witness.certificate);
    }

    #[test]
    fn verify_rejects_goals_the_replay_does_not_exhibit() {
        // The empty schedule exhibits a covering but not a block write.
        let mut witness = witness_after(Vec::new(), SearchGoal::Covering);
        witness.goal = SearchGoal::BlockWrite;
        witness.certificate.goal = SearchGoal::BlockWrite;
        assert_eq!(
            verify(&executor(), &witness),
            Err(VerifyError::GoalNotMet {
                goal: SearchGoal::BlockWrite
            })
        );
    }

    #[test]
    fn verify_rejects_tampered_certificates() {
        let witness = witness_after(vec![ProcessId(0)], SearchGoal::Covering);
        let mut tampered = witness.clone();
        tampered.certificate.registers_written += 1;
        match verify(&executor(), &tampered) {
            Err(VerifyError::CertificateMismatch { claimed, found }) => {
                assert_eq!(*claimed, tampered.certificate);
                assert_eq!(*found, witness.certificate);
            }
            other => panic!("expected a certificate mismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_schedules_that_stall() {
        let mut witness = witness_after(vec![ProcessId(0)], SearchGoal::Covering);
        // Drive p0 far past its halting point: some prefix step must stall.
        witness.schedule = std::iter::repeat_n(ProcessId(0), 200).collect();
        match verify(&executor(), &witness) {
            Err(VerifyError::ScheduleStalled { process, .. }) => {
                assert_eq!(process, ProcessId(0));
            }
            other => panic!("expected a stalled schedule, got {other:?}"),
        }
    }
}
