//! Execution traces: a step-by-step record of who did what.
//!
//! Traces are optional (they cost memory proportional to the number of steps)
//! but invaluable when debugging an algorithm or exhibiting a counterexample
//! execution found by the explorer or the lower-bound adversaries.

use sa_memory::Location;
use sa_model::{Decision, OpKind, ProcessId};
use std::fmt;

/// One step of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The global step number (0-based).
    pub step: u64,
    /// The process that took the step.
    pub process: ProcessId,
    /// The kind of shared-memory operation performed.
    pub op: OpKind,
    /// The location written, for write-like operations.
    pub wrote: Option<Location>,
    /// The decision produced by this step, if any.
    pub decision: Option<Decision>,
}

/// A sequence of [`TraceEvent`]s describing an execution (or a fragment).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The steps taken by one process, in order.
    pub fn steps_of(&self, process: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.process == process)
    }

    /// The schedule of the trace: the sequence of process ids, one per step.
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.events.iter().map(|e| e.process).collect()
    }

    /// All decision events in the trace, in order, with the deciding process.
    pub fn decisions(&self) -> Vec<(ProcessId, Decision)> {
        self.events
            .iter()
            .filter_map(|e| e.decision.map(|d| (e.process, d)))
            .collect()
    }

    /// The distinct locations written during the trace.
    pub fn written_locations(&self) -> Vec<Location> {
        let mut locations: Vec<Location> = self.events.iter().filter_map(|e| e.wrote).collect();
        locations.sort();
        locations.dedup();
        locations
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            write!(f, "[{:>6}] {} {}", e.step, e.process, e.op)?;
            if let Some(loc) = e.wrote {
                write!(f, " -> {loc:?}")?;
            }
            if let Some(d) = e.decision {
                write!(f, "  DECIDE(instance={}, value={})", d.instance, d.value)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(step: u64, p: usize, op: OpKind) -> TraceEvent {
        TraceEvent {
            step,
            process: ProcessId(p),
            op,
            wrote: None,
            decision: None,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(event(0, 0, OpKind::Update));
        t.push(event(1, 1, OpKind::Scan));
        t.push(TraceEvent {
            step: 2,
            process: ProcessId(0),
            op: OpKind::Scan,
            wrote: None,
            decision: Some(Decision::new(1, 7)),
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.steps_of(ProcessId(0)).count(), 2);
        assert_eq!(t.schedule(), vec![ProcessId(0), ProcessId(1), ProcessId(0)]);
        assert_eq!(t.decisions(), vec![(ProcessId(0), Decision::new(1, 7))]);
    }

    #[test]
    fn written_locations_are_deduplicated() {
        let mut t = Trace::new();
        for step in 0..3 {
            t.push(TraceEvent {
                step,
                process: ProcessId(0),
                op: OpKind::Write,
                wrote: Some(Location::Register(1)),
                decision: None,
            });
        }
        assert_eq!(t.written_locations(), vec![Location::Register(1)]);
    }

    #[test]
    fn display_mentions_decisions() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            step: 0,
            process: ProcessId(2),
            op: OpKind::Scan,
            wrote: None,
            decision: Some(Decision::new(3, 9)),
        });
        let s = t.to_string();
        assert!(s.contains("DECIDE"));
        assert!(s.contains("p2"));
        assert!(s.contains("instance=3"));
    }
}
