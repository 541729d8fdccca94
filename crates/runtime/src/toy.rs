//! Tiny toy automata used to exercise the runtime independently of the real
//! set-agreement algorithms.
//!
//! They are exposed publicly because they are handy in doc examples,
//! downstream tests and benchmarks that need a predictable, minimal workload;
//! they are *not* correct set-agreement algorithms (that is the point — the
//! explorer and the property checkers must be able to catch their violations).

use sa_model::{
    Automaton, Decision, IdRelabeling, InputValue, MemoryLayout, Op, ProcessId, Response,
    SymmetryClass,
};
use std::hash::{Hash, Hasher};

/// Writes its value to a register, then reads it back, decides it and halts.
/// Useful for smoke-testing executors and traces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ToyWriter {
    register: usize,
    value: InputValue,
    stage: u8,
}

impl ToyWriter {
    /// Creates a writer that uses `register` and proposes `value`.
    pub fn new(register: usize, value: InputValue) -> Self {
        ToyWriter {
            register,
            value,
            stage: 0,
        }
    }
}

impl Automaton for ToyWriter {
    type Value = InputValue;

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::registers_only(self.register + 1)
    }

    fn poised(&self) -> Option<Op<InputValue>> {
        match self.stage {
            0 => Some(Op::Write {
                register: self.register,
                value: self.value,
            }),
            1 => Some(Op::Read {
                register: self.register,
            }),
            _ => None,
        }
    }

    fn apply(&mut self, response: Response<'_, InputValue>) -> Option<Decision> {
        match self.stage {
            0 => {
                debug_assert_eq!(response, Response::Written);
                self.stage = 1;
                None
            }
            1 => {
                let read = response.expect_read();
                self.stage = 2;
                Some(Decision::new(1, read.unwrap_or(self.value)))
            }
            _ => panic!("apply called on a halted ToyWriter"),
        }
    }

    fn symmetry_class(&self) -> SymmetryClass {
        // No process id anywhere; the register index is construction data
        // that travels with the slot, like any other local state. The
        // default `relabeled`/`hash_behavior`/`relabel_value` are correct.
        SymmetryClass::Anonymous
    }
}

/// A deliberately racy "agreement" automaton: it reads a register; if the
/// register is empty it writes its own value and decides it, otherwise it
/// decides whatever it read.
///
/// Under a solo schedule this trivially agrees, but two processes can both
/// read `⊥` before either writes, and then decide different values — exactly
/// the kind of interleaving bug the bounded explorer exists to find.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RacyConsensus {
    id: ProcessId,
    value: InputValue,
    stage: u8,
    saw: Option<InputValue>,
}

impl RacyConsensus {
    /// Creates the racy automaton for `id` proposing `value`.
    pub fn new(id: ProcessId, value: InputValue) -> Self {
        RacyConsensus {
            id,
            value,
            stage: 0,
            saw: None,
        }
    }
}

impl Automaton for RacyConsensus {
    type Value = InputValue;

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::registers_only(1)
    }

    fn poised(&self) -> Option<Op<InputValue>> {
        match self.stage {
            0 => Some(Op::Read { register: 0 }),
            1 => match self.saw {
                // Saw nothing: claim the register.
                None => Some(Op::Write {
                    register: 0,
                    value: self.value,
                }),
                // Saw a value: decide it with a local step.
                Some(_) => Some(Op::Nop),
            },
            _ => None,
        }
    }

    fn apply(&mut self, response: Response<'_, InputValue>) -> Option<Decision> {
        match self.stage {
            0 => {
                self.saw = response.expect_read();
                self.stage = 1;
                None
            }
            1 => {
                self.stage = 2;
                let decided = self.saw.unwrap_or(self.value);
                Some(Decision::new(1, decided))
            }
            _ => panic!("apply called on a halted RacyConsensus"),
        }
    }

    fn symmetry_class(&self) -> SymmetryClass {
        // The id is carried in local state (though never consulted); the
        // register address is fixed and the values are plain `u64`s, so
        // consistent relabeling only has to rewrite the `id` field.
        SymmetryClass::IdCarrying
    }

    fn relabeled(&self, relabel: &IdRelabeling) -> Self {
        RacyConsensus {
            id: relabel.apply(self.id),
            ..self.clone()
        }
    }

    fn hash_behavior<H: Hasher>(&self, relabel: &IdRelabeling, state: &mut H) {
        relabel.apply(self.id).hash(state);
        self.value.hash(state);
        self.stage.hash(state);
        self.saw.hash(state);
    }
}

/// An automaton that never halts: it keeps rewriting the same register.
/// Useful for step-limit and starvation tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spinner {
    register: usize,
    counter: u64,
}

impl Spinner {
    /// Creates a spinner over `register`.
    pub fn new(register: usize) -> Self {
        Spinner {
            register,
            counter: 0,
        }
    }

    /// The number of writes performed so far.
    pub fn writes(&self) -> u64 {
        self.counter
    }
}

impl Automaton for Spinner {
    type Value = InputValue;

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::registers_only(self.register + 1)
    }

    fn poised(&self) -> Option<Op<InputValue>> {
        Some(Op::Write {
            register: self.register,
            value: self.counter,
        })
    }

    fn apply(&mut self, _response: Response<'_, InputValue>) -> Option<Decision> {
        self.counter += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_writer_decides_after_two_steps() {
        let mut w = ToyWriter::new(0, 42);
        assert!(!w.is_halted());
        assert!(matches!(w.poised(), Some(Op::Write { .. })));
        assert!(w.apply(Response::Written).is_none());
        assert!(matches!(w.poised(), Some(Op::Read { .. })));
        let d = w.apply(Response::Read(Some(42)));
        assert_eq!(d, Some(Decision::new(1, 42)));
        assert!(w.is_halted());
    }

    #[test]
    fn racy_consensus_adopts_seen_value() {
        let mut a = RacyConsensus::new(ProcessId(1), 5);
        a.apply(Response::Read(Some(9)));
        assert_eq!(a.poised(), Some(Op::Nop));
        let d = a.apply(Response::Nop);
        assert_eq!(d, Some(Decision::new(1, 9)));
    }

    #[test]
    fn racy_consensus_claims_when_empty() {
        let mut a = RacyConsensus::new(ProcessId(0), 5);
        a.apply(Response::Read(None));
        assert!(matches!(a.poised(), Some(Op::Write { value: 5, .. })));
        let d = a.apply(Response::Written);
        assert_eq!(d, Some(Decision::new(1, 5)));
    }

    #[test]
    fn spinner_never_halts() {
        let mut s = Spinner::new(0);
        for _ in 0..100 {
            assert!(s.poised().is_some());
            s.apply(Response::Written);
        }
        assert_eq!(s.writes(), 100);
        assert!(!s.is_halted());
    }
}
