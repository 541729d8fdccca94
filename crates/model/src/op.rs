//! Shared-memory operations and responses.

use crate::independence::{Access, Footprint, Location};
use crate::layout::{RegisterId, SnapshotId};
use std::borrow::Cow;
use std::fmt;

/// A shared-memory operation a process is poised to perform.
///
/// The paper's model (Section 2) has processes applying atomic reads and
/// writes to MWMR registers; its algorithms are additionally expressed over
/// multi-writer snapshot objects (update/scan), which are implementable from
/// registers. Both levels are first-class here so that algorithms can be run
/// either over atomic snapshot objects (the default, as in the pseudocode) or
/// over register-level snapshot constructions.
///
/// `Nop` represents a purely local step; it exists so that adversaries and
/// traces can still observe that a process was scheduled even when it had no
/// pending shared-memory work (for example while an anonymous process is
/// switching between its two threads).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op<V> {
    /// Read the register `register`.
    Read {
        /// Index of the register to read.
        register: RegisterId,
    },
    /// Write `value` to register `register`.
    Write {
        /// Index of the register to write.
        register: RegisterId,
        /// The value to store.
        value: V,
    },
    /// `update(component, value)` on snapshot object `snapshot`.
    Update {
        /// Index of the snapshot object.
        snapshot: SnapshotId,
        /// Component to overwrite.
        component: usize,
        /// The value to store.
        value: V,
    },
    /// `scan()` on snapshot object `snapshot`.
    Scan {
        /// Index of the snapshot object.
        snapshot: SnapshotId,
    },
    /// A purely local step; the memory is not touched.
    Nop,
}

impl<V> Op<V> {
    /// The kind of this operation, with the payload erased.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read { .. } => OpKind::Read,
            Op::Write { .. } => OpKind::Write,
            Op::Update { .. } => OpKind::Update,
            Op::Scan { .. } => OpKind::Scan,
            Op::Nop => OpKind::Nop,
        }
    }

    /// The read and write access sets of this operation — the footprint the
    /// interference analysis ([`crate::independence`]) reasons over.
    ///
    /// A read touches its register on the read side; a write or update
    /// touches its cell on the write side; a scan reads its whole snapshot
    /// object; `Nop` touches nothing. The footprint is a pure function of
    /// the op (never of the memory contents), which is what makes the
    /// derived independence relation state-independent.
    pub fn footprint(&self) -> Footprint {
        match self {
            Op::Read { register } => Footprint {
                read: Some(Access::Cell(Location::Register(*register))),
                write: None,
            },
            Op::Write { register, .. } => Footprint {
                read: None,
                write: Some(Access::Cell(Location::Register(*register))),
            },
            Op::Update {
                snapshot,
                component,
                ..
            } => Footprint {
                read: None,
                write: Some(Access::Cell(Location::Component {
                    snapshot: *snapshot,
                    component: *component,
                })),
            },
            Op::Scan { snapshot } => Footprint {
                read: Some(Access::WholeSnapshot(*snapshot)),
                write: None,
            },
            Op::Nop => Footprint::default(),
        }
    }
}

/// The kind of an [`Op`], with payloads erased, as recorded in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// A register read.
    Read,
    /// A register write.
    Write,
    /// A snapshot update.
    Update,
    /// A snapshot scan.
    Scan,
    /// A local step.
    Nop,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Update => "update",
            OpKind::Scan => "scan",
            OpKind::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// The response to a shared-memory [`Op`].
///
/// A scan's vector may borrow the memory that answered it: the simulator
/// lends its cells ([`Cow::Borrowed`]) for as long as the response lives,
/// while a memory that has to copy the object under a lock hands over that
/// copy ([`Cow::Owned`]). Either way the receiver clones only the entries it
/// keeps. A register read always carries its own value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Response<'a, V: Clone> {
    /// The value read from a register (`None` encodes the initial value `⊥`).
    Read(Option<V>),
    /// Acknowledgement of a register write.
    Written,
    /// Acknowledgement of a snapshot update.
    Updated,
    /// The vector returned by a snapshot scan, one entry per component;
    /// `None` entries are `⊥`.
    Snapshot(Cow<'a, [Option<V>]>),
    /// Acknowledgement of a local step.
    Nop,
}

impl<'a, V: Clone> Response<'a, V> {
    /// Extracts the scan vector, panicking with a protocol-error message if
    /// this response is not a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the response is not [`Response::Snapshot`]. Algorithms use
    /// this only right after issuing a [`Op::Scan`]; a mismatch indicates a
    /// runtime bug, not a user error.
    pub fn expect_snapshot(self) -> Cow<'a, [Option<V>]> {
        match self {
            Response::Snapshot(v) => v,
            other => panic!(
                "protocol error: expected snapshot response, got {:?}",
                ResponseKindOf(&other)
            ),
        }
    }

    /// Extracts the read value, panicking with a protocol-error message if
    /// this response is not a read.
    ///
    /// # Panics
    ///
    /// Panics if the response is not [`Response::Read`].
    pub fn expect_read(self) -> Option<V> {
        match self {
            Response::Read(v) => v,
            other => panic!(
                "protocol error: expected read response, got {:?}",
                ResponseKindOf(&other)
            ),
        }
    }
}

/// Helper for panic messages that does not require `V: Debug`.
struct ResponseKindOf<'r, 'a, V: Clone>(&'r Response<'a, V>);

impl<V: Clone> fmt::Debug for ResponseKindOf<'_, '_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.0 {
            Response::Read(_) => "Read",
            Response::Written => "Written",
            Response::Updated => "Updated",
            Response::Snapshot(_) => "Snapshot",
            Response::Nop => "Nop",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_classification() {
        let read: Op<u64> = Op::Read { register: 0 };
        let write = Op::Write {
            register: 1,
            value: 7u64,
        };
        let update = Op::Update {
            snapshot: 0,
            component: 2,
            value: 7u64,
        };
        let scan: Op<u64> = Op::Scan { snapshot: 0 };
        assert_eq!(read.kind(), OpKind::Read);
        assert_eq!(write.kind(), OpKind::Write);
        assert_eq!(update.kind(), OpKind::Update);
        assert_eq!(scan.kind(), OpKind::Scan);
        assert_eq!(Op::<u64>::Nop.kind(), OpKind::Nop);
    }

    #[test]
    fn response_extractors() {
        let r: Response<'_, u64> = Response::Snapshot(vec![Some(1), None].into());
        assert_eq!(r.expect_snapshot(), vec![Some(1), None]);
        let cells = [None, Some(2)];
        let r: Response<'_, u64> = Response::Snapshot(Cow::Borrowed(&cells));
        assert_eq!(r.expect_snapshot(), vec![None, Some(2)]);
        let r: Response<'_, u64> = Response::Read(Some(9));
        assert_eq!(r.expect_read(), Some(9));
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn expect_snapshot_panics_on_mismatch() {
        let r: Response<'_, u64> = Response::Written;
        let _ = r.expect_snapshot();
    }

    #[test]
    fn op_kind_display() {
        assert_eq!(OpKind::Scan.to_string(), "scan");
    }
}
