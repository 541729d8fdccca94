//! Memory layouts: how many registers and snapshot objects an algorithm uses.

use crate::error::LayoutError;

/// The index of a plain MWMR register within a [`MemoryLayout`].
pub type RegisterId = usize;

/// The index of a snapshot object within a [`MemoryLayout`].
pub type SnapshotId = usize;

/// A declaration of the shared objects an algorithm uses: some number of
/// plain multi-writer multi-reader registers plus some number of multi-writer
/// snapshot objects, each with a fixed number of components.
///
/// The paper accounts space in *registers*; a snapshot object with `r`
/// components costs `min(r, n)` registers in the non-anonymous setting
/// (Theorem 7) and `r` registers in the anonymous setting (via the
/// non-blocking construction of Guerraoui–Ruppert). [`MemoryLayout`] exposes
/// both the component-level and the register-level accounting so experiments
/// can report either.
///
/// ```
/// use sa_model::MemoryLayout;
/// // Figure 5 uses one snapshot object of r components plus register H.
/// let layout = MemoryLayout::new(1, vec![12]);
/// assert_eq!(layout.register_count(), 1);
/// assert_eq!(layout.snapshot_count(), 1);
/// assert_eq!(layout.snapshot_width(0), Some(12));
/// assert_eq!(layout.total_components(), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoryLayout {
    registers: usize,
    snapshots: Vec<usize>,
}

impl MemoryLayout {
    /// Creates a layout with `registers` plain registers and one snapshot
    /// object per entry of `snapshot_widths` (the entry is the number of
    /// components of that object).
    pub fn new(registers: usize, snapshot_widths: Vec<usize>) -> Self {
        MemoryLayout {
            registers,
            snapshots: snapshot_widths,
        }
    }

    /// A layout consisting only of plain registers.
    pub fn registers_only(registers: usize) -> Self {
        MemoryLayout::new(registers, Vec::new())
    }

    /// A layout consisting of a single snapshot object of the given width and
    /// no plain registers — the shape used by Figures 3 and 4 of the paper.
    pub fn with_snapshot(width: usize) -> Self {
        MemoryLayout::new(0, vec![width])
    }

    /// A layout with one snapshot object plus `registers` plain registers —
    /// the shape used by Figure 5 (`registers = 1` for the shared register `H`).
    pub fn with_snapshot_and_registers(width: usize, registers: usize) -> Self {
        MemoryLayout::new(registers, vec![width])
    }

    /// The number of plain registers.
    #[inline]
    pub fn register_count(&self) -> usize {
        self.registers
    }

    /// The number of snapshot objects.
    #[inline]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The width (component count) of snapshot object `obj`, if it exists.
    #[inline]
    pub fn snapshot_width(&self, obj: SnapshotId) -> Option<usize> {
        self.snapshots.get(obj).copied()
    }

    /// The widths of all snapshot objects.
    #[inline]
    pub fn snapshot_widths(&self) -> &[usize] {
        &self.snapshots
    }

    /// Plain registers plus all snapshot components: the total number of
    /// atomic base-object "slots" in the layout.
    #[inline]
    pub fn total_components(&self) -> usize {
        self.registers + self.snapshots.iter().sum::<usize>()
    }

    /// Validates that a register index is within the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::RegisterOutOfRange`] if not.
    pub fn check_register(&self, register: RegisterId) -> Result<(), LayoutError> {
        if register < self.registers {
            Ok(())
        } else {
            Err(LayoutError::RegisterOutOfRange {
                register,
                registers: self.registers,
            })
        }
    }

    /// Validates that a snapshot component reference is within the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::SnapshotOutOfRange`] or
    /// [`LayoutError::ComponentOutOfRange`] if not.
    pub fn check_component(
        &self,
        snapshot: SnapshotId,
        component: usize,
    ) -> Result<(), LayoutError> {
        match self.snapshots.get(snapshot) {
            None => Err(LayoutError::SnapshotOutOfRange {
                snapshot,
                snapshots: self.snapshots.len(),
            }),
            Some(&width) if component >= width => Err(LayoutError::ComponentOutOfRange {
                snapshot,
                component,
                width,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Validates that a snapshot object reference is within the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::SnapshotOutOfRange`] if not.
    pub fn check_snapshot(&self, snapshot: SnapshotId) -> Result<(), LayoutError> {
        if snapshot < self.snapshots.len() {
            Ok(())
        } else {
            Err(LayoutError::SnapshotOutOfRange {
                snapshot,
                snapshots: self.snapshots.len(),
            })
        }
    }

    /// Returns the layout that can serve both `self` and `other`: the
    /// component-wise maximum. Useful when co-scheduling heterogeneous
    /// automata in tests.
    pub fn union(&self, other: &MemoryLayout) -> MemoryLayout {
        let registers = self.registers.max(other.registers);
        let len = self.snapshots.len().max(other.snapshots.len());
        let snapshots = (0..len)
            .map(|i| {
                self.snapshots
                    .get(i)
                    .copied()
                    .unwrap_or(0)
                    .max(other.snapshots.get(i).copied().unwrap_or(0))
            })
            .collect();
        MemoryLayout {
            registers,
            snapshots,
        }
    }
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout::registers_only(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_report_declared_shape() {
        let layout = MemoryLayout::new(2, vec![5, 3]);
        assert_eq!(layout.register_count(), 2);
        assert_eq!(layout.snapshot_count(), 2);
        assert_eq!(layout.snapshot_width(0), Some(5));
        assert_eq!(layout.snapshot_width(1), Some(3));
        assert_eq!(layout.snapshot_width(2), None);
        assert_eq!(layout.total_components(), 10);
    }

    #[test]
    fn bounds_checks() {
        let layout = MemoryLayout::new(1, vec![4]);
        assert!(layout.check_register(0).is_ok());
        assert!(layout.check_register(1).is_err());
        assert!(layout.check_snapshot(0).is_ok());
        assert!(layout.check_snapshot(1).is_err());
        assert!(layout.check_component(0, 3).is_ok());
        assert!(layout.check_component(0, 4).is_err());
        assert!(layout.check_component(1, 0).is_err());
    }

    #[test]
    fn union_takes_componentwise_maximum() {
        let a = MemoryLayout::new(1, vec![4]);
        let b = MemoryLayout::new(0, vec![6, 2]);
        let u = a.union(&b);
        assert_eq!(u, MemoryLayout::new(1, vec![6, 2]));
    }

    #[test]
    fn default_is_empty() {
        let layout = MemoryLayout::default();
        assert_eq!(layout.total_components(), 0);
    }
}
