//! Process-id symmetry: relabelings and the symmetry classes automata
//! declare.
//!
//! The paper's anonymous algorithms (Figure 5) are invariant under arbitrary
//! permutations of the processes, and the id-carrying algorithms (Figures 3
//! and 4) are invariant under permutations that are applied *consistently*:
//! to the process slots, to the `id` fields inside local states, and to
//! every id embedded in a shared-memory value. The explorers exploit this to
//! deduplicate reachable configurations up to such relabelings — but only
//! for automata that opt in, because an unsound prune is worse than no
//! reduction at all. [`SymmetryClass::Opaque`] (the default) makes
//! symmetry-reduced exploration fall back to plain exploration.

use crate::ids::ProcessId;

/// A total map from old process ids to new process ids.
///
/// Canonicalization uses two kinds of maps: **bijections** (genuine
/// relabelings, produced by sorting slots into canonical order) and the
/// **erasure** [`IdRelabeling::erase`], which maps every id to `p0` so that
/// per-slot signatures become id-blind. Erasure is only used to *order*
/// slots, and to key anonymous systems, which hold no id to collapse; the
/// canonical key of an id-carrying system always applies a bijection, so
/// distinct ids never collapse in a dedup key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRelabeling {
    map: Vec<ProcessId>,
}

impl IdRelabeling {
    /// The identity relabeling on `n` processes.
    pub fn identity(n: usize) -> Self {
        IdRelabeling {
            map: ProcessId::all(n).collect(),
        }
    }

    /// The erasing map on `n` processes: every id goes to `p0`. Not a
    /// bijection; used only for id-blind slot signatures, never for keys.
    pub fn erase(n: usize) -> Self {
        IdRelabeling {
            map: vec![ProcessId(0); n],
        }
    }

    /// A relabeling from an explicit old→new table.
    pub fn from_map(map: Vec<ProcessId>) -> Self {
        IdRelabeling { map }
    }

    /// The identity on `n` processes with `a` and `b` swapped.
    pub fn swap(n: usize, a: ProcessId, b: ProcessId) -> Self {
        let mut relabeling = IdRelabeling::identity(n);
        relabeling.map.swap(a.index(), b.index());
        relabeling
    }

    /// The number of processes this relabeling covers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the relabeling covers no processes.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `true` if every id maps to itself.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, p)| p.index() == i)
    }

    /// The new id of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the covered range.
    #[inline]
    pub fn apply(&self, id: ProcessId) -> ProcessId {
        self.map[id.index()]
    }

    /// The underlying old→new table.
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.map
    }

    /// `true` if the map is a bijection on `0..len()` — the property a map
    /// must have before it may be used to relabel a state (as opposed to
    /// signing one).
    pub fn is_bijection(&self) -> bool {
        let mut seen = vec![false; self.map.len()];
        for p in &self.map {
            if p.index() >= self.map.len() || seen[p.index()] {
                return false;
            }
            seen[p.index()] = true;
        }
        true
    }
}

/// How an automaton's state (and the values it writes) transform under a
/// process-id relabeling — what a symmetry-reduced explorer is allowed to
/// assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymmetryClass {
    /// The automaton embeds **no process id anywhere**: not in its local
    /// state, not in the values it writes, and not in the *addresses* of
    /// the shared objects it uses. Any permutation of the process slots is
    /// an automorphism of the transition system (the paper's Figure 5
    /// algorithms are the canonical case).
    Anonymous,
    /// Process ids appear in the local state and/or in written values, and
    /// [`Automaton::relabeled`](crate::Automaton::relabeled) /
    /// [`Automaton::relabel_value`](crate::Automaton::relabel_value)
    /// rewrite **all** of them; shared-object addresses never depend on the
    /// id. Permutations are automorphisms when applied consistently through
    /// local states, memory contents and decisions (Figures 3 and 4).
    IdCarrying,
    /// Nothing is known (the trait default). A symmetry-reduced explorer
    /// must fall back to plain exploration rather than risk an unsound
    /// prune — e.g. the single-writer emulation, whose *register addresses*
    /// are process ids, which value relabeling cannot fix.
    Opaque,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_every_id_to_itself() {
        let id = IdRelabeling::identity(4);
        assert_eq!(id.len(), 4);
        assert!(!id.is_empty());
        assert!(id.is_identity());
        assert!(id.is_bijection());
        for p in ProcessId::all(4) {
            assert_eq!(id.apply(p), p);
        }
    }

    #[test]
    fn swap_exchanges_exactly_two_ids() {
        let swap = IdRelabeling::swap(4, ProcessId(1), ProcessId(3));
        assert!(!swap.is_identity());
        assert!(swap.is_bijection());
        assert_eq!(swap.apply(ProcessId(1)), ProcessId(3));
        assert_eq!(swap.apply(ProcessId(3)), ProcessId(1));
        assert_eq!(swap.apply(ProcessId(0)), ProcessId(0));
        assert_eq!(swap.apply(ProcessId(2)), ProcessId(2));
    }

    #[test]
    fn erasure_is_not_a_bijection() {
        let erase = IdRelabeling::erase(3);
        assert!(!erase.is_bijection());
        assert!(!erase.is_identity());
        for p in ProcessId::all(3) {
            assert_eq!(erase.apply(p), ProcessId(0));
        }
        assert!(IdRelabeling::erase(0).is_empty());
    }

    #[test]
    fn from_map_detects_non_bijections() {
        let good = IdRelabeling::from_map(vec![ProcessId(2), ProcessId(0), ProcessId(1)]);
        assert!(good.is_bijection());
        assert_eq!(good.as_slice().len(), 3);
        let out_of_range = IdRelabeling::from_map(vec![ProcessId(3), ProcessId(0), ProcessId(1)]);
        assert!(!out_of_range.is_bijection());
        let duplicate = IdRelabeling::from_map(vec![ProcessId(0), ProcessId(0), ProcessId(1)]);
        assert!(!duplicate.is_bijection());
    }
}
