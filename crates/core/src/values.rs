//! The values the paper's algorithms store in shared memory.
//!
//! * Figure 3 stores pairs `(pref, id)` — [`Pair`].
//! * Figure 4 stores tuples `(pref, id, t, history)` — [`Tuple`].
//! * Figure 5 stores anonymous tuples `(pref, t, history)` in the snapshot
//!   object — [`AnonTuple`] — and output histories in the helper register
//!   `H`; both are carried by [`AnonValue`] because a memory is homogeneous
//!   in its value type.
//!
//! Histories (sequences of outputs of earlier instances) are shared
//! structurally via [`History`], a cheaply clonable immutable sequence. The
//! repeated algorithms' own input sequences are [`Inputs`].

use sa_model::{InputValue, InstanceId, ProcessId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable sequence of output values, one per completed instance of
/// repeated set agreement. Cloning is O(1).
///
/// The empty history is `None` and owns no heap allocation, so building,
/// cloning, dropping or comparing it touches no reference count; a
/// non-empty one is never `None`, which keeps the derived equality
/// structural.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct History(Option<Arc<[InputValue]>>);

impl History {
    /// The empty history.
    pub fn empty() -> Self {
        History(None)
    }

    /// Builds a history from a vector of outputs (index 0 is instance 1).
    pub fn from_vec(values: Vec<InputValue>) -> Self {
        History((!values.is_empty()).then(|| Arc::from(values)))
    }

    /// The number of instances covered by this history.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` if no instance has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The output of instance `instance` (1-based), if recorded.
    pub fn get(&self, instance: InstanceId) -> Option<InputValue> {
        if instance == 0 {
            return None;
        }
        self.as_slice().get((instance - 1) as usize).copied()
    }

    /// Returns a new history extended with the output of the next instance.
    pub fn appended(&self, value: InputValue) -> History {
        // The chained iterator reports its exact length, so the slice is
        // allocated once, at its final size.
        let values = self.as_slice().iter().copied().chain([value]);
        History(Some(values.collect()))
    }

    /// The recorded outputs as a slice (index 0 is instance 1).
    pub fn as_slice(&self) -> &[InputValue] {
        self.0.as_deref().unwrap_or_default()
    }

    /// A length-based estimate of the heap bytes behind this history: the
    /// shared `Arc` slice (strong/weak counts plus one value per recorded
    /// instance). Structural sharing means several holders may charge the
    /// same allocation — deliberately conservative (an overcount), and a
    /// pure function of the history's length, which is what the explorers'
    /// deterministic memory accounting requires. The empty history owns no
    /// allocation but is still charged the 16 B of counts, which keeps the
    /// estimate one length formula for every history.
    pub fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + self.len() * std::mem::size_of::<InputValue>()
    }
}

/// Hashes the recorded outputs as a slice, so the empty history hashes as
/// `&[]` and no state key depends on how it is represented.
impl Hash for History {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "History{:?}", self.as_slice())
    }
}

impl FromIterator<InputValue> for History {
    fn from_iter<T: IntoIterator<Item = InputValue>>(iter: T) -> Self {
        History::from_vec(iter.into_iter().collect())
    }
}

/// The input sequence of a Figure 4 or Figure 5 process: the value it
/// proposes in each instance, in instance order.
///
/// A service or one-shot process proposes one value, which is stored
/// inline, so building, cloning or dropping it touches no heap and no
/// reference count; a longer sequence is shared behind an `Arc` by every
/// clone. Equality, hashing and `Debug` are the slice's, so the two
/// representations of one sequence are interchangeable and no state key
/// depends on which one a process holds.
#[derive(Clone)]
pub enum Inputs {
    /// A single value, inline.
    One(InputValue),
    /// A sequence of any length, shared behind an `Arc`.
    Many(Arc<[InputValue]>),
}

impl Inputs {
    /// The inputs as a slice (index 0 is instance 1).
    pub fn as_slice(&self) -> &[InputValue] {
        match self {
            Inputs::One(value) => std::slice::from_ref(value),
            Inputs::Many(values) => values,
        }
    }
}

impl Deref for Inputs {
    type Target = [InputValue];

    fn deref(&self) -> &[InputValue] {
        self.as_slice()
    }
}

/// One value is stored inline; any other length is shared.
impl From<Vec<InputValue>> for Inputs {
    fn from(values: Vec<InputValue>) -> Self {
        match values[..] {
            [value] => Inputs::One(value),
            _ => Inputs::Many(values.into()),
        }
    }
}

/// One value is stored inline; any other length is shared.
impl<const N: usize> From<[InputValue; N]> for Inputs {
    fn from(values: [InputValue; N]) -> Self {
        match values[..] {
            [value] => Inputs::One(value),
            _ => Inputs::Many(values.into()),
        }
    }
}

impl PartialEq for Inputs {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Inputs {}

impl Hash for Inputs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Inputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// The pair `(pref, id)` stored by the one-shot algorithm of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// The preferred value.
    pub value: InputValue,
    /// The identifier of the process that stored the pair.
    pub id: ProcessId,
}

impl Pair {
    /// Convenience constructor.
    pub fn new(value: InputValue, id: ProcessId) -> Self {
        Pair { value, id }
    }
}

/// The tuple `(pref, id, t, history)` stored by the repeated algorithm of
/// Figure 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// The preferred value for instance `instance`.
    pub value: InputValue,
    /// The identifier of the process that stored the tuple.
    pub id: ProcessId,
    /// The instance the process is working on.
    pub instance: InstanceId,
    /// The outputs of all instances the process has already completed.
    pub history: History,
}

impl Tuple {
    /// Convenience constructor.
    pub fn new(value: InputValue, id: ProcessId, instance: InstanceId, history: History) -> Self {
        Tuple {
            value,
            id,
            instance,
            history,
        }
    }

    /// `true` if this is a *t-tuple*, i.e. was stored by a process working on
    /// `instance`.
    pub fn is_for(&self, instance: InstanceId) -> bool {
        self.instance == instance
    }
}

/// The anonymous tuple `(pref, t, history)` stored in the snapshot object by
/// the algorithm of Figure 5. It carries no process identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnonTuple {
    /// The preferred value for instance `instance`.
    pub value: InputValue,
    /// The instance the process is working on.
    pub instance: InstanceId,
    /// The outputs of all instances the process has already completed.
    pub history: History,
}

impl AnonTuple {
    /// Convenience constructor.
    pub fn new(value: InputValue, instance: InstanceId, history: History) -> Self {
        AnonTuple {
            value,
            instance,
            history,
        }
    }

    /// `true` if this tuple was stored by a process working on `instance`.
    pub fn is_for(&self, instance: InstanceId) -> bool {
        self.instance == instance
    }
}

/// The value type of the anonymous algorithm's shared memory: snapshot
/// components hold [`AnonTuple`]s, while the helper register `H` holds a
/// [`History`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AnonValue {
    /// A tuple stored in the snapshot object.
    Cell(AnonTuple),
    /// An output history stored in the helper register `H`.
    Outputs(History),
}

impl AnonValue {
    /// The tuple carried by this value, if it is a snapshot cell.
    pub fn as_cell(&self) -> Option<&AnonTuple> {
        match self {
            AnonValue::Cell(t) => Some(t),
            AnonValue::Outputs(_) => None,
        }
    }

    /// The history carried by this value, if it is a helper-register entry.
    pub fn as_outputs(&self) -> Option<&History> {
        match self {
            AnonValue::Outputs(h) => Some(h),
            AnonValue::Cell(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_appended_is_persistent() {
        let h0 = History::empty();
        let h1 = h0.appended(10);
        let h2 = h1.appended(20);
        assert!(h0.is_empty());
        assert_eq!(h1.len(), 1);
        assert_eq!(h2.len(), 2);
        assert_eq!(h2.get(1), Some(10));
        assert_eq!(h2.get(2), Some(20));
        assert_eq!(h2.get(3), None);
        assert_eq!(h2.get(0), None);
        assert_eq!(h1.as_slice(), &[10]);
    }

    #[test]
    fn history_from_iter_and_vec_agree() {
        let a: History = vec![1, 2, 3].into_iter().collect();
        let b = History::from_vec(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "History[1, 2, 3]");
    }

    #[test]
    fn history_equality_is_structural() {
        use sa_model::Fingerprinter;
        fn hash<T: Hash + ?Sized>(value: &T) -> [u64; 2] {
            let mut s = Fingerprinter::new();
            value.hash(&mut s);
            s.finish128()
        }
        let a = History::from_vec(vec![5, 6]);
        let b = History::empty().appended(5).appended(6);
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&[5u64, 6][..]));
        // Every way of building the empty history gives one value, which
        // hashes as the empty slice.
        let empties = [
            History::empty(),
            History::default(),
            History::from_vec(vec![]),
            std::iter::empty().collect(),
        ];
        for empty in &empties {
            assert_eq!(empty, &History::empty());
            assert!(empty.is_empty());
            assert_eq!(hash(empty), hash(&[] as &[u64]));
        }
        assert_eq!(History::empty().appended(7), History::from_vec(vec![7]));
        assert_ne!(History::empty(), History::from_vec(vec![7]));
    }

    #[test]
    fn one_input_equals_a_shared_sequence_of_it() {
        use sa_model::Fingerprinter;
        fn hash<T: Hash + ?Sized>(value: &T) -> [u64; 2] {
            let mut s = Fingerprinter::new();
            value.hash(&mut s);
            s.finish128()
        }
        let one = Inputs::One(7);
        let many = Inputs::Many(Arc::from([7]));
        assert_eq!(one, many);
        assert_eq!(hash(&one), hash(&[7u64][..]));
        assert_eq!(hash(&many), hash(&[7u64][..]));
        assert_eq!(format!("{one:?}"), "[7]");
        assert_eq!(format!("{many:?}"), "[7]");
        assert_ne!(one, Inputs::from(vec![7, 8]));
        let longer = Inputs::from(vec![7, 8]);
        assert_eq!(hash(&longer), hash(&[7u64, 8][..]));
        assert_eq!(format!("{longer:?}"), "[7, 8]");
        assert_eq!(&longer[1..], &[8]);
    }

    #[test]
    fn a_single_input_is_stored_inline() {
        assert!(matches!(Inputs::from([7]), Inputs::One(7)));
        assert!(matches!(Inputs::from(vec![7]), Inputs::One(7)));
        assert!(matches!(Inputs::from(vec![7, 8]), Inputs::Many(_)));
        assert!(matches!(Inputs::from([7, 8]), Inputs::Many(_)));
        assert!(Inputs::from(vec![]).is_empty());
        // The inline variant sits beside the `Arc`'s non-null pointer, so
        // holding inputs costs an automaton no more than the `Arc` did.
        // Automaton sizes feed the explorers' byte accounting.
        assert_eq!(
            std::mem::size_of::<Inputs>(),
            std::mem::size_of::<Arc<[InputValue]>>()
        );
    }

    #[test]
    fn pair_and_tuple_equality() {
        let p1 = Pair::new(1, ProcessId(0));
        let p2 = Pair::new(1, ProcessId(1));
        assert_ne!(p1, p2);
        let t = Tuple::new(1, ProcessId(0), 3, History::empty());
        assert!(t.is_for(3));
        assert!(!t.is_for(2));
    }

    #[test]
    fn anon_value_projections() {
        let cell = AnonValue::Cell(AnonTuple::new(7, 2, History::empty()));
        assert!(cell.as_cell().is_some());
        assert!(cell.as_outputs().is_none());
        let outs = AnonValue::Outputs(History::from_vec(vec![1]));
        assert!(outs.as_cell().is_none());
        assert_eq!(outs.as_outputs().unwrap().len(), 1);
        assert!(AnonTuple::new(7, 2, History::empty()).is_for(2));
    }
}
