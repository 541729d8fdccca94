//! Problem parameters `(n, m, k)` and derived quantities.

use crate::error::ParamsError;
use std::fmt;

/// The parameters of an `m`-obstruction-free `k`-set agreement problem among
/// `n` processes.
///
/// The paper (and therefore this library) restricts attention to the regime
/// `1 ≤ m ≤ k < n`:
///
/// * for `m > k` the problem is unsolvable from registers (Lemma 1 of the
///   paper, via the wait-free set-agreement impossibility),
/// * for `k ≥ n` it is trivial (every process outputs its own input), so no
///   registers are needed and the bounds do not apply.
///
/// All derived quantities used throughout the paper are exposed as methods so
/// that algorithms, bounds and benchmarks agree on a single definition.
///
/// ```
/// use sa_model::Params;
/// let p = Params::new(10, 2, 4)?;
/// assert_eq!(p.n(), 10);
/// assert_eq!(p.m(), 2);
/// assert_eq!(p.k(), 4);
/// assert_eq!(p.snapshot_components(), 10 + 2 * 2 - 4);
/// assert_eq!(p.ell(), 10 - 4 + 2);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Params {
    n: usize,
    m: usize,
    k: usize,
}

impl Params {
    /// Creates a parameter set, validating `1 ≤ m ≤ k < n` and `n ≥ 2`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the violated constraint.
    pub fn new(n: usize, m: usize, k: usize) -> Result<Self, ParamsError> {
        if n < 2 {
            return Err(ParamsError::TooFewProcesses { n });
        }
        if m == 0 {
            return Err(ParamsError::ZeroObstruction);
        }
        if k == 0 {
            return Err(ParamsError::ZeroAgreement);
        }
        if m > k {
            return Err(ParamsError::ObstructionExceedsAgreement { m, k });
        }
        if k >= n {
            return Err(ParamsError::AgreementNotBelowProcesses { k, n });
        }
        Ok(Params { n, m, k })
    }

    /// Parameters for classical obstruction-free consensus (`m = k = 1`).
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 2`.
    pub fn consensus(n: usize) -> Result<Self, ParamsError> {
        Params::new(n, 1, 1)
    }

    /// The number of processes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The obstruction degree `m`: termination is required whenever at most
    /// `m` processes take infinitely many steps.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The agreement degree `k`: at most `k` distinct values may be output
    /// per instance.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// `r = n + 2m − k`, the number of snapshot components used by the
    /// paper's non-anonymous algorithms (Figures 3 and 4).
    #[inline]
    pub fn snapshot_components(&self) -> usize {
        self.n + 2 * self.m - self.k
    }

    /// `ℓ = n − k + m`, the number of "late" processes that must agree on at
    /// most `m` values in the k-agreement proofs.
    #[inline]
    pub fn ell(&self) -> usize {
        self.n - self.k + self.m
    }

    /// `min(n + 2m − k, n)`: the paper's upper bound on the number of MWMR
    /// registers for (repeated and one-shot) non-anonymous set agreement
    /// (Theorems 7 and 8).
    #[inline]
    pub fn register_upper_bound(&self) -> usize {
        self.snapshot_components().min(self.n)
    }

    /// `n + m − k`: the paper's lower bound on the number of registers for
    /// repeated set agreement (Theorem 2).
    #[inline]
    pub fn repeated_lower_bound(&self) -> usize {
        self.n + self.m - self.k
    }

    /// `(m + 1)(n − k) + m²`: the number of snapshot components used by the
    /// anonymous algorithm (Figure 5).
    #[inline]
    pub fn anonymous_snapshot_components(&self) -> usize {
        (self.m + 1) * (self.n - self.k) + self.m * self.m
    }

    /// `(m + 1)(n − k) + m² + 1`: registers used by the anonymous *repeated*
    /// algorithm (Theorem 11) — the extra register is `H`.
    #[inline]
    pub fn anonymous_repeated_registers(&self) -> usize {
        self.anonymous_snapshot_components() + 1
    }

    /// `√(m(n/k − 2))` — any anonymous one-shot algorithm must use strictly
    /// more registers than this (Theorem 10). Returned as a float; use
    /// [`Params::anonymous_oneshot_lower_bound`] for the integer form.
    #[inline]
    pub fn anonymous_oneshot_lower_bound_raw(&self) -> f64 {
        let n = self.n as f64;
        let m = self.m as f64;
        let k = self.k as f64;
        let inner = m * (n / k - 2.0);
        if inner <= 0.0 {
            0.0
        } else {
            inner.sqrt()
        }
    }

    /// The smallest register count *not excluded* by Theorem 10, i.e.
    /// `⌊√(m(n/k − 2))⌋ + 1` (the theorem states strictly more than the square
    /// root are required).
    #[inline]
    pub fn anonymous_oneshot_lower_bound(&self) -> usize {
        self.anonymous_oneshot_lower_bound_raw().floor() as usize + 1
    }

    /// `true` when these parameters describe consensus (`k = 1`).
    #[inline]
    pub fn is_consensus(&self) -> bool {
        self.k == 1
    }

    /// `true` when the progress condition is plain obstruction-freedom
    /// (`m = 1`).
    #[inline]
    pub fn is_obstruction_free(&self) -> bool {
        self.m == 1
    }
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Params(n={}, m={}, k={})", self.n, self.m, self.k)
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-obstruction-free {}-set agreement among {} processes",
            self.m, self.k, self.n
        )
    }
}

/// An iterator over all valid parameter triples `(n, m, k)` within the given
/// inclusive bounds, useful for sweeps in tests and benchmarks.
///
/// ```
/// use sa_model::ParamSweep;
/// // All valid (n, m, k) with n ≤ 4.
/// let all: Vec<_> = ParamSweep::up_to(4).collect();
/// assert!(all.iter().all(|p| p.m() <= p.k() && p.k() < p.n()));
/// assert!(!all.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ParamSweep {
    max_n: usize,
    min_n: usize,
    current: Option<(usize, usize, usize)>,
}

impl ParamSweep {
    /// Sweeps every valid triple with `min_n ≤ n ≤ max_n`.
    pub fn new(min_n: usize, max_n: usize) -> Self {
        ParamSweep {
            max_n,
            min_n: min_n.max(2),
            current: None,
        }
    }

    /// Sweeps every valid triple with `2 ≤ n ≤ max_n`.
    pub fn up_to(max_n: usize) -> Self {
        ParamSweep::new(2, max_n)
    }

    fn advance(&mut self) -> Option<(usize, usize, usize)> {
        match self.current {
            None => {
                if self.min_n > self.max_n {
                    return None;
                }
                // First valid triple for n = min_n is (n, 1, 1).
                self.current = Some((self.min_n, 1, 1));
                self.current
            }
            Some((n, m, k)) => {
                // Order: increase m up to k, then k up to n-1, then n.
                let next = if m < k {
                    Some((n, m + 1, k))
                } else if k < n - 1 {
                    Some((n, 1, k + 1))
                } else if n < self.max_n {
                    Some((n + 1, 1, 1))
                } else {
                    None
                };
                self.current = next;
                next
            }
        }
    }
}

impl Iterator for ParamSweep {
    type Item = Params;

    fn next(&mut self) -> Option<Params> {
        let (n, m, k) = self.advance()?;
        Some(Params::new(n, m, k).expect("sweep generates only valid triples"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_accepted() {
        let p = Params::new(5, 2, 3).unwrap();
        assert_eq!((p.n(), p.m(), p.k()), (5, 2, 3));
    }

    #[test]
    fn invalid_params_rejected() {
        assert_eq!(
            Params::new(1, 1, 1),
            Err(ParamsError::TooFewProcesses { n: 1 })
        );
        assert_eq!(Params::new(4, 0, 1), Err(ParamsError::ZeroObstruction));
        assert_eq!(Params::new(4, 1, 0), Err(ParamsError::ZeroAgreement));
        assert_eq!(
            Params::new(4, 3, 2),
            Err(ParamsError::ObstructionExceedsAgreement { m: 3, k: 2 })
        );
        assert_eq!(
            Params::new(4, 2, 4),
            Err(ParamsError::AgreementNotBelowProcesses { k: 4, n: 4 })
        );
    }

    #[test]
    fn derived_quantities_match_paper_formulas() {
        let p = Params::new(10, 2, 4).unwrap();
        assert_eq!(p.snapshot_components(), 10);
        assert_eq!(p.ell(), 8);
        assert_eq!(p.register_upper_bound(), 10);
        assert_eq!(p.repeated_lower_bound(), 8);
        assert_eq!(p.anonymous_snapshot_components(), 3 * 6 + 4);
        assert_eq!(p.anonymous_repeated_registers(), 3 * 6 + 4 + 1);
    }

    #[test]
    fn consensus_case_matches_paper_special_cases() {
        // For m = k = 1 the paper shows repeated consensus needs exactly n registers.
        let p = Params::consensus(7).unwrap();
        assert!(p.is_consensus());
        assert!(p.is_obstruction_free());
        assert_eq!(p.repeated_lower_bound(), 7);
        assert_eq!(p.register_upper_bound(), 7);
        // n + 2m - k = n + 1 exceeds n, so the min kicks in.
        assert_eq!(p.snapshot_components(), 8);
    }

    #[test]
    fn upper_bound_never_below_lower_bound() {
        for p in ParamSweep::up_to(12) {
            assert!(
                p.register_upper_bound() >= p.repeated_lower_bound(),
                "upper < lower for {p:?}"
            );
            assert!(p.snapshot_components() >= p.repeated_lower_bound());
        }
    }

    #[test]
    fn m1_case_improves_prior_work() {
        // Paper: for m = 1 the algorithm uses n - k + 2 components, improving 2(n - k)
        // whenever n - k >= 2.
        let p = Params::new(10, 1, 3).unwrap();
        assert_eq!(p.snapshot_components(), 10 - 3 + 2);
        assert!(p.snapshot_components() <= 2 * (p.n() - p.k()));
    }

    #[test]
    fn anonymous_lower_bound_generalizes_fhs() {
        // m = k = 1 recovers the Omega(sqrt(n)) bound of Fich, Herlihy, Shavit.
        let p = Params::consensus(100).unwrap();
        let raw = p.anonymous_oneshot_lower_bound_raw();
        assert!((raw - (98f64).sqrt()).abs() < 1e-9);
        assert_eq!(p.anonymous_oneshot_lower_bound(), 10);
    }

    #[test]
    fn sweep_is_exhaustive_and_valid() {
        let all: Vec<Params> = ParamSweep::up_to(6).collect();
        // Count triples directly: for each n, sum over k in 1..n of k choices for m.
        let expected: usize = (2..=6).map(|n: usize| (1..n).sum::<usize>()).sum();
        assert_eq!(all.len(), expected);
        for p in &all {
            assert!(p.m() >= 1 && p.m() <= p.k() && p.k() < p.n());
        }
    }

    #[test]
    fn display_mentions_all_parameters() {
        let p = Params::new(6, 2, 3).unwrap();
        let s = p.to_string();
        assert!(s.contains('6') && s.contains('2') && s.contains('3'));
    }
}
