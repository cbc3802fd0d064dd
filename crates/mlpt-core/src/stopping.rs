//! Stopping points n_k: the MDA's failure control.
//!
//! "The number of probe packets the MDA sends to discover all successors
//! of a vertex v is governed by a set of predetermined stopping points,
//! designated n_k. If k successors to v have been discovered then the MDA
//! keeps sending probes until either the number of probes equals n_k or an
//! additional successor has been discovered." (Sec. 2.1)
//!
//! The rule: under the hypothesis that a vertex has k + 1 uniform
//! successors, the probability that n probes fail to see all of them is
//! (inclusion–exclusion over which successors are missed):
//!
//! ```text
//!   P_miss(k + 1, n) = Σ_{i=1}^{k} (-1)^(i+1) · C(k+1, i) · ((k+1-i)/(k+1))^n
//! ```
//!
//! n_k is the smallest n with `P_miss(k+1, n) ≤ α`. At α = 0.05 this gives
//! the classic 95 % table 6, 11, 16, 21, 27, 33, … used by scamper and
//! libparistraceroute.
//!
//! The paper's worked examples (Sec. 2.1/2.3) quote Veitch et al.'s
//! Table 1 values n₁ = 9, n₂ = 17, n₄ = 33, under which the unmeshed
//! diamond costs the MDA 11·n₁ + δ = 99 + δ probes, the meshed diamond
//! 8·n₂ + 3·n₁ + δ′ = 163 + δ′, and MDA-Lite n₄ + n₂ + 2·n₁ = 68.
//! [`StoppingPoints::veitch_table1`] pins those exact values so the
//! paper's arithmetic reproduces to the probe.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A table of stopping points n₁ … n_K with the failure bound that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoppingPoints {
    nks: Vec<u64>,
    alpha: f64,
}

/// Default number of stopping points to precompute: branching factors
/// beyond this are treated as table exhaustion (probing stops).
pub const DEFAULT_MAX_BRANCHING: usize = 128;

impl StoppingPoints {
    /// Probability that `n` uniform probes over `k_plus_1` successors miss
    /// at least one of them (exact inclusion–exclusion).
    pub fn miss_probability(k_plus_1: usize, n: u64) -> f64 {
        assert!(k_plus_1 >= 1);
        if k_plus_1 == 1 {
            return if n == 0 { 1.0 } else { 0.0 };
        }
        let m = k_plus_1 as f64;
        let mut total = 0.0f64;
        let mut binom = 1.0f64; // C(k+1, i) built incrementally
        for i in 1..k_plus_1 {
            binom = binom * (m - (i as f64 - 1.0)) / i as f64;
            let term = binom * ((m - i as f64) / m).powf(n as f64);
            if i % 2 == 1 {
                total += term;
            } else {
                total -= term;
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// Builds the table by the exact rule: `n_k` = smallest n with
    /// `miss_probability(k + 1, n) ≤ alpha`, for k = 1 ..= max_k.
    ///
    /// Uncached: every call scans afresh. The named tables
    /// ([`StoppingPoints::mda95`] and friends) memoize their result.
    pub fn exact(alpha: f64, max_k: usize) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(max_k >= 1);
        let mut nks = Vec::with_capacity(max_k);
        let mut n = 1u64;
        for k in 1..=max_k {
            // Monotone in k: start scanning from the previous value.
            while Self::miss_probability(k + 1, n) > alpha {
                n += 1;
            }
            nks.push(n);
        }
        Self { nks, alpha }
    }

    /// The classic 95 % table (α = 0.05): 6, 11, 16, 21, 27, 33, …
    ///
    /// Built once per process by [`StoppingPoints::exact`]: the first
    /// call pays the scan (1.6–2 ms on a 2-CPU x86-64 host), every later
    /// call returns a clone of the same table (~30 ns).
    pub fn mda95() -> Self {
        static TABLE: OnceLock<StoppingPoints> = OnceLock::new();
        TABLE
            .get_or_init(|| Self::exact(0.05, DEFAULT_MAX_BRANCHING))
            .clone()
    }

    /// The 99 % table (α = 0.01).
    ///
    /// Built once per process, like [`StoppingPoints::mda95`]: the first
    /// call costs about 2 ms, later calls a clone.
    pub fn mda99() -> Self {
        static TABLE: OnceLock<StoppingPoints> = OnceLock::new();
        TABLE
            .get_or_init(|| Self::exact(0.01, DEFAULT_MAX_BRANCHING))
            .clone()
    }

    /// The values the paper quotes from Veitch et al.'s Table 1:
    /// n₁ = 9, n₂ = 17, n₄ = 33 (n₃ = 25 interpolating the arithmetic
    /// progression), extended beyond k = 4 by the exact rule at
    /// α = 0.0039, the bound consistent with those pinned values.
    ///
    /// Built once per process, like [`StoppingPoints::mda95`]: the first
    /// call costs about 2 ms, later calls a clone.
    pub fn veitch_table1() -> Self {
        static TABLE: OnceLock<StoppingPoints> = OnceLock::new();
        TABLE.get_or_init(Self::build_veitch_table1).clone()
    }

    fn build_veitch_table1() -> Self {
        let alpha = 0.0039;
        let extended = Self::exact(alpha, DEFAULT_MAX_BRANCHING);
        let mut nks = extended.nks;
        nks[0] = 9;
        nks[1] = 17;
        nks[2] = 25;
        nks[3] = 33;
        // Keep the table monotone where the pinned prefix meets the tail.
        for k in 4..nks.len() {
            if nks[k] < nks[k - 1] {
                nks[k] = nks[k - 1];
            }
        }
        Self { nks, alpha }
    }

    /// The stopping point n_k after `k` successors have been found.
    ///
    /// # Panics
    /// Panics if `k` is 0 or beyond the table.
    pub fn n(&self, k: usize) -> u64 {
        assert!(k >= 1, "stopping points are defined for k >= 1");
        self.nks[k - 1]
    }

    /// Largest branching factor the table covers.
    pub fn max_k(&self) -> usize {
        self.nks.len()
    }

    /// The failure bound the table was built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The raw table (nks[k-1] = n_k), for the analytic calculator.
    pub fn as_slice(&self) -> &[u64] {
        &self.nks
    }

    /// Lower bound on the probes a stop-set short-circuit saves when
    /// `hops_skipped` hops go unprobed: each skipped hop would have cost
    /// at least n₁ probes under this table (more if it branched, so the
    /// estimate is conservative). Feeds the `probes_elided` accounting
    /// of Doubletree-style sweeps.
    pub fn elision_estimate(&self, hops_skipped: u64) -> u64 {
        hops_skipped.saturating_mul(self.n(1))
    }

    /// True if probing should stop: `probes` sent with `k` distinct
    /// successors seen has reached the stopping point. Saturates at the
    /// table end (stop immediately beyond the modelled branching).
    pub fn should_stop(&self, k: usize, probes: u64) -> bool {
        if k == 0 {
            return false;
        }
        if k > self.nks.len() {
            return true;
        }
        probes >= self.n(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_95_table() {
        let sp = StoppingPoints::mda95();
        assert_eq!(&sp.as_slice()[..6], &[6, 11, 16, 21, 27, 33]);
    }

    #[test]
    fn classic_99_table_is_larger() {
        let sp95 = StoppingPoints::mda95();
        let sp99 = StoppingPoints::mda99();
        for k in 1..=16 {
            assert!(sp99.n(k) > sp95.n(k), "k={k}");
        }
    }

    #[test]
    fn veitch_pinned_values() {
        let sp = StoppingPoints::veitch_table1();
        assert_eq!(sp.n(1), 9);
        assert_eq!(sp.n(2), 17);
        assert_eq!(sp.n(3), 25);
        assert_eq!(sp.n(4), 33);
        // Paper's worked probe counts (Sec. 2.1 / 2.3.1).
        assert_eq!(11 * sp.n(1), 99);
        assert_eq!(8 * sp.n(2) + 3 * sp.n(1), 163);
        assert_eq!(sp.n(4) + sp.n(2) + 2 * sp.n(1), 68);
    }

    #[test]
    fn tables_monotone() {
        for sp in [
            StoppingPoints::mda95(),
            StoppingPoints::mda99(),
            StoppingPoints::veitch_table1(),
        ] {
            let s = sp.as_slice();
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    fn assert_same_table(got: &StoppingPoints, want: &StoppingPoints) {
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(got.alpha(), want.alpha());
    }

    #[test]
    fn named_tables_equal_the_uncached_builder() {
        assert_same_table(
            &StoppingPoints::mda95(),
            &StoppingPoints::exact(0.05, DEFAULT_MAX_BRANCHING),
        );
        assert_same_table(
            &StoppingPoints::mda99(),
            &StoppingPoints::exact(0.01, DEFAULT_MAX_BRANCHING),
        );
        // Veitch: the pinned n₁..n₄, then the α = 0.0039 tail kept monotone.
        let tail = StoppingPoints::exact(0.0039, DEFAULT_MAX_BRANCHING);
        let mut want = vec![9, 17, 25, 33];
        for &n in &tail.as_slice()[4..] {
            want.push(n.max(*want.last().unwrap()));
        }
        let veitch = StoppingPoints::veitch_table1();
        assert_eq!(veitch.as_slice(), &want[..]);
        assert_eq!(veitch.alpha(), 0.0039);
        // Repeated calls keep returning the same table.
        assert_same_table(&StoppingPoints::veitch_table1(), &veitch);
    }

    #[test]
    fn named_tables_agree_across_threads() {
        let named: [fn() -> StoppingPoints; 3] = [
            StoppingPoints::mda95,
            StoppingPoints::mda99,
            StoppingPoints::veitch_table1,
        ];
        const THREADS: usize = 4;
        for build in named {
            // Release every thread at once so they race on the first call.
            let start = std::sync::Barrier::new(THREADS);
            let tables: Vec<StoppingPoints> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            build()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for table in &tables[1..] {
                assert_same_table(table, &tables[0]);
            }
        }
    }

    #[test]
    fn miss_probability_closed_forms() {
        // Two successors: P = 2 * (1/2)^n.
        let p = StoppingPoints::miss_probability(2, 6);
        assert!((p - 2.0 * 0.5f64.powi(6)).abs() < 1e-12);
        // Bound check at the stopping point.
        assert!(StoppingPoints::miss_probability(2, 6) <= 0.05);
        assert!(StoppingPoints::miss_probability(2, 5) > 0.05);
    }

    #[test]
    fn miss_probability_three() {
        // Three successors: P = 3(2/3)^n - 3(1/3)^n.
        let n = 11u64;
        let expected = 3.0 * (2f64 / 3.0).powi(n as i32) - 3.0 * (1f64 / 3.0).powi(n as i32);
        assert!((StoppingPoints::miss_probability(3, n) - expected).abs() < 1e-12);
        assert!(StoppingPoints::miss_probability(3, 11) <= 0.05);
        assert!(StoppingPoints::miss_probability(3, 10) > 0.05);
    }

    #[test]
    fn miss_probability_single_successor() {
        assert_eq!(StoppingPoints::miss_probability(1, 1), 0.0);
        assert_eq!(StoppingPoints::miss_probability(1, 0), 1.0);
    }

    #[test]
    fn elision_estimate_is_n1_per_hop() {
        let sp = StoppingPoints::mda95();
        assert_eq!(sp.elision_estimate(0), 0);
        assert_eq!(sp.elision_estimate(7), 7 * 6);
        assert_eq!(StoppingPoints::veitch_table1().elision_estimate(3), 27);
    }

    #[test]
    fn should_stop_logic() {
        let sp = StoppingPoints::mda95();
        assert!(!sp.should_stop(1, 5));
        assert!(sp.should_stop(1, 6));
        assert!(!sp.should_stop(2, 10));
        assert!(sp.should_stop(2, 11));
        assert!(!sp.should_stop(0, 1_000_000));
        // Beyond the table: stop.
        assert!(sp.should_stop(sp.max_k() + 1, 0));
    }

    #[test]
    fn exact_table_respects_alpha_pointwise() {
        let alpha = 0.02;
        let sp = StoppingPoints::exact(alpha, 20);
        for k in 1..=20 {
            let n = sp.n(k);
            assert!(StoppingPoints::miss_probability(k + 1, n) <= alpha);
            assert!(StoppingPoints::miss_probability(k + 1, n - 1) > alpha);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = StoppingPoints::exact(0.0, 4);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn n_zero_rejected() {
        let _ = StoppingPoints::mda95().n(0);
    }
}
