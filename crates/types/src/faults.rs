//! Deterministic fault injection: the typed plan and its seeded engine.
//!
//! PTEMagnet's robustness story (§4.2–§4.4) lives in its degradation paths:
//! fall back to a single-frame allocation when no aligned 8-page chunk
//! exists, reclaim reservations under memory pressure, survive host swap-out
//! of reserved-unused frames. A [`FaultPlan`] describes, as plain data, the
//! adverse conditions that force those paths: per-allocation failure
//! probabilities and scheduled triggers (fragmentation shocks, reclaim
//! storms, swap-out events). A [`FaultInjector`] executes the probabilistic
//! part with its own seeded generator, so a faulted run is a pure function
//! of `(plan, run seed)` — bit-reproducible regardless of `VMSIM_THREADS`.
//!
//! This module lives in `vmsim-types` (not a crate of its own) because the
//! buddy allocator — the lowest layer that consumes injections — may depend
//! only on this crate.

/// A declarative description of the faults to inject into a run.
///
/// All rates are per-relevant-operation probabilities in `[0, 1]`; all
/// `*_every` fields are operation-count periods (`Some(n)` fires on every
/// n-th memory operation). The default plan injects nothing, and a plan
/// whose [`is_zero`](Self::is_zero) holds is guaranteed not to perturb a run
/// at all — the injector never draws from its generator for zero rates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's own generator, mixed with the run seed.
    pub seed: u64,
    /// Probability that a contiguous-chunk allocation (buddy order ≥ 1)
    /// fails even though memory is available — models external
    /// fragmentation denying the order-3 reservation chunk (§4.2).
    pub chunk_fail_rate: f64,
    /// Probability that a single-frame allocation (buddy order 0) fails —
    /// models transient OOM forcing the reclaim-and-retry path.
    pub oom_rate: f64,
    /// Every n-th op, shatter the guest free lists down to
    /// [`frag_shock_order`](Self::frag_shock_order): a fragmentation shock
    /// that destroys contiguity without changing the free-frame count.
    pub frag_shock_every: Option<u64>,
    /// Largest block order left intact by a fragmentation shock.
    pub frag_shock_order: u32,
    /// Every n-th op, force a reclaim storm draining up to
    /// [`reclaim_storm_frames`](Self::reclaim_storm_frames) reserved-unused
    /// frames (the §4.3 daemon firing regardless of watermarks).
    pub reclaim_storm_every: Option<u64>,
    /// Frame budget of each forced reclaim storm.
    pub reclaim_storm_frames: u64,
    /// Every n-th op, the host targets one reserved-unused frame for
    /// swap-out, triggering the §4.4 release hook.
    pub swap_out_every: Option<u64>,
    /// Free-memory fraction below which a reclaim-daemon pass runs after
    /// each op (paired with [`daemon_restore_to`](Self::daemon_restore_to)).
    pub daemon_threshold: Option<f64>,
    /// Free-memory fraction the daemon pass restores to. Must satisfy
    /// `0 ≤ threshold ≤ restore_to ≤ 1`; enforced at manifest validation.
    pub daemon_restore_to: Option<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            chunk_fail_rate: 0.0,
            oom_rate: 0.0,
            frag_shock_every: None,
            frag_shock_order: 0,
            reclaim_storm_every: None,
            reclaim_storm_frames: 0,
            swap_out_every: None,
            daemon_threshold: None,
            daemon_restore_to: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the [`Default`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan can never inject a fault. A zero plan is
    /// guaranteed bit-identical to running with no plan at all.
    pub fn is_zero(&self) -> bool {
        self.chunk_fail_rate <= 0.0
            && self.oom_rate <= 0.0
            && self.frag_shock_every.is_none()
            && self.reclaim_storm_every.is_none()
            && self.swap_out_every.is_none()
            && self.daemon_threshold.is_none()
    }
}

/// Counters of what the injector actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Contiguous-chunk (order ≥ 1) allocations denied.
    pub chunk_denials: u64,
    /// Single-frame (order 0) allocations denied.
    pub oom_denials: u64,
}

impl FaultStats {
    /// Total allocations denied by injection.
    pub fn injected(&self) -> u64 {
        self.chunk_denials + self.oom_denials
    }
}

/// The seeded engine executing the probabilistic part of a [`FaultPlan`].
///
/// Uses a self-contained xorshift64* generator (this crate cannot depend on
/// an RNG crate), so the decision stream is a pure function of the mixed
/// seed. Rolling a rate ≤ 0 never draws from the generator — the load-bearing
/// property behind the zero-rate differential guarantee.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    chunk_fail_rate: f64,
    oom_rate: f64,
    state: u64,
    /// While > 0, every roll reports "no fault" without drawing — used by
    /// the reclaim-and-retry degradation path so the retried allocation
    /// cannot be re-denied forever.
    suppress: u32,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector for `plan`, mixing the plan seed with the run
    /// seed so distinct runs of the same plan see distinct decision streams.
    pub fn new(plan: &FaultPlan, run_seed: u64) -> Self {
        // SplitMix64 finalizer over the combined seed; xorshift state must
        // be nonzero.
        let mut z = plan
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(run_seed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self {
            chunk_fail_rate: plan.chunk_fail_rate,
            oom_rate: plan.oom_rate,
            state: if z == 0 { 0x2545_f491_4f6c_dd1d } else { z },
            suppress: 0,
            stats: FaultStats::default(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Draws a uniform `[0, 1)` sample — only called for positive rates.
    fn next_unit(&mut self) -> f64 {
        // 53 significant bits, the standard u64 → f64 unit-interval map.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 || self.suppress > 0 {
            return false;
        }
        self.next_unit() < rate
    }

    /// Decides whether a buddy allocation of `order` is denied by
    /// injection, counting the denial if so.
    pub fn should_fail_alloc(&mut self, order: u32) -> bool {
        if order == 0 {
            if self.roll(self.oom_rate) {
                self.stats.oom_denials += 1;
                return true;
            }
        } else if self.roll(self.chunk_fail_rate) {
            self.stats.chunk_denials += 1;
            return true;
        }
        false
    }

    /// Disables injection until the matching [`pop_suppress`]
    /// (re-entrant).
    ///
    /// [`pop_suppress`]: Self::pop_suppress
    pub fn push_suppress(&mut self) {
        self.suppress += 1;
    }

    /// Re-enables injection disabled by [`push_suppress`](Self::push_suppress).
    pub fn pop_suppress(&mut self) {
        self.suppress = self.suppress.saturating_sub(1);
    }

    /// What the injector has denied so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_zero() {
        assert!(FaultPlan::default().is_zero());
        assert!(FaultPlan::none().is_zero());
    }

    #[test]
    fn any_rate_or_trigger_makes_plan_nonzero() {
        let p = FaultPlan {
            chunk_fail_rate: 0.1,
            ..FaultPlan::default()
        };
        assert!(!p.is_zero());
        let p = FaultPlan {
            reclaim_storm_every: Some(100),
            ..FaultPlan::default()
        };
        assert!(!p.is_zero());
        let p = FaultPlan {
            daemon_threshold: Some(0.2),
            ..FaultPlan::default()
        };
        assert!(!p.is_zero());
    }

    #[test]
    fn zero_rates_never_advance_the_generator() {
        let plan = FaultPlan::default();
        let mut inj = FaultInjector::new(&plan, 42);
        let before = inj.state;
        for order in [0u32, 1, 3, 10] {
            assert!(!inj.should_fail_alloc(order));
        }
        assert_eq!(inj.state, before, "zero rates must not draw");
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn rate_one_always_fails_and_counts() {
        let plan = FaultPlan {
            chunk_fail_rate: 1.0,
            oom_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 7);
        assert!(inj.should_fail_alloc(3));
        assert!(inj.should_fail_alloc(0));
        let s = inj.stats();
        assert_eq!(s.chunk_denials, 1);
        assert_eq!(s.oom_denials, 1);
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn decision_stream_is_a_function_of_seeds() {
        let plan = FaultPlan {
            chunk_fail_rate: 0.5,
            ..FaultPlan::default()
        };
        let decisions = |run_seed: u64| -> Vec<bool> {
            let mut inj = FaultInjector::new(&plan, run_seed);
            (0..64).map(|_| inj.should_fail_alloc(3)).collect()
        };
        assert_eq!(decisions(1), decisions(1), "same seeds, same stream");
        assert_ne!(decisions(1), decisions(2), "run seed perturbs the stream");
        let mid = FaultPlan { seed: 9, ..plan };
        let mut a = FaultInjector::new(&mid, 1);
        let sa: Vec<bool> = (0..64).map(|_| a.should_fail_alloc(3)).collect();
        assert_ne!(decisions(1), sa, "plan seed perturbs the stream");
    }

    #[test]
    fn suppression_disables_and_restores_injection() {
        let plan = FaultPlan {
            oom_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 0);
        inj.push_suppress();
        assert!(!inj.should_fail_alloc(0));
        inj.push_suppress();
        inj.pop_suppress();
        assert!(!inj.should_fail_alloc(0), "still suppressed (re-entrant)");
        inj.pop_suppress();
        assert!(inj.should_fail_alloc(0));
        assert_eq!(inj.stats().oom_denials, 1);
    }
}
