//! Deterministic fault injection for the session engine.
//!
//! Production deployments of VOCALExplore face GPU extraction errors,
//! training-backend failures, and storage I/O faults. To test that the
//! session engine *degrades* instead of wedging — and to keep the repo's
//! bit-identical-replay discipline while doing so — faults are injected by a
//! seeded plan that decides failure as a **pure function** of
//! `(seed, site, key, attempt)`:
//!
//! * no wall clock and no mutable RNG stream, so the decision for a given
//!   operation is the same at any worker/thread count and on any replay;
//! * per-operation attempt numbering restarts at zero, so an operation's fate
//!   ("succeeds immediately", "succeeds after k retries", "permanently
//!   failed") is a deterministic constant of the plan — retrying the same
//!   operation later replays the identical outcome;
//! * a [`FaultRule::fail_limit`] bounds consecutive failures, which makes
//!   **fault transparency** provable: a plan whose limit is below the retry
//!   budget always succeeds within the budget, so the run's state transitions
//!   are bit-identical to a fault-free run.
//!
//! The injector itself is shared (behind an `Arc`) between the feature
//! manager, model manager, and session runner; the only mutable state is a
//! per-site injection counter kept for observability, which never feeds back
//! into decisions.

use crate::executor::RetryPolicy;
use parking_lot::Mutex;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Simulated GPU error during feature extraction (`FeatureManager`).
    FeatureExtraction,
    /// Training-backend failure (`ModelManager::train`).
    Training,
    /// Batch probability inference for sample selection.
    BatchInference,
    /// Row inference for a single segment prediction.
    RowInference,
}

impl FaultSite {
    /// Every injection site, in declaration order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::FeatureExtraction,
        FaultSite::Training,
        FaultSite::BatchInference,
        FaultSite::RowInference,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::FeatureExtraction => 0,
            FaultSite::Training => 1,
            FaultSite::BatchInference => 2,
            FaultSite::RowInference => 3,
        }
    }
}

/// Failure behavior at one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Per-attempt failure probability in `[0, 1]`.
    pub probability: f64,
    /// Attempts at or beyond this index always succeed, bounding the number
    /// of consecutive failures any single operation can see. `None` means a
    /// key can fail at every attempt — permanent faults become possible.
    pub fail_limit: Option<u32>,
}

impl FaultRule {
    /// A rule that can fail any attempt forever (permanent faults possible).
    pub fn permanent(probability: f64) -> Self {
        Self {
            probability,
            fail_limit: None,
        }
    }

    /// A rule bounded to at most `limit` consecutive failures. With
    /// `limit <= retry_budget - 1` every operation succeeds within its
    /// budget, making the plan transparent to the final state.
    pub fn transient(probability: f64, limit: u32) -> Self {
        Self {
            probability,
            fail_limit: Some(limit),
        }
    }
}

/// A seeded, declarative fault schedule: one optional rule per site.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    rules: [Option<FaultRule>; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// An empty plan (no site ever fails).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: [None; FaultSite::ALL.len()],
        }
    }

    /// Installs `rule` at `site`.
    pub fn with_rule(mut self, site: FaultSite, rule: FaultRule) -> Self {
        self.rules[site.index()] = Some(rule);
        self
    }

    /// A plan applying the same rule at every site.
    pub fn uniform(seed: u64, rule: FaultRule) -> Self {
        let mut plan = Self::new(seed);
        for site in FaultSite::ALL {
            plan.rules[site.index()] = Some(rule);
        }
        plan
    }

    /// The rule at `site`, if any.
    pub fn rule(&self, site: FaultSite) -> Option<FaultRule> {
        self.rules[site.index()]
    }

    /// Whether every installed rule has `fail_limit <= budget - 1`, i.e. the
    /// plan is provably invisible to a caller retrying `budget` times.
    pub fn transparent_under(&self, budget: u32) -> bool {
        self.rules.iter().flatten().all(|r| match r.fail_limit {
            Some(limit) => limit < budget,
            None => false,
        })
    }
}

/// One injected failure, as surfaced to typed error enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Site the failure was injected at.
    pub site: FaultSite,
    /// Operation key the decision was hashed over.
    pub key: u64,
    /// Attempt index (0-based) that failed.
    pub attempt: u32,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault at {:?} (key {}, attempt {})",
            self.site, self.key, self.attempt
        )
    }
}

impl std::error::Error for InjectedFault {}

/// Decides and counts injected failures for a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-site injected-failure counters — observability only, never read by
    /// decision logic.
    injected: Mutex<[u64; FaultSite::ALL.len()]>,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            injected: Mutex::new([0; FaultSite::ALL.len()]),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether attempt `attempt` of the operation identified by `key` at
    /// `site` fails. Pure in `(plan, site, key, attempt)`; the injected
    /// counter bump is the only side effect.
    pub fn should_fail(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        let Some(rule) = self.plan.rule(site) else {
            return false;
        };
        if let Some(limit) = rule.fail_limit {
            if attempt >= limit {
                return false;
            }
        }
        let h = decision_hash(self.plan.seed, site.index() as u64, key, u64::from(attempt));
        // Top 53 bits → uniform f64 in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fail = unit < rule.probability;
        if fail {
            self.injected.lock()[site.index()] += 1;
        }
        fail
    }

    /// Runs one operation's attempts through `policy`'s retry loop:
    /// `Ok` as soon as an attempt is allowed through, `Err(attempts)` once
    /// the whole budget was burned.
    pub fn gate(&self, site: FaultSite, key: u64, policy: &RetryPolicy) -> Result<(), u32> {
        let (attempts, allowed) = policy.run(|attempt| {
            if self.should_fail(site, key, attempt) {
                Err(())
            } else {
                Ok(())
            }
        });
        allowed.map_err(|()| attempts)
    }

    /// Failures injected at `site` so far.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected.lock()[site.index()]
    }

    /// Total failures injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.lock().iter().sum::<u64>()
    }
}

/// SplitMix64-style avalanche over the four decision inputs.
fn decision_hash(seed: u64, site: u64, key: u64, attempt: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(site.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(key.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(attempt.wrapping_add(1));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::uniform(7, FaultRule::permanent(0.5)));
        let b = FaultInjector::new(FaultPlan::uniform(7, FaultRule::permanent(0.5)));
        let c = FaultInjector::new(FaultPlan::uniform(8, FaultRule::permanent(0.5)));
        let mut differs = false;
        for key in 0..64 {
            for attempt in 0..4 {
                let site = FaultSite::FeatureExtraction;
                assert_eq!(
                    a.should_fail(site, key, attempt),
                    b.should_fail(site, key, attempt),
                    "same plan must decide identically"
                );
                // Repeat calls replay the same decision.
                assert_eq!(
                    a.should_fail(site, key, attempt),
                    b.should_fail(site, key, attempt)
                );
                if a.should_fail(site, key, attempt) != c.should_fail(site, key, attempt) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must produce different schedules");
    }

    #[test]
    fn empty_plan_never_fails() {
        let inj = FaultInjector::new(FaultPlan::new(1));
        for site in FaultSite::ALL {
            for key in 0..32 {
                assert!(!inj.should_fail(site, key, 0));
            }
        }
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn fail_limit_caps_consecutive_failures() {
        let inj = FaultInjector::new(FaultPlan::uniform(3, FaultRule::transient(1.0, 2)));
        for key in 0..32 {
            assert!(inj.should_fail(FaultSite::Training, key, 0));
            assert!(inj.should_fail(FaultSite::Training, key, 1));
            assert!(
                !inj.should_fail(FaultSite::Training, key, 2),
                "attempt at the limit must succeed"
            );
        }
    }

    #[test]
    fn transparency_predicate_matches_rules() {
        assert!(FaultPlan::uniform(1, FaultRule::transient(0.9, 2)).transparent_under(3));
        assert!(!FaultPlan::uniform(1, FaultRule::transient(0.9, 3)).transparent_under(3));
        assert!(!FaultPlan::uniform(1, FaultRule::permanent(0.1)).transparent_under(100));
        assert!(
            FaultPlan::new(1).transparent_under(1),
            "no rules, no faults"
        );
    }

    #[test]
    fn probability_extremes_and_counters() {
        let always = FaultInjector::new(
            FaultPlan::new(5).with_rule(FaultSite::RowInference, FaultRule::permanent(1.0)),
        );
        let never = FaultInjector::new(
            FaultPlan::new(5).with_rule(FaultSite::RowInference, FaultRule::permanent(0.0)),
        );
        for key in 0..16 {
            assert!(always.should_fail(FaultSite::RowInference, key, 0));
            assert!(!never.should_fail(FaultSite::RowInference, key, 0));
            // Uncovered sites never fail even at probability 1.
            assert!(!always.should_fail(FaultSite::Training, key, 0));
        }
        assert_eq!(always.injected_at(FaultSite::RowInference), 16);
        assert_eq!(always.total_injected(), 16);
        assert_eq!(never.total_injected(), 0);
    }

    /// Recorded `should_fail` verdicts for every site: bit `key * 3 +
    /// attempt` of each mask is set when that attempt fails under
    /// `FaultRule::permanent(0.5)`. The site index feeds the decision hash,
    /// so renumbering a site (or touching the hash) changes its row, and
    /// every recorded fault plan would stop replaying.
    #[test]
    fn surviving_sites_keep_their_verdicts() {
        const GOLDEN: [(FaultSite, u64, u64); 8] = [
            (FaultSite::FeatureExtraction, 1, 0x9E3D_5417_21EC),
            (FaultSite::FeatureExtraction, 42, 0x4181_D732_0AAA),
            (FaultSite::Training, 1, 0x9191_ABD2_6BE3),
            (FaultSite::Training, 42, 0xAE5D_2BC6_499B),
            (FaultSite::BatchInference, 1, 0xB057_5C7E_355D),
            (FaultSite::BatchInference, 42, 0xB0B4_543F_0254),
            (FaultSite::RowInference, 1, 0x8DFE_85A3_068F),
            (FaultSite::RowInference, 42, 0x5B32_F9B3_5790),
        ];
        for (site, seed, expected) in GOLDEN {
            let inj = FaultInjector::new(FaultPlan::uniform(seed, FaultRule::permanent(0.5)));
            let mut mask = 0u64;
            for key in 0..16u64 {
                for attempt in 0..3u32 {
                    if inj.should_fail(site, key, attempt) {
                        mask |= 1 << (key * 3 + u64::from(attempt));
                    }
                }
            }
            assert_eq!(mask, expected, "{site:?} verdicts moved at seed {seed}");
        }
    }

    #[test]
    fn moderate_probability_fails_some_but_not_all_keys() {
        let inj = FaultInjector::new(FaultPlan::uniform(11, FaultRule::permanent(0.5)));
        let fails = (0..256)
            .filter(|&k| inj.should_fail(FaultSite::RowInference, k, 0))
            .count();
        assert!(
            (64..192).contains(&fails),
            "p=0.5 over 256 keys should fail roughly half, got {fails}"
        );
    }
}
