//! `HoldUntilDeadline`: pays the inner policy's full inference at every
//! decision but submits only when the predecessor is about to end, so
//! the number of decisions in an episode depends on the trace and never
//! on the weights.

use mirage::core::{Action, DecisionContext, ProvisionPolicy};

/// The rule on its own, shared with the recomposed (traced) decision
/// loop: submit once the running predecessor has at most one decision
/// interval left.
pub fn hold_rule(ctx: &DecisionContext, decision_interval: i64) -> Action {
    if ctx.pred_started && ctx.pred_remaining <= decision_interval {
        Action::Submit
    } else {
        Action::Wait
    }
}

pub struct HoldUntilDeadline<P> {
    pub inner: P,
    pub decision_interval: i64,
    /// Decisions taken, and how many of them the inner policy wanted to
    /// submit at (kept so its answer is used, and for the digest).
    pub decisions: u64,
    pub inner_submits: u64,
    /// Σ queue depth / running jobs seen at decisions.
    pub queued_sum: u64,
    pub running_sum: u64,
    /// Running hash of the inner policy's answers, in order.
    pub trail: u64,
}

impl<P: ProvisionPolicy> HoldUntilDeadline<P> {
    pub fn new(inner: P, decision_interval: i64) -> Self {
        Self {
            inner,
            decision_interval,
            decisions: 0,
            inner_submits: 0,
            queued_sum: 0,
            running_sum: 0,
            trail: 0,
        }
    }

    pub fn decide(&mut self, ctx: &DecisionContext) -> Action {
        let wanted = self.inner.decide(ctx);
        self.note(wanted, ctx);
        hold_rule(ctx, self.decision_interval)
    }

    /// Books one decision whose inner answer was `wanted` (the traced
    /// loop spells the inner policy out and books through here too).
    pub fn note(&mut self, wanted: Action, ctx: &DecisionContext) {
        self.decisions += 1;
        self.inner_submits += u64::from(wanted == Action::Submit);
        self.queued_sum += ctx.snapshot.queued.len() as u64;
        self.running_sum += ctx.snapshot.running.len() as u64;
        self.trail = (self.trail ^ wanted.index() as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage::core::state::STATE_VARS;
    use mirage::core::{run_episode, DqnPolicy, EpisodeConfig};
    use mirage::nn::foundation::FoundationKind;
    use mirage::rl::{DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet};
    use mirage::sim::{SimConfig, Simulator};
    use mirage::trace::{JobRecord, DAY, HOUR};

    #[test]
    fn decision_count_is_independent_of_the_net_seed() {
        let cfg = EpisodeConfig {
            pair_timelimit: 6 * HOUR,
            pair_runtime: 6 * HOUR,
            decision_interval: 600,
            history_k: 4,
            warmup: DAY,
            ..EpisodeConfig::default()
        };
        // Enough 2-node background work on 4 nodes that the pair queues.
        let trace: Vec<JobRecord> = (0..96)
            .map(|i| {
                JobRecord::new(
                    i + 1,
                    format!("bg{i}"),
                    3,
                    i as i64 * HOUR / 2,
                    2,
                    4 * HOUR,
                    3 * HOUR,
                )
            })
            .collect();
        let mut counts = Vec::new();
        let mut inner_submits = Vec::new();
        for net_seed in [1u64, 2, 3, 4, 5, 6] {
            let net = DualHeadNet::new(DualHeadConfig::small(
                FoundationKind::Transformer,
                STATE_VARS,
                cfg.history_k,
                net_seed,
            ));
            let mut policy = HoldUntilDeadline::new(
                DqnPolicy {
                    agent: DqnAgent::new(net, DqnConfig::default()),
                    label: "dqn".into(),
                },
                cfg.decision_interval,
            );
            let mut sim = Simulator::new(SimConfig::new(4));
            let r = run_episode(&mut sim, &trace, &cfg, 36 * HOUR, |ctx| policy.decide(ctx));
            assert!(r.submitted_by_policy);
            assert_eq!(r.decisions.len() as u64, policy.decisions);
            counts.push(policy.decisions);
            inner_submits.push(policy.inner_submits);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(
            counts[0] >= 6 * 6 - 1,
            "episode ran its horizon: {counts:?}"
        );
        assert!(
            inner_submits.windows(2).any(|w| w[0] != w[1]),
            "the seeds should disagree on when to submit, or the test shows nothing: {inner_submits:?}"
        );
    }
}
