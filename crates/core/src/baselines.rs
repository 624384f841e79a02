//! Alternative power-management policies for comparison.
//!
//! The paper motivates software prediction by contrast with two families
//! from its related work: hardware on/off schemes that react to observed
//! idleness (Alonso et al., Kim et al.) and idealised knowledge of link
//! usage (compiler-directed schemes, Li et al.). [`Baseline`] implements
//! both ends of that spectrum, plus a pattern-blind predictor between
//! them, so the predictive mechanism can be placed among them
//! quantitatively.
//!
//! Every baseline runs one event loop over the rank's stream and hands
//! its predicted idle to the same sleep ledger the PPA runtime uses:
//! the ledger picks the depth under the configured [`PowerPolicy`],
//! computes the Algorithm 3 timer, and charges stalls and low-power time
//! per depth. The arms differ only in where the predicted idle comes
//! from and how the sleep ends. The output is an ordinary
//! [`RankAnnotation`], so the replay engine and the analysis pipeline
//! treat it exactly like the predictive runtime's.
//!
//! [`PowerPolicy`]: crate::config::PowerPolicy

use crate::config::PowerConfig;
use crate::ledger::{SleepLedger, Wake};
use crate::runtime::RankAnnotation;
use crate::stats::RankStats;
use crate::TraceAnnotations;
use ibp_simcore::SimDuration;
use ibp_trace::{RankTrace, Trace};
use std::collections::VecDeque;

/// A non-predictive power-management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Perfect knowledge of every idle interval: lanes shut down at the
    /// start of each exploitable gap and wake *exactly* on time (zero
    /// displacement), with no mispredictions and no software overhead.
    /// The unreachable upper bound on savings at zero slowdown.
    Oracle,
    /// The hardware baseline: lanes shut down once the link has been
    /// idle for `timeout` (τ) and wake *on demand* when the next
    /// communication arrives, stalling it for a full reactivation. It
    /// exploits every gap longer than `τ + 2·T_react`, predictable or
    /// not, but pays the reactivation latency on the critical path every
    /// time — the trade-off the paper's introduction describes. `τ = 0`
    /// shuts down right after every call.
    Reactive {
        /// Idleness threshold before the lanes go down.
        timeout: SimDuration,
    },
    /// A history-window predictor (the hardware DVS-style policy of
    /// Shang et al., [7] in the paper): the next idle is predicted as the
    /// mean of the last `window` observed gaps, with no notion of
    /// patterns, and Algorithm 3's timer is applied to it. It wakes
    /// proactively, unlike the reactive policy, but at every transition
    /// between long-gap and short-gap program phases the sliding mean is
    /// wrong, and the stalls and lost windows land exactly there.
    History {
        /// Number of past gaps averaged (at least one).
        window: usize,
    },
}

impl Baseline {
    /// Annotate one rank with this policy.
    ///
    /// # Panics
    /// Panics on a [`Baseline::History`] with an empty window.
    pub fn annotate_rank(&self, trace: &RankTrace, cfg: &PowerConfig) -> RankAnnotation {
        if let Baseline::History { window } = *self {
            assert!(window > 0, "history window must be non-empty");
        }
        let n = trace.call_count();
        let mut ledger = SleepLedger::new(true, None);
        ledger.reserve(n);
        let mut stats = RankStats {
            total_calls: n as u64,
            ..RankStats::default()
        };
        if *self == Baseline::Oracle {
            // The oracle "predicts" everything correctly.
            stats.predicted_calls = n as u64;
            stats.correct_calls = n as u64;
        }
        let mut history: VecDeque<u64> = VecDeque::new();
        for (i, ev) in trace.events.iter().enumerate() {
            let gap = ev.compute_before;
            stats.nominal_duration += gap;
            let stall = ledger.wake(cfg, &mut stats, gap).unwrap_or_default();
            ledger.close_event(SimDuration::ZERO, stall);

            // Sleep through the gap before the next event, if any.
            let Some(next) = trace.events.get(i + 1) else {
                break;
            };
            let (delay, predicted_idle, wake) = match *self {
                Baseline::Oracle => (
                    SimDuration::ZERO,
                    next.compute_before,
                    Wake::Timer { displacement: 0.0 },
                ),
                // The hardware sees the gap as it happens: off after τ,
                // on when the next call arrives.
                Baseline::Reactive { timeout } => (timeout, next.compute_before, Wake::Demand),
                Baseline::History { window } => {
                    history.push_back(gap.as_ns());
                    if history.len() > window {
                        history.pop_front();
                    }
                    let mean_ns = history.iter().sum::<u64>() / history.len() as u64;
                    (
                        SimDuration::ZERO,
                        SimDuration::from_ns(mean_ns),
                        Wake::Timer {
                            displacement: cfg.displacement,
                        },
                    )
                }
            };
            ledger.sleep(cfg, &mut stats, i, delay, predicted_idle, wake);
        }
        stats.nominal_duration += trace.final_compute;
        ledger.into_annotation(trace.rank, stats)
    }

    /// Annotate every rank of `trace`, `jobs` ranks at a time; the
    /// output is identical for any `jobs`.
    pub fn annotate_trace(
        &self,
        trace: &Trace,
        cfg: &PowerConfig,
        jobs: usize,
    ) -> TraceAnnotations {
        TraceAnnotations {
            ranks: crate::annotate::map_ranks(&trace.ranks, jobs, |r| self.annotate_rank(r, cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PowerPolicy, SleepKind};
    use ibp_trace::{MpiOp, TraceBuilder};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    /// One rank, alternating 500 µs and 10 µs gaps.
    fn mixed_trace() -> Trace {
        let mut b = TraceBuilder::new("mixed", 1);
        for i in 0..20 {
            b.compute(0, if i % 2 == 0 { us(500) } else { us(10) });
            b.op(0, MpiOp::Barrier);
        }
        b.build()
    }

    #[test]
    fn oracle_exploits_every_large_gap_without_penalty() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let ann = Baseline::Oracle.annotate_rank(&t.ranks[0], &cfg);
        // 9 large gaps follow a previous event (the first event's gap has
        // no preceding event to anchor the directive on).
        assert_eq!(ann.directives.len(), 9);
        assert!(ann.penalty.iter().all(|p| p.is_zero()));
        assert!(ann.overhead.iter().all(|o| o.is_zero()));
        for d in &ann.directives {
            assert_eq!(d.timer, us(490));
        }
        assert_eq!(ann.stats.hit_rate_pct(), 100.0);
    }

    #[test]
    fn reactive_pays_treact_on_every_exploited_gap() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let ann = Baseline::Reactive { timeout: us(50) }.annotate_rank(&t.ranks[0], &cfg);
        assert_eq!(ann.directives.len(), 9);
        let stalls = ann.penalty.iter().filter(|p| !p.is_zero()).count();
        assert_eq!(stalls, 9);
        assert!(ann.penalty.iter().all(|p| *p <= cfg.t_react));
        for d in &ann.directives {
            assert_eq!(d.delay, us(50));
        }
    }

    #[test]
    fn reactive_ignores_gaps_below_timeout() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        // τ = 600 µs: no gap qualifies.
        let ann = Baseline::Reactive { timeout: us(600) }.annotate_rank(&t.ranks[0], &cfg);
        assert!(ann.directives.is_empty());
        assert!(ann.stats.low_power_time.is_zero());
    }

    #[test]
    fn oracle_dominates_prediction_dominates_nothing() {
        // On a perfectly periodic trace, oracle low-power time must be an
        // upper bound on the predictive mechanism's.
        let mut b = TraceBuilder::new("periodic", 1);
        for _ in 0..60 {
            b.compute(0, us(400));
            b.op(0, MpiOp::Barrier);
            b.compute(0, us(300));
            b.op(0, MpiOp::Allreduce { bytes: 8 });
        }
        let t = b.build();
        let cfg = PowerConfig::paper(us(20).max(SimDuration::from_us(20)), 0.01);
        let oracle = Baseline::Oracle.annotate_trace(&t, &cfg, 1);
        let predicted = crate::annotate::annotate_trace(&t, &cfg);
        let o = oracle.aggregate_stats().low_power_time;
        let p = predicted.aggregate_stats().low_power_time;
        assert!(o >= p, "oracle {o} < predictive {p}");
        assert!(!p.is_zero());
    }

    #[test]
    fn history_predictor_stumbles_on_phase_changes() {
        // Alternating 500/10 µs gaps: the sliding mean (window 4) sits
        // around 255 µs — too long for the 10 µs gaps (stall every other
        // call) and far too short for the 500 µs gaps (half the window
        // wasted). The PPA learns the alternation exactly.
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let hist = Baseline::History { window: 4 }.annotate_rank(&t.ranks[0], &cfg);
        assert!(hist.stats.timing_mispredictions > 0, "no stalls?");
        let ppa = crate::runtime::annotate_rank(&t.ranks[0], &cfg);
        // Same trace, steady state: the PPA's per-slot means are exact,
        // so its stall count is lower.
        assert!(
            ppa.stats.timing_mispredictions < hist.stats.timing_mispredictions,
            "ppa {} vs history {}",
            ppa.stats.timing_mispredictions,
            hist.stats.timing_mispredictions
        );
    }

    #[test]
    fn history_predictor_matches_oracle_on_constant_gaps() {
        // Uniform gaps: the sliding mean is exact, so the history policy
        // approaches the oracle (modulo the displacement margin).
        let mut b = TraceBuilder::new("uniform", 1);
        for _ in 0..30 {
            b.compute(0, us(400));
            b.op(0, MpiOp::Barrier);
        }
        let t = b.build();
        let cfg = PowerConfig::default();
        let hist = Baseline::History { window: 8 }.annotate_rank(&t.ranks[0], &cfg);
        let oracle = Baseline::Oracle.annotate_rank(&t.ranks[0], &cfg);
        assert_eq!(hist.stats.timing_mispredictions, 0);
        let h = hist.stats.low_power_time.as_us_f64();
        let o = oracle.stats.low_power_time.as_us_f64();
        assert!(h > 0.8 * o, "history {h} far below oracle {o}");
    }

    #[test]
    fn reactive_zero_timeout_sleeps_longer_but_stalls() {
        // τ=0 reactive actually accumulates MORE low-power time than the
        // zero-slowdown oracle: it lets the wake transition bleed into
        // the next communication (paying a T_react stall) instead of
        // spending it inside the gap. One extra T_react of low power per
        // exploited gap, bought with one T_react of delay — the
        // power/performance trade the paper's introduction describes.
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let oracle = Baseline::Oracle.annotate_rank(&t.ranks[0], &cfg);
        let reactive = Baseline::Reactive {
            timeout: SimDuration::ZERO,
        }
        .annotate_rank(&t.ranks[0], &cfg);
        let extra = reactive.stats.low_power_time - oracle.stats.low_power_time;
        assert_eq!(extra, cfg.t_react * 9, "one T_react per exploited gap");
        assert!(reactive.stats.total_penalty > SimDuration::ZERO);
        assert!(oracle.stats.total_penalty.is_zero());
    }

    /// One rank whose gaps fall in every rung band of the ladder —
    /// 10 µs (nothing), 500 µs (rate), 2 ms (rate), 10 ms (deep) — each
    /// long gap twice in a row, four times over, then 100 µs of compute.
    fn rungs_trace() -> Trace {
        let mut b = TraceBuilder::new("rungs", 1);
        for _ in 0..4 {
            for g in [10, 500, 500, 2_000, 2_000, 10_000, 10_000] {
                b.compute(0, us(g));
                b.op(0, MpiOp::Barrier);
            }
        }
        b.compute(0, us(100));
        b.build()
    }

    #[test]
    fn every_policy_reports_the_same_nominal_duration() {
        let t = rungs_trace();
        let r = &t.ranks[0];
        let expect: SimDuration = r
            .events
            .iter()
            .map(|e| e.compute_before)
            .sum::<SimDuration>()
            + r.final_compute;
        assert_eq!(expect, us(100_140));
        let cfg = PowerConfig::default();
        let ppa = crate::runtime::annotate_rank(r, &cfg);
        assert_eq!(ppa.stats.nominal_duration, expect, "ppa");
        for b in [
            Baseline::Oracle,
            Baseline::Reactive { timeout: us(50) },
            Baseline::History { window: 4 },
        ] {
            assert_eq!(
                b.annotate_rank(r, &cfg).stats.nominal_duration,
                expect,
                "{b:?}"
            );
        }
    }

    /// Under a deep or laddered policy every baseline sleeps at the depth
    /// the planner picks for its predicted idle, stalls a call by at most
    /// that depth's reactivation time, and books its spans per depth.
    #[test]
    fn baselines_follow_the_sleep_depth_policy() {
        let t = rungs_trace();
        let r = &t.ranks[0];
        // (timing misses, lane-offs, wrps/rate/deep time, stall), in µs.
        let stats = |timing, lane_offs, wrps, rate, deep, stall| RankStats {
            total_calls: 28,
            timing_mispredictions: timing,
            lane_off_count: lane_offs,
            low_power_time: us(wrps),
            rate_time: us(rate),
            deep_time: us(deep),
            total_penalty: us(stall),
            nominal_duration: us(100_140),
            ..RankStats::default()
        };
        let oracle = |s: RankStats| RankStats {
            predicted_calls: 28,
            correct_calls: 28,
            ..s
        };
        let deep = PowerConfig::default().with_deep_sleep(SimDuration::from_ms(5));
        let ladder = PowerConfig::default().with_ladder();
        let reactive = Baseline::Reactive { timeout: us(50) };
        let history = Baseline::History { window: 1 };
        let cases = [
            (
                &deep,
                Baseline::Oracle,
                oracle(stats(0, 24, 19_680, 0, 64_000, 0)),
            ),
            (&deep, reactive, stats(24, 24, 19_040, 0, 71_600, 8_160)),
            (&deep, history, stats(3, 23, 17_680, 0, 28_000, 3_000)),
            (
                &ladder,
                Baseline::Oracle,
                oracle(stats(0, 24, 0, 16_800, 64_000, 0)),
            ),
            (
                &ladder,
                reactive,
                stats(24, 24, 3_520, 14_800, 71_600, 8_880),
            ),
            (&ladder, history, stats(3, 23, 0, 14_800, 28_000, 3_000)),
        ];
        for (cfg, b, expect) in cases {
            let ann = b.annotate_rank(r, cfg);
            let displacement = match b {
                Baseline::History { .. } => cfg.displacement,
                _ => 0.0,
            };
            for d in &ann.directives {
                let idle = d.predicted_idle - d.delay;
                let (kind, _) = cfg.plan_sleep_with(displacement, idle).unwrap();
                assert_eq!(d.kind, kind, "{b:?}: depth for {idle}");
                assert!(
                    ann.penalty[d.after_event + 1] <= cfg.react_of(d.kind),
                    "{b:?}"
                );
            }
            for kind in [SleepKind::Rate, SleepKind::Deep] {
                let used = ann.directives.iter().any(|d| d.kind == kind);
                let allowed = cfg.policy == PowerPolicy::Ladder || kind == SleepKind::Deep;
                assert_eq!(used, allowed, "{b:?} {kind:?}");
            }
            assert_eq!(ann.stats, expect, "{:?} {b:?}", cfg.policy);
        }
    }
}
