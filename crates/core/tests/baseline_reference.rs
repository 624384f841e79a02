//! Differential oracle for the baselines: a verbatim copy of the three
//! hand-written policy loops that predate the shared sleep ledger, run
//! side by side with [`Baseline`] under the paper's WRPS-only policy.
//! Every rank's annotation — directives, overheads, penalties and stats
//! — must match exactly. The one intended difference is applied to the
//! copy: the history loop now counts `final_compute` into
//! `nominal_duration`, like the other policies always did.

use ibp_core::{Baseline, LaneDirective, PowerConfig, RankAnnotation, RankStats, SleepKind};
use ibp_simcore::SimDuration;
use ibp_trace::RankTrace;
use proptest::prelude::*;

mod common;
use common::{paper_trace, random_trace};

/// Algorithm 3's WRPS timer, as the reference loops computed it.
fn wrps_timer(cfg: &PowerConfig, predicted_idle: SimDuration) -> Option<SimDuration> {
    let safety = predicted_idle.mul_f64(cfg.displacement) + cfg.t_react;
    let timer = predicted_idle.saturating_sub(safety);
    (timer > cfg.t_react).then_some(timer)
}

fn oracle_reference(trace: &RankTrace, cfg: &PowerConfig) -> RankAnnotation {
    let n = trace.call_count();
    let mut directives = Vec::new();
    let mut stats = RankStats {
        total_calls: n as u64,
        predicted_calls: n as u64,
        correct_calls: n as u64,
        ..RankStats::default()
    };
    for (i, ev) in trace.events.iter().enumerate() {
        let gap = ev.compute_before;
        stats.nominal_duration += gap;
        if i > 0 && gap > cfg.t_react * 2 {
            let timer = gap - cfg.t_react;
            directives.push(LaneDirective {
                after_event: i - 1,
                delay: SimDuration::ZERO,
                timer,
                predicted_idle: gap,
                kind: SleepKind::Wrps,
            });
            stats.lane_off_count += 1;
            stats.low_power_time += timer - cfg.t_react;
        }
    }
    stats.nominal_duration += trace.final_compute;
    RankAnnotation {
        rank: trace.rank,
        directives,
        overhead: vec![SimDuration::ZERO; n],
        penalty: vec![SimDuration::ZERO; n],
        stats,
    }
}

fn reactive_reference(
    trace: &RankTrace,
    cfg: &PowerConfig,
    timeout: SimDuration,
) -> RankAnnotation {
    let n = trace.call_count();
    let mut directives = Vec::new();
    let mut penalty = vec![SimDuration::ZERO; n];
    let mut stats = RankStats {
        total_calls: n as u64,
        ..RankStats::default()
    };
    for (i, ev) in trace.events.iter().enumerate() {
        let gap = ev.compute_before;
        stats.nominal_duration += gap;
        if i > 0 && gap > timeout + cfg.t_react * 2 {
            directives.push(LaneDirective {
                after_event: i - 1,
                delay: timeout,
                timer: gap,
                predicted_idle: gap,
                kind: SleepKind::Wrps,
            });
            stats.lane_off_count += 1;
            stats.low_power_time += gap - timeout - cfg.t_react;
            penalty[i] = cfg.t_react;
            stats.total_penalty += cfg.t_react;
            stats.timing_mispredictions += 1;
        }
    }
    stats.nominal_duration += trace.final_compute;
    RankAnnotation {
        rank: trace.rank,
        directives,
        overhead: vec![SimDuration::ZERO; n],
        penalty,
        stats,
    }
}

fn history_reference(trace: &RankTrace, cfg: &PowerConfig, window: usize) -> RankAnnotation {
    let n = trace.call_count();
    let mut directives: Vec<LaneDirective> = Vec::new();
    let mut penalty = vec![SimDuration::ZERO; n];
    let mut stats = RankStats {
        total_calls: n as u64,
        ..RankStats::default()
    };
    let mut history: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    for (i, ev) in trace.events.iter().enumerate() {
        let gap = ev.compute_before;
        stats.nominal_duration += gap;
        if let Some(d) = directives.last() {
            if d.after_event + 1 == i {
                let ready = d.timer + cfg.t_react;
                let stall = ready.saturating_sub(gap).min(cfg.t_react);
                if !stall.is_zero() {
                    stats.timing_mispredictions += 1;
                    stats.total_penalty += stall;
                    penalty[i] = stall;
                }
                let span = d.timer.min(gap).saturating_sub(cfg.t_react);
                stats.low_power_time += span;
            }
        }
        history.push_back(gap.as_ns());
        if history.len() > window {
            history.pop_front();
        }
        let mean_ns = history.iter().sum::<u64>() / history.len() as u64;
        let predicted = SimDuration::from_ns(mean_ns);
        if i + 1 < n {
            if let Some(timer) = wrps_timer(cfg, predicted) {
                directives.push(LaneDirective {
                    after_event: i,
                    delay: SimDuration::ZERO,
                    timer,
                    predicted_idle: predicted,
                    kind: SleepKind::Wrps,
                });
                stats.lane_off_count += 1;
            }
        }
    }
    // The one change from the pre-ledger loop: finalisation compute is
    // part of the nominal duration, as for every other policy.
    stats.nominal_duration += trace.final_compute;
    RankAnnotation {
        rank: trace.rank,
        directives,
        overhead: vec![SimDuration::ZERO; n],
        penalty,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every baseline arm, rank by rank, equals its reference loop for
    /// random and paper-workload traces, any reactivation time,
    /// displacement, idle timeout and history window, serial or not.
    #[test]
    fn baselines_match_reference_loops(
        random in random_trace(2_000),
        paper in any::<bool>(),
        app_idx in 0usize..5,
        nprocs_sel in 0usize..4,
        seed in 0u64..1_000,
        t_react_us in 1u64..100,
        disp in 0.0f64..0.5,
        timeout_sel in 0usize..3,
        timeout_us in 0u64..1_000,
        window in 1usize..=16,
        jobs in 1usize..=2,
    ) {
        let trace = if paper { paper_trace(app_idx, nprocs_sel, seed).2 } else { random };
        let t_react = SimDuration::from_us(t_react_us);
        // Baselines never group calls, so GT only has to pass `paper`'s check.
        let cfg = PowerConfig { t_react, ..PowerConfig::paper(SimDuration::from_us(200), disp) };
        let timeout = SimDuration::from_us([0, 50, timeout_us][timeout_sel]);

        let per_rank = |f: &dyn Fn(&RankTrace) -> RankAnnotation| -> Vec<RankAnnotation> {
            trace.ranks.iter().map(f).collect()
        };
        let checks = [
            (Baseline::Oracle, per_rank(&|r| oracle_reference(r, &cfg))),
            (Baseline::Reactive { timeout }, per_rank(&|r| reactive_reference(r, &cfg, timeout))),
            (Baseline::History { window }, per_rank(&|r| history_reference(r, &cfg, window))),
        ];
        for (baseline, expect) in checks {
            let got = baseline.annotate_trace(&trace, &cfg, jobs);
            prop_assert_eq!(got.ranks.len(), expect.len());
            for (r, (g, e)) in got.ranks.iter().zip(&expect).enumerate() {
                prop_assert_eq!(g, e, "{:?} rank {}", baseline, r);
            }
        }
    }
}
