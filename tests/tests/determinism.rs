//! Reproducibility: every stage of the pipeline must be bit-for-bit
//! deterministic given a seed, and sensitive to seed changes.

use ibp_analysis::{run_on_trace, RunConfig};
use ibp_core::{annotate_trace, PowerConfig};
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_simcore::SimDuration;
use ibp_workloads::{Alya, AppKind, Workload};

fn trace(seed: u64) -> ibp_trace::Trace {
    Alya {
        iterations: 30,
        ..Default::default()
    }
    .generate(8, seed)
}

#[test]
fn generation_is_deterministic() {
    assert_eq!(trace(42), trace(42));
    assert_ne!(trace(42), trace(43));
}

#[test]
fn annotation_is_deterministic() {
    let t = trace(1);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let a = annotate_trace(&t, &cfg);
    let b = annotate_trace(&t, &cfg);
    assert_eq!(a, b);
}

#[test]
fn replay_is_deterministic() {
    let t = trace(2);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let a = replay(&t, None, &params, &opts).expect("replay");
    let b = replay(&t, None, &params, &opts).expect("replay");
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.rank_finish, b.rank_finish);
    assert_eq!(a.fabric.messages, b.fabric.messages);
    assert_eq!(a.fabric.contended, b.fabric.contended);
}

#[test]
fn full_experiment_is_deterministic() {
    let t = trace(3);
    let cfg = RunConfig::new(20.0, 0.05);
    let a = run_on_trace(&t, AppKind::Alya, &cfg);
    let b = run_on_trace(&t, AppKind::Alya, &cfg);
    assert_eq!(a.power_saving_pct, b.power_saving_pct);
    assert_eq!(a.slowdown_pct, b.slowdown_pct);
    assert_eq!(a.hit_rate_pct, b.hit_rate_pct);
    assert_eq!(a.baseline_exec, b.baseline_exec);
}

#[test]
fn routing_seed_changes_timing_but_not_traffic() {
    // Random routing (Table II) is seeded: a different seed may change
    // contention timing, never the transported traffic.
    let t = trace(4);
    let params = SimParams::paper();
    let a = replay(
        &t,
        None,
        &params,
        &ReplayOptions {
            seed: 1,
            record_timelines: false,
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    let b = replay(
        &t,
        None,
        &params,
        &ReplayOptions {
            seed: 2,
            record_timelines: false,
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    assert_eq!(a.fabric.messages, b.fabric.messages);
    assert_eq!(a.fabric.bytes, b.fabric.bytes);
}
