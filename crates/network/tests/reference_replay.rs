//! Differential test of the replay engine against a deliberately naive
//! reference replay — the byte-identity oracle of DESIGN.md §16.
//!
//! The reference shares only the leaf models with the engine: [`Fabric`]
//! for transfer timing, [`FaultPlan`] for fault draws, [`LinkPowerTracker`]
//! for power accounting and [`for_each_micro`] for collective
//! decomposition. It has none of the engine's scheduling machinery: no
//! eager rank-local quanta, no gated send runs, no step windows, no
//! schedule cache, no buffered sleep windows. Each rank's whole trace is
//! lowered up front into a plain list of micro-ops, and every micro-op of
//! every rank goes through one global `BinaryHeap`, one at a time, in
//! (clock, rank) order — the order the engine documents (smallest local
//! clock first, ties broken by rank id). A rank holds at most one heap
//! entry, so the key is unique.
//!
//! If the engine's shortcuts are sound, both produce bit-identical
//! [`SimResult`]s on every input; the proptest below checks that across
//! random SPMD traces (collectives, blocking and non-blocking
//! point-to-point), fault plans, sleep policies and link generations.

use ibp_core::{annotate_trace, PowerConfig, SleepKind, TraceAnnotations};
use ibp_network::{
    for_each_micro, replay, replay_with_scratch, Fabric, FaultConfig, FaultPlan, FaultStats,
    IbGeneration, LinkPowerTracker, MicroOp, ReplayOptions, ReplayScratch, SimParams, SimResult,
};
use ibp_simcore::{DetRng, SimDuration, SimTime};
use ibp_trace::{MpiOp, Rank, Trace, TraceBuilder};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Library cost of posting a non-blocking operation (the engine's model
/// constant).
const POST_OVERHEAD: SimDuration = SimDuration::from_ns(300);

/// One micro-op of the reference's lowered program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Start event `ev`: compute burst plus overhead, resolution of any
    /// pending sleep against the demand, reactivation penalty.
    Enter(usize),
    /// Inject a message; `req` is the request id of an `Isend`.
    Send {
        to: Rank,
        bytes: u64,
        req: Option<u32>,
    },
    /// Blocking receive of the next message from `from`.
    Recv { from: Rank },
    /// Post a non-blocking receive of the next message from `from`.
    Irecv { from: Rank, req: u32 },
    /// Wait for one posted request.
    Wait(u32),
    /// End of event `ev`: arm the lane-off directive issued after it.
    Done(usize),
    /// Trailing compute and the last sleep window.
    Finish,
}

#[derive(Debug, Clone, Copy)]
enum Req {
    Send(SimTime),
    Recv { from: Rank, k: usize },
}

struct RankState {
    t: SimTime,
    pc: usize,
    program: Vec<Op>,
    reqs: HashMap<u32, Req>,
    /// Receives consumed or posted so far, per source rank.
    recvs: HashMap<Rank, usize>,
    /// The (source, index) this rank is parked on.
    waiting: Option<(Rank, usize)>,
    next_directive: usize,
    pending_sleep: Option<(SimTime, SimDuration, SleepKind)>,
    power: LinkPowerTracker,
}

/// Lower one rank's trace into its micro-op program.
fn lower(trace: &Trace, me: Rank) -> Vec<Op> {
    let mut program = Vec::new();
    for (ev, event) in trace.ranks[me as usize].events.iter().enumerate() {
        program.push(Op::Enter(ev));
        match &event.op {
            MpiOp::Send { to, bytes } => program.push(Op::Send {
                to: *to,
                bytes: *bytes,
                req: None,
            }),
            MpiOp::Recv { from, .. } => program.push(Op::Recv { from: *from }),
            MpiOp::Sendrecv {
                to,
                send_bytes,
                from,
                ..
            } => {
                program.push(Op::Send {
                    to: *to,
                    bytes: *send_bytes,
                    req: None,
                });
                program.push(Op::Recv { from: *from });
            }
            MpiOp::Isend { to, bytes, req } => {
                program.push(Op::Send {
                    to: *to,
                    bytes: *bytes,
                    req: Some(*req),
                });
            }
            MpiOp::Irecv { from, req, .. } => program.push(Op::Irecv {
                from: *from,
                req: *req,
            }),
            MpiOp::Wait { req } => program.push(Op::Wait(*req)),
            MpiOp::Waitall { reqs } => program.extend(reqs.iter().map(|&r| Op::Wait(r))),
            collective => for_each_micro(collective, me, trace.nprocs, &mut |m| {
                program.push(match m {
                    MicroOp::SendTo { to, bytes } => Op::Send {
                        to,
                        bytes,
                        req: None,
                    },
                    MicroOp::RecvFrom { from, .. } => Op::Recv { from },
                });
            }),
        }
        program.push(Op::Done(ev));
    }
    program.push(Op::Finish);
    program
}

fn react(params: &SimParams, kind: SleepKind) -> SimDuration {
    match kind {
        SleepKind::Wrps => params.t_react,
        SleepKind::Rate => params.rate_t_react,
        SleepKind::Deep => params.deep_t_react,
    }
}

/// Replay `trace` the naive way. Panics on deadlock (the proptest only
/// feeds valid traces).
fn reference_replay(
    trace: &Trace,
    ann: Option<&TraceAnnotations>,
    params: &SimParams,
    opts: &ReplayOptions,
) -> SimResult {
    let n = trace.nprocs;
    let mut fabric = Fabric::new(params.clone(), n, opts.seed);
    let mut plan = opts.faults.as_ref().map(|cfg| FaultPlan::new(cfg, n));
    let mut stats = FaultStats::default();
    let mut arrivals: HashMap<(Rank, Rank), Vec<SimTime>> = HashMap::new();
    let mut ranks: Vec<RankState> = (0..n)
        .map(|r| RankState {
            t: SimTime::ZERO,
            pc: 0,
            program: lower(trace, r),
            reqs: HashMap::new(),
            recvs: HashMap::new(),
            waiting: None,
            next_directive: 0,
            pending_sleep: None,
            power: LinkPowerTracker::new(opts.record_timelines),
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, Rank)>> =
        (0..n).map(|r| Reverse((SimTime::ZERO, r))).collect();

    while let Some(Reverse((_, r))) = heap.pop() {
        let ri = r as usize;
        let rank = &mut ranks[ri];
        let arrived =
            |from: Rank, k: usize| arrivals.get(&(from, r)).and_then(|v| v.get(k).copied());
        // A send's (destination, arrival index), to wake a parked receiver.
        let mut sent = None;
        match rank.program[rank.pc] {
            Op::Enter(ev) => {
                let (overhead, penalty) = ann.map_or((SimDuration::ZERO, SimDuration::ZERO), |a| {
                    (a.ranks[ri].overhead[ev], a.ranks[ri].penalty[ev])
                });
                let compute = trace.ranks[ri].events[ev].compute_before;
                let misfire = rank.pending_sleep.is_some_and(|(_, _, kind)| {
                    plan.as_mut().is_some_and(|p| p.wake_misfires_at(ri, kind))
                });
                rank.t = params.compute_end(rank.t, compute + overhead);
                match rank.pending_sleep.take() {
                    Some((t0, _, kind)) if misfire => {
                        rank.power.apply_sleep_misfire(params, t0, rank.t, kind);
                        rank.t += react(params, kind);
                        stats.wake_misfires += 1;
                        stats.misfire_stall += react(params, kind);
                    }
                    Some((t0, timer, kind)) => {
                        rank.power.apply_sleep_kind(params, t0, timer, rank.t, kind);
                        rank.t += penalty;
                    }
                    None => rank.t += penalty,
                }
            }
            Op::Send { to, bytes, req } => {
                let fault = plan
                    .as_mut()
                    .map(|p| p.send_fault(ri, rank.t))
                    .unwrap_or_default();
                let mut t_inj = rank.t;
                if fault.flapped {
                    stats.link_flaps += 1;
                    stats.flap_delay += fault.flap_delay;
                    t_inj += fault.flap_delay;
                }
                let mut extra = SimDuration::ZERO;
                if fault.degraded {
                    extra = FaultPlan::degraded_extra(params, bytes);
                    stats.degraded_sends += 1;
                    stats.degraded_extra += extra;
                }
                let at = fabric.transfer(t_inj, r, to, bytes) + extra;
                let done = fabric.inject_done(t_inj, bytes) + extra;
                match req {
                    None => rank.t = done,
                    Some(req) => {
                        rank.reqs.insert(req, Req::Send(done));
                        rank.t += POST_OVERHEAD;
                    }
                }
                let delivered = arrivals.entry((r, to)).or_default();
                delivered.push(at);
                sent = Some((to, delivered.len() - 1));
            }
            Op::Recv { from } => {
                let k = rank.recvs.get(&from).copied().unwrap_or(0);
                let Some(at) = arrived(from, k) else {
                    rank.waiting = Some((from, k));
                    continue;
                };
                rank.t = rank.t.max(at);
                rank.recvs.insert(from, k + 1);
            }
            Op::Irecv { from, req } => {
                let k = rank.recvs.get(&from).copied().unwrap_or(0);
                rank.recvs.insert(from, k + 1);
                rank.reqs.insert(req, Req::Recv { from, k });
                rank.t += POST_OVERHEAD;
            }
            Op::Wait(req) => {
                let done = match rank.reqs[&req] {
                    Req::Send(done) => done,
                    Req::Recv { from, k } => {
                        let Some(at) = arrived(from, k) else {
                            rank.waiting = Some((from, k));
                            continue;
                        };
                        at
                    }
                };
                rank.t = rank.t.max(done);
                rank.reqs.remove(&req);
            }
            Op::Done(ev) => {
                let directive = ann.and_then(|a| a.ranks[ri].directives.get(rank.next_directive));
                if let Some(d) = directive.filter(|d| d.after_event == ev) {
                    rank.next_directive += 1;
                    rank.pending_sleep = Some((rank.t + d.delay, d.timer, d.kind));
                }
            }
            Op::Finish => {
                let misfire = rank.pending_sleep.is_some_and(|(_, _, kind)| {
                    plan.as_mut().is_some_and(|p| p.wake_misfires_at(ri, kind))
                });
                rank.t = params.compute_end(rank.t, trace.ranks[ri].final_compute);
                if let Some((t0, timer, kind)) = rank.pending_sleep.take() {
                    if misfire {
                        stats.wake_misfires += 1;
                        rank.power.apply_sleep_misfire(params, t0, rank.t, kind);
                    } else {
                        rank.power.apply_sleep_kind(params, t0, timer, rank.t, kind);
                    }
                }
                continue; // finished: never rescheduled
            }
        }
        rank.pc += 1;
        heap.push(Reverse((rank.t, r)));
        if let Some((to, k)) = sent {
            let peer = &mut ranks[to as usize];
            if peer.waiting == Some((r, k)) {
                peer.waiting = None;
                heap.push(Reverse((peer.t, to)));
            }
        }
    }
    if let Some(stuck) = ranks
        .iter()
        .position(|s| !matches!(s.program[s.pc], Op::Finish))
    {
        panic!("reference replay deadlocked at rank {stuck}");
    }

    let per_rank = |f: &dyn Fn(&LinkPowerTracker) -> SimDuration| -> Vec<SimDuration> {
        ranks.iter().map(|s| f(&s.power)).collect()
    };
    SimResult {
        exec_time: ranks
            .iter()
            .map(|s| s.t)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO),
        rank_finish: ranks.iter().map(|s| s.t).collect(),
        link_low: per_rank(&|p| p.low_time),
        link_rate: per_rank(&|p| p.rate_time),
        link_deep: per_rank(&|p| p.deep_time),
        link_transition: per_rank(&|p| p.transition_time),
        link_sleeps: ranks.iter().map(|s| s.power.sleeps).collect(),
        timelines: opts.record_timelines.then(|| {
            ranks
                .iter()
                .map(|s| s.power.timeline.clone().expect("recording"))
                .collect()
        }),
        fabric: fabric.stats(),
        low_power_fraction: params.low_power_fraction,
        rate_power_fraction: params.rate_power_fraction,
        deep_power_fraction: params.deep_power_fraction,
        faults: stats,
    }
}

/// Every field of two results, bit for bit (floats by their bits,
/// timelines by their full debug form).
fn assert_identical(engine: &SimResult, oracle: &SimResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(engine.exec_time, oracle.exec_time);
    prop_assert_eq!(&engine.rank_finish, &oracle.rank_finish);
    prop_assert_eq!(&engine.link_low, &oracle.link_low);
    prop_assert_eq!(&engine.link_rate, &oracle.link_rate);
    prop_assert_eq!(&engine.link_deep, &oracle.link_deep);
    prop_assert_eq!(&engine.link_transition, &oracle.link_transition);
    prop_assert_eq!(&engine.link_sleeps, &oracle.link_sleeps);
    prop_assert_eq!(
        format!("{:?}", engine.timelines),
        format!("{:?}", oracle.timelines)
    );
    prop_assert_eq!(engine.fabric, oracle.fabric);
    prop_assert_eq!(
        engine.low_power_fraction.to_bits(),
        oracle.low_power_fraction.to_bits()
    );
    prop_assert_eq!(
        engine.rate_power_fraction.to_bits(),
        oracle.rate_power_fraction.to_bits()
    );
    prop_assert_eq!(
        engine.deep_power_fraction.to_bits(),
        oracle.deep_power_fraction.to_bits()
    );
    prop_assert_eq!(engine.faults, oracle.faults);
    Ok(())
}

/// A random but consistent SPMD trace: `iters` repetitions of one shared
/// schedule of collectives and neighbour exchanges (blocking, combined
/// and non-blocking), each step preceded by a compute gap that is fixed
/// per (rank, step) up to a small per-iteration jitter — regular enough
/// for the PPA to predict, so annotated replays carry sleep directives.
fn random_spmd_trace(nprocs: u32, schedule: &[(u8, u32)], iters: u32, seed: u64) -> Trace {
    let mut b = TraceBuilder::new("reference-spmd", nprocs);
    for r in 0..nprocs {
        let mut rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32));
        // Log-uniform over 1 µs .. 12 ms, so every sleep depth can pay off.
        let gaps: Vec<f64> = schedule
            .iter()
            .map(|_| rng.uniform_range(0.0, 12_000f64.ln()).exp())
            .collect();
        let right = (r + 1) % nprocs;
        let left = (r + nprocs - 1) % nprocs;
        for _ in 0..iters {
            for (&(s, sz), gap) in schedule.iter().zip(&gaps) {
                let bytes = u64::from(sz) + 1;
                b.compute(
                    r,
                    SimDuration::from_us_f64(gap * rng.uniform_range(0.95, 1.05)),
                );
                match s % 10 {
                    0 => b.op(r, MpiOp::Allreduce { bytes }),
                    1 => b.op(r, MpiOp::Barrier),
                    2 => b.op(
                        r,
                        MpiOp::Bcast {
                            root: u32::from(s) % nprocs,
                            bytes,
                        },
                    ),
                    3 => b.op(
                        r,
                        MpiOp::Reduce {
                            root: (u32::from(s) + 1) % nprocs,
                            bytes,
                        },
                    ),
                    4 => b.op(r, MpiOp::Allgather { bytes }),
                    5 => b.op(r, MpiOp::Alltoall { bytes }),
                    6 => b.op(
                        r,
                        MpiOp::Sendrecv {
                            to: right,
                            send_bytes: bytes,
                            from: left,
                            recv_bytes: bytes,
                        },
                    ),
                    7 => {
                        let rx = b.irecv(r, left, bytes);
                        let tx = b.isend(r, right, bytes);
                        b.compute(r, SimDuration::from_us_f64(gap / 4.0));
                        b.op(r, MpiOp::Waitall { reqs: vec![tx, rx] });
                    }
                    8 => {
                        // Both neighbours, received into separate requests
                        // and completed one `Wait` at a time.
                        let rx_left = b.irecv(r, left, bytes);
                        let rx_right = b.irecv(r, right, bytes);
                        let tx_right = b.isend(r, right, bytes);
                        let tx_left = b.isend(r, left, bytes);
                        for req in [rx_right, tx_left, rx_left, tx_right] {
                            b.op(r, MpiOp::Wait { req });
                        }
                    }
                    _ => {
                        // Blocking pairwise exchange: even ranks send first.
                        let peer = r ^ 1;
                        if peer < nprocs {
                            if r % 2 == 0 {
                                b.op(r, MpiOp::Send { to: peer, bytes });
                                b.op(r, MpiOp::Recv { from: peer, bytes });
                            } else {
                                b.op(r, MpiOp::Recv { from: peer, bytes });
                                b.op(r, MpiOp::Send { to: peer, bytes });
                            }
                        }
                    }
                }
            }
        }
        b.compute(r, SimDuration::from_us_f64(rng.uniform_range(0.0, 300.0)));
    }
    b.build()
}

/// Fault plans from none through quiet and light to heavy.
fn arb_faults() -> impl Strategy<Value = Option<FaultConfig>> {
    (
        0u8..4,
        any::<u64>(),
        0.0f64..=1.0,
        0.0f64..3.0,
        0.0f64..0.3,
        0.0f64..0.3,
    )
        .prop_map(|(class, seed, misfire, mult, flap, degrade)| match class {
            0 => None,
            1 => Some(FaultConfig::quiet(seed)),
            2 => Some(FaultConfig::with_rate(seed, 50.0 * misfire)),
            _ => {
                let mut cfg = FaultConfig::quiet(seed);
                cfg.wake_misfire_prob = misfire;
                cfg.rate_misfire_mult = mult;
                cfg.deep_misfire_mult = mult * 1.5;
                cfg.flap_prob = flap;
                cfg.flap_outage_min = SimDuration::from_us(1);
                cfg.flap_outage_max = SimDuration::from_us(200);
                cfg.degrade_prob = degrade;
                cfg.degraded_window = SimDuration::from_us(500);
                Some(cfg)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine and the naive reference agree bit for bit on every
    /// field of the result: baseline and annotated replays under the
    /// WRPS, two-tier deep-sleep and ladder policies, on every link
    /// generation, with and without faults and recorded timelines. Up
    /// to 39 ranks, so traffic also crosses leaf switches and takes
    /// randomly routed paths through the spine.
    #[test]
    fn engine_matches_reference_replay(
        nprocs in 2u32..40,
        schedule in proptest::collection::vec((any::<u8>(), 0u32..(1 << 16)), 1..8),
        iters in 1u32..6,
        seed in any::<u64>(),
        policy in 0u8..4,
        generation in 0usize..IbGeneration::ALL.len(),
        gt_us in 20u64..80,
        faults in arb_faults(),
        record_timelines in any::<bool>(),
    ) {
        let generation = IbGeneration::ALL[generation];
        let trace = random_spmd_trace(nprocs, &schedule, iters, seed);
        trace.validate().map_err(TestCaseError::fail)?;
        let gt = SimDuration::from_us(gt_us);
        let ann = match policy {
            0 => None,
            1 => Some(annotate_trace(&trace, &PowerConfig::paper(gt, 0.01))),
            2 => Some(annotate_trace(
                &trace,
                &PowerConfig::paper(gt, 0.01).with_deep_sleep(SimDuration::from_ms(2)),
            )),
            _ => Some(annotate_trace(&trace, &generation.ladder().power_config(gt, 0.01))),
        };
        let params = generation.sim_params();
        let opts = ReplayOptions { seed, record_timelines, faults };
        let oracle = reference_replay(&trace, ann.as_ref(), &params, &opts);
        let fresh = replay_with_scratch(&trace, ann.as_ref(), &params, &opts, &mut ReplayScratch::new())
            .expect("engine replay");
        assert_identical(&fresh, &oracle)?;
        // The per-thread scratch is warm from earlier cases.
        let warm = replay(&trace, ann.as_ref(), &params, &opts).expect("engine replay");
        assert_identical(&warm, &oracle)?;
    }
}

/// The proptest's traces reach every sleep depth and every fault kind,
/// so agreement above is not vacuous.
#[test]
fn reference_inputs_exercise_every_mechanism() {
    let schedule = [(7u8, 4096u32), (6, 512), (0, 64), (8, 2048), (5, 128)];
    let trace = random_spmd_trace(6, &schedule, 12, 7);
    let gt = SimDuration::from_us(20);
    let params = IbGeneration::Hdr.sim_params();
    let ann = annotate_trace(&trace, &IbGeneration::Hdr.ladder().power_config(gt, 0.01));
    let opts = ReplayOptions {
        faults: Some(FaultConfig::with_rate(11, 40.0)),
        ..ReplayOptions::default()
    };
    let r = reference_replay(&trace, Some(&ann), &params, &opts);
    let total = |v: &[SimDuration]| v.iter().copied().sum::<SimDuration>();
    assert!(!total(&r.link_low).is_zero(), "no WRPS windows");
    assert!(!total(&r.link_rate).is_zero(), "no rate-reduced windows");
    assert!(!total(&r.link_deep).is_zero(), "no deep windows");
    assert!(
        r.faults.link_flaps > 0 && r.faults.wake_misfires > 0,
        "{:?}",
        r.faults
    );
    let engine = replay(&trace, Some(&ann), &params, &opts).expect("engine replay");
    assert_identical(&engine, &r).expect("engine matches reference");
}
