//! Trace generators shared by the core crate's property tests.

use ibp_trace::{MpiCall, MpiOp, Trace, TraceBuilder};
use ibp_workloads::AppKind;
use proptest::prelude::*;

/// The MPI call a generated index stands for.
#[allow(dead_code)]
pub fn call_of(idx: u8) -> MpiCall {
    match idx % 5 {
        0 => MpiCall::Send,
        1 => MpiCall::Recv,
        2 => MpiCall::Allreduce,
        3 => MpiCall::Sendrecv,
        _ => MpiCall::Barrier,
    }
}

/// A paper workload's trace at one of its valid process counts in
/// `2..=16`, picked by `nprocs_sel` (taken modulo the valid counts).
pub fn paper_trace(app_idx: usize, nprocs_sel: usize, seed: u64) -> (AppKind, u32, Trace) {
    let app = AppKind::ALL[app_idx];
    let w = app.workload();
    let valid: Vec<u32> = (2..=16).filter(|&n| w.valid_nprocs(n)).collect();
    assert!(!valid.is_empty(), "{} runs nowhere in 2..=16", app.name());
    let nprocs = valid[nprocs_sel % valid.len()];
    (app, nprocs, w.generate(nprocs, seed))
}

/// Random multi-rank traces: one to three ranks, each a run of barriers
/// after compute gaps of up to `max_gap_us`, then a final compute burst.
#[allow(dead_code)]
pub fn random_trace(max_gap_us: u64) -> impl Strategy<Value = Trace> {
    let rank = (
        proptest::collection::vec(0..=max_gap_us, 1..120),
        0..=max_gap_us,
    );
    proptest::collection::vec(rank, 1..4).prop_map(|ranks| {
        let mut b = TraceBuilder::new("random", ranks.len() as u32);
        for (r, (gaps, tail)) in ranks.iter().enumerate() {
            for &g in gaps {
                b.compute(r as u32, ibp_simcore::SimDuration::from_us(g));
                b.op(r as u32, MpiOp::Barrier);
            }
            b.compute(r as u32, ibp_simcore::SimDuration::from_us(*tail));
        }
        b.build()
    })
}
