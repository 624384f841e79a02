//! Out-of-band layer timings on a workload's own inputs: its event
//! streams cut into the frames a client sends, the session engine those
//! frames feed, the store records those sessions persist, and (where the
//! workload does not replay in-band) one replay of its trace.

use crate::stats;
use crate::Metrics;
use ibp_core::PowerConfig;
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_serve::protocol::decode_client;
use ibp_serve::store::RECORD_VERSION;
use ibp_serve::{ClientFrame, Session, SnapshotStore, StoreRecord, WireEvent};
use ibp_simcore::SimDuration;
use ibp_trace::Trace;
use std::path::Path;
use std::time::Instant;

/// Events per frame, as the serve workloads send them.
pub const BATCH: usize = 64;

/// Repetitions of each per-event probe; the median is reported.
const REPS: usize = 3;

/// The probe results.
pub struct Probes {
    encode_ns_per_event: f64,
    decode_ns_per_event: f64,
    apply_ns_per_event: f64,
    persist_fast_us: f64,
    persist_us: f64,
    load_us: f64,
    replay_ns_per_event: Option<f64>,
}

impl Probes {
    /// Per-event cost of encode + decode + apply for one full batch, µs.
    pub fn batch_path_us(&self) -> f64 {
        (self.encode_ns_per_event + self.decode_ns_per_event + self.apply_ns_per_event)
            * BATCH as f64
            / 1e3
    }

    /// Add the probe metrics to `m`.
    pub fn put_into(&self, m: &mut Metrics) {
        m.put(
            "protocol.encode_ns_per_event",
            self.encode_ns_per_event,
            "ns",
        );
        m.put(
            "protocol.decode_ns_per_event",
            self.decode_ns_per_event,
            "ns",
        );
        m.put("core.apply_ns_per_event", self.apply_ns_per_event, "ns");
        m.put("store.persist_fast_us", self.persist_fast_us, "us");
        m.put("store.persist_us", self.persist_us, "us");
        m.put("store.load_us", self.load_us, "us");
        if let Some(r) = self.replay_ns_per_event {
            m.put("network.replay_ns_per_event", r, "ns");
        }
    }
}

/// The paper configuration every serve session runs (GT 20 µs, 1 %).
pub fn session_config() -> PowerConfig {
    PowerConfig::paper(SimDuration::from_us(20), 0.01)
}

/// A rank's call stream as wire events.
pub fn wire_events(rank: &ibp_trace::RankTrace) -> Vec<WireEvent> {
    rank.call_stream()
        .map(|(call, gap)| (call.id(), gap.as_ns()))
        .collect()
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    stats::median(&v).unwrap()
}

/// Probe every layer on `streams` (rank, events), and replay `trace`
/// when one is given. Store records go under `store_dir`.
pub fn run(
    streams: &[(u32, Vec<WireEvent>)],
    trace: Option<&Trace>,
    store_dir: &Path,
) -> Result<Probes, String> {
    let events: usize = streams.iter().map(|s| s.1.len()).sum::<usize>().max(1);
    let frames: Vec<ClientFrame> = streams
        .iter()
        .enumerate()
        .flat_map(|(i, (_, ev))| {
            ev.chunks(BATCH).map(move |c| ClientFrame::Events {
                session: i as u32,
                events: c.to_vec(),
            })
        })
        .collect();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let encode_ns_per_event = median_of(|| {
        let t0 = Instant::now();
        payloads = frames.iter().map(ClientFrame::encode).collect();
        t0.elapsed().as_nanos() as f64 / events as f64
    });
    let mut bad = 0usize;
    let decode_ns_per_event = median_of(|| {
        let t0 = Instant::now();
        for p in &payloads {
            bad += decode_client(p).is_err() as usize;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    });
    if bad > 0 {
        return Err(format!("{bad} probe frames failed to decode"));
    }
    let cfg = session_config();
    let mut sessions = Vec::new();
    let apply_ns_per_event = median_of(|| {
        sessions = streams
            .iter()
            .map(|(rank, _)| Session::open(*rank, cfg.clone()))
            .collect();
        let t0 = Instant::now();
        for (s, (_, ev)) in sessions.iter_mut().zip(streams) {
            for c in ev.chunks(BATCH) {
                let _ = s.apply(c);
            }
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    });

    let _ = std::fs::remove_dir_all(store_dir);
    let (store, _) = SnapshotStore::open(store_dir).map_err(|e| format!("probe store: {e}"))?;
    let records: Vec<StoreRecord> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| StoreRecord {
            record_version: RECORD_VERSION,
            session: i as u32,
            rank: s.rank,
            events: s.events_applied(),
            closed: false,
            history_complete: s.history_complete(),
            directives: s.history(),
            snapshot: s.snapshot(),
        })
        .collect();
    let time_each = |f: &dyn Fn(&StoreRecord) -> std::io::Result<()>| -> Result<f64, String> {
        let mut us = Vec::with_capacity(records.len());
        for r in &records {
            let t0 = Instant::now();
            f(r).map_err(|e| format!("probe store: {e}"))?;
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(stats::median(&us).unwrap_or(0.0))
    };
    let persist_fast_us = time_each(&|r| store.persist_fast(r))?;
    let persist_us = time_each(&|r| store.persist(r))?;
    let load_us = time_each(&|r| match store.load(r.session)? {
        Some(back) if back == *r => Ok(()),
        _ => Err(std::io::Error::other(format!(
            "record {} did not round-trip",
            r.session
        ))),
    })?;
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);

    let replay_ns_per_event = trace.map(|t| {
        let t0 = Instant::now();
        let r = replay(t, None, &SimParams::paper(), &ReplayOptions::default());
        let ns = t0.elapsed().as_nanos() as f64 / t.total_calls().max(1) as f64;
        r.map(|_| ns).map_err(|e| format!("probe replay: {e}"))
    });
    Ok(Probes {
        encode_ns_per_event,
        decode_ns_per_event,
        apply_ns_per_event,
        persist_fast_us,
        persist_us,
        load_us,
        replay_ns_per_event: replay_ns_per_event.transpose()?,
    })
}
