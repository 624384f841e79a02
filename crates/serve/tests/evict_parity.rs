//! Property test for session paging: under an LRU hot-set cap smaller
//! than the session count, any interleaving of event batches,
//! evictions, transparent rehydrations, and mid-stream reconnects must
//! stream directives byte-identical to the offline `annotate_rank`
//! golden path — paging is invisible to clients or it is broken.

use ibp_core::{annotate_rank, PowerConfig};
use ibp_serve::{Client, Endpoint, ProtocolError, ServeConfig, Server, SnapshotStore};
use ibp_workloads::AppKind;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-evict-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One session's script and its offline golden expectations.
struct Script {
    rank: u32,
    events: Vec<(u16, u64)>,
    final_compute_ns: u64,
    golden: Vec<ibp_core::LaneDirective>,
    golden_stats: ibp_core::RankStats,
}

fn scripts(sessions: usize) -> Vec<Script> {
    let cfg = PowerConfig::default();
    let trace = AppKind::Alya.workload().generate(4, 42);
    (0..sessions)
        .map(|i| {
            let rank = &trace.ranks[i % 4];
            let golden = annotate_rank(rank, &cfg);
            Script {
                rank: rank.rank,
                events: rank
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect(),
                final_compute_ns: rank.final_compute.as_ns(),
                golden: golden.directives,
                golden_stats: golden.stats,
            }
        })
        .collect()
}

/// Reconnect and rehydrate with bounded retries: the server processes
/// the old connection's hangup asynchronously, so the first attempts
/// may race it and see a still-live (DUPLICATE) session.
fn reconnect(bound: &Endpoint, session: u32) -> (Client, u64, Vec<ibp_core::LaneDirective>) {
    for _ in 0..400 {
        let mut client = Client::connect(bound).expect("reconnect");
        match client.restore_from_store(session) {
            Ok((resume_at, history)) => return (client, resume_at, history),
            Err(ProtocolError::Remote { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(other) => panic!("rehydrate after reconnect: {other:?}"),
        }
    }
    panic!("session {session} never became restorable after reconnect");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random interleavings with `max_hot_sessions` below the session
    /// count: parity per session, and the run must really have paged
    /// (nonzero evictions and rehydrations) for the property to mean
    /// anything.
    #[test]
    fn paged_interleavings_match_offline_annotation(
        sessions in 3usize..=5,
        cap in 1usize..=2,
        chunk in 8usize..48,
        order_seed in any::<u64>(),
        reconnect_mask in any::<u8>(),
    ) {
        let dir = temp_dir();
        let endpoint = Endpoint::Unix(dir.join("evict.sock"));
        let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
        let server = Server::bind(
            &endpoint,
            ServeConfig {
                workers: 2,
                io_threads: 2,
                persist_every: 64,
                max_hot_sessions: Some(cap),
                ..Default::default()
            },
        )
        .expect("bind")
        .with_store(Arc::new(store));
        let bound = server.endpoint().clone();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run());

        let scripts = scripts(sessions);
        let mut clients: Vec<Client> = (0..sessions)
            .map(|_| Client::connect(&bound).expect("connect"))
            .collect();
        for (i, (client, script)) in clients.iter_mut().zip(&scripts).enumerate() {
            client.open(i as u32, script.rank, &PowerConfig::default()).expect("open");
        }

        let mut cursors = vec![0usize; sessions];
        let mut journals: Vec<Vec<ibp_core::LaneDirective>> =
            vec![Vec::new(); sessions];
        let mut reconnected = vec![false; sessions];
        let mut rng = order_seed | 1;
        loop {
            let live: Vec<usize> = (0..sessions)
                .filter(|&i| cursors[i] < scripts[i].events.len())
                .collect();
            if live.is_empty() {
                break;
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let i = live[(rng as usize) % live.len()];
            let script = &scripts[i];

            // Mid-stream reconnect for masked sessions: vanish without
            // Close, rehydrate from the store, and restart the parity
            // journal from the replayed history.
            if !reconnected[i]
                && reconnect_mask & (1 << i) != 0
                && cursors[i] >= script.events.len() / 2
            {
                reconnected[i] = true;
                let (client, resume_at, history) = {
                    let fresh = Client::connect(&bound).expect("pre-reconnect");
                    std::mem::replace(&mut clients[i], fresh).abandon();
                    reconnect(&bound, i as u32)
                };
                clients[i] = client;
                prop_assert!(
                    resume_at as usize <= cursors[i],
                    "resume past what was sent: {} > {}", resume_at, cursors[i]
                );
                prop_assert_eq!(
                    history.as_slice(),
                    &journals[i][..history.len()],
                    "replayed history must prefix the live stream"
                );
                journals[i] = history;
                cursors[i] = resume_at as usize;
            }

            let take = (1 + (rng >> 32) as usize % chunk)
                .min(script.events.len() - cursors[i]);
            let batch = &script.events[cursors[i]..cursors[i] + take];
            let (_, directives) =
                clients[i].send_events(i as u32, batch).expect("events");
            journals[i].extend(directives);
            cursors[i] += take;
        }

        for (i, (client, script)) in clients.iter_mut().zip(&scripts).enumerate() {
            let (tail, _total, stats) =
                client.close(i as u32, script.final_compute_ns).expect("close");
            journals[i].extend(tail);
            prop_assert_eq!(&journals[i], &script.golden, "session {} parity", i);
            prop_assert_eq!(&stats, &script.golden_stats, "session {} stats", i);
        }

        drop(clients);
        stop.store(true, Ordering::Relaxed);
        let summary = handle.join().expect("server thread");
        prop_assert!(summary.evictions > 0, "no evictions happened: {:?}", summary);
        prop_assert!(
            summary.sessions_rehydrated > 0,
            "no rehydrations happened: {:?}", summary
        );
        prop_assert_eq!(summary.worker_panics, 0, "workers panicked: {:?}", summary);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
