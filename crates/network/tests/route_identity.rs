//! Route identity: every cross-leaf message takes the top switch a
//! generator split per message identity would draw, `split_from(key,
//! (src, dst, seq))` then `index(top_count)`, whatever traffic came
//! before it.
//!
//! The reference replay shares `Fabric` with the engine, so it cannot
//! see a change to how the fabric routes. This test only uses the
//! fabric's public surface, where a route shows only through
//! contention: two cross-leaf messages between the same pair of leaves,
//! injected together, contend exactly when they cross the same top
//! switch (their host channels are distinct). For a target message `x`,
//! one probe per top switch pins which top `x` crossed, up to a
//! relabelling of the tops that no timing can observe.

use ibp_network::{Fabric, FatTree, SimParams};
use ibp_simcore::{DetRng, SimTime};
use ibp_trace::Rank;
use proptest::prelude::*;

/// A message between two ranks: `(src, dst, per-pair sequence number)`.
type Msg = (Rank, Rank, u64);

/// The up-channel (leaf → top) of `m`'s route drawn the old way: a
/// generator split for the message identity, handed to `FatTree::route`.
fn reference_up_channel(tree: &FatTree, key: u64, (src, dst, seq): Msg) -> u32 {
    let label = (u64::from(src) << 40) | (u64::from(dst) << 16) | (seq & 0xFFFF);
    let route = tree.route(src, dst, &mut DetRng::split_from(key, label));
    assert_eq!(route.channels.len(), 4, "{src}->{dst} is not cross-leaf");
    route.channels[1]
}

/// Whether `probe`, injected right behind a large `target` on a fresh
/// fabric, has to wait for it. `noise` is same-leaf traffic sent before
/// either: it advances sequence numbers but crosses no top switch.
fn probe_waits(nprocs: u32, seed: u64, noise: &[(Rank, Rank)], target: Msg, probe: Msg) -> bool {
    let mut f = Fabric::new(SimParams::paper(), nprocs, seed);
    let mut at = 0u64;
    let mut send = |f: &mut Fabric, src: Rank, dst: Rank| {
        at += 1;
        f.transfer(SimTime::from_us(at), src, dst, 64);
    };
    for &(src, dst) in noise {
        send(&mut f, src, dst);
    }
    // Earlier messages of each pair, spaced out so they never overlap.
    for (src, dst, seq) in [target, probe] {
        for _ in 1..seq {
            send(&mut f, src, dst);
        }
    }
    let t = SimTime::from_secs(1);
    f.transfer(t, target.0, target.1, 1 << 20);
    let before = f.stats().contended;
    f.transfer(t, probe.0, probe.1, 64);
    f.stats().contended > before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fabric_routes_match_per_message_split(
        nprocs in 36u32..=252,
        leaves in (0u32..14, 0u32..13),
        nodes in (0u32..18, 0u32..18),
        seq in 1u64..40,
        seed in any::<u64>(),
        noise in proptest::collection::vec((0u32..18, 0u32..17), 0..24),
    ) {
        let params = SimParams::paper();
        let per_leaf = params.nodes_per_leaf;
        let full = nprocs / per_leaf;
        // Two distinct fully populated leaves.
        let sl = leaves.0 % full;
        let dl = (sl + 1 + leaves.1 % (full - 1)) % full;
        let (src, dst) = (sl * per_leaf + nodes.0, dl * per_leaf + nodes.1);
        let target = (src, dst, seq);
        // Same-leaf noise on the target's own leaf, the target pair's
        // neighbours included.
        let noise: Vec<(Rank, Rank)> = noise
            .iter()
            .map(|&(a, b)| {
                let b = (a + 1 + b) % per_leaf;
                (sl * per_leaf + a, sl * per_leaf + b)
            })
            .collect();

        let tree = FatTree::new(&params, nprocs);
        let key = DetRng::seed_from_u64(seed).split(0xFAB).split_key();
        let want = reference_up_channel(&tree, key, target);

        // One probe per top switch: a pair between the same two leaves,
        // disjoint from the target's hosts, whose reference route
        // crosses that top.
        let mut probes: Vec<(u32, Msg)> = Vec::new();
        'search: for pseq in 1u64.. {
            for a in (0..per_leaf).filter(|&a| a != nodes.0) {
                for b in (0..per_leaf).filter(|&b| b != nodes.1) {
                    let probe = (sl * per_leaf + a, dl * per_leaf + b, pseq);
                    let up = reference_up_channel(&tree, key, probe);
                    if probes.iter().all(|p| p.0 != up) {
                        probes.push((up, probe));
                        if probes.len() == params.top_count as usize {
                            break 'search;
                        }
                    }
                }
            }
        }
        for (up, probe) in probes {
            let waits = probe_waits(nprocs, seed, &noise, target, probe);
            prop_assert_eq!(
                waits,
                up == want,
                "probe {:?} (reference up-channel {}) vs target {:?} (reference {})",
                probe, up, target, want
            );
        }
    }
}
