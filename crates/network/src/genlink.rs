//! Multi-generation InfiniBand link models and the sleep-depth ladder.
//!
//! The paper evaluates exactly one hardware point: IB 4X QDR links with
//! the WRPS 4X→1X width-reduction pair. This module generalizes that
//! point along two axes:
//!
//! * **Generations** — the IB signalling ladder (QDR → XDR), with the
//!   per-lane rates of the standard naming table (`getIBStandardName`):
//!   QDR 10, FDR 14, EDR 25, HDR 50, NDR 100, XDR 200 Gb/s per lane,
//!   four lanes per link. Each generation also carries a representative
//!   36–64-port switch power envelope so [`crate::SwitchPowerModel`]
//!   can report switch-level savings per generation.
//! * **Sleep depths** — a three-rung ladder: WRPS width reduction
//!   (4X→1X, µs-class retrain, 43% draw), rate reduction (all lanes
//!   drop to the lowest signalling rate, ~100 µs retrain, 25% draw) and
//!   deep sleep (buffers/crossbar down, ms-class wake, 10% draw). Each
//!   rung has its own wake latency, transition energy, and relative
//!   power floor.
//!
//! Everything here is opt-in: [`IbGeneration::Qdr`]'s parameters are
//! bit-identical to [`SimParams::paper`], and the ladder policy is off
//! by default, so the paper's exhibits are unchanged unless a caller
//! explicitly asks for another generation or depth.

use crate::config::SimParams;
use crate::switch_power::SwitchPowerModel;
use ibp_core::{PowerConfig, SleepKind};
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// An InfiniBand signalling generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IbGeneration {
    /// Quad Data Rate: 10 Gb/s per lane, 40 Gb/s per 4X link (the
    /// paper's Table II configuration).
    Qdr,
    /// Fourteen Data Rate: 14 Gb/s per lane, 56 Gb/s per 4X link.
    Fdr,
    /// Enhanced Data Rate: 25 Gb/s per lane, 100 Gb/s per 4X link.
    Edr,
    /// High Data Rate: 50 Gb/s per lane, 200 Gb/s per 4X link.
    Hdr,
    /// Next Data Rate: 100 Gb/s per lane, 400 Gb/s per 4X link.
    Ndr,
    /// Extended Data Rate: 200 Gb/s per lane, 800 Gb/s per 4X link.
    Xdr,
}

impl Default for IbGeneration {
    /// The paper's generation.
    fn default() -> Self {
        IbGeneration::Qdr
    }
}

impl IbGeneration {
    /// Every generation, oldest (slowest) first.
    pub const ALL: [IbGeneration; 6] = [
        IbGeneration::Qdr,
        IbGeneration::Fdr,
        IbGeneration::Edr,
        IbGeneration::Hdr,
        IbGeneration::Ndr,
        IbGeneration::Xdr,
    ];

    /// Lanes per link (all modelled links are 4X).
    pub const LANES: u32 = 4;

    /// Per-lane signalling rate, Gb/s.
    #[must_use]
    pub fn per_lane_gbps(self) -> f64 {
        match self {
            IbGeneration::Qdr => 10.0,
            IbGeneration::Fdr => 14.0,
            IbGeneration::Edr => 25.0,
            IbGeneration::Hdr => 50.0,
            IbGeneration::Ndr => 100.0,
            IbGeneration::Xdr => 200.0,
        }
    }

    /// Full 4X link rate, Gb/s.
    #[must_use]
    pub fn link_gbps(self) -> f64 {
        f64::from(Self::LANES) * self.per_lane_gbps()
    }

    /// Standard name (`QDR`, `FDR`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IbGeneration::Qdr => "QDR",
            IbGeneration::Fdr => "FDR",
            IbGeneration::Edr => "EDR",
            IbGeneration::Hdr => "HDR",
            IbGeneration::Ndr => "NDR",
            IbGeneration::Xdr => "XDR",
        }
    }

    /// Parse a standard name, case-insensitively.
    #[must_use]
    pub fn from_name(name: &str) -> Option<IbGeneration> {
        Self::ALL
            .into_iter()
            .find(|g| g.name().eq_ignore_ascii_case(name))
    }

    /// Map a 4X link rate to its standard name — the
    /// `getIBStandardName` thresholds (≥800 XDR, ≥400 NDR, ≥200 HDR,
    /// ≥100 EDR, ≥56 FDR, else QDR).
    #[must_use]
    pub fn from_rate_gbps(rate_gbps: f64) -> IbGeneration {
        match rate_gbps {
            r if r >= 800.0 => IbGeneration::Xdr,
            r if r >= 400.0 => IbGeneration::Ndr,
            r if r >= 200.0 => IbGeneration::Hdr,
            r if r >= 100.0 => IbGeneration::Edr,
            r if r >= 56.0 => IbGeneration::Fdr,
            _ => IbGeneration::Qdr,
        }
    }

    /// Ports on the representative edge switch of this generation.
    #[must_use]
    pub fn switch_ports(self) -> u32 {
        match self {
            IbGeneration::Qdr | IbGeneration::Fdr | IbGeneration::Edr => 36,
            IbGeneration::Hdr => 40,
            IbGeneration::Ndr | IbGeneration::Xdr => 64,
        }
    }

    /// Nominal power of the representative edge switch, watts
    /// (QDR/FDR match the paper's 130 W 36-port reference; later
    /// generations follow vendor-typical envelopes, monotonically
    /// rising with the signalling rate).
    #[must_use]
    pub fn switch_nominal_w(self) -> f64 {
        match self {
            IbGeneration::Qdr | IbGeneration::Fdr => 130.0,
            IbGeneration::Edr => 136.0,
            IbGeneration::Hdr => 247.0,
            IbGeneration::Ndr => 384.0,
            IbGeneration::Xdr => 560.0,
        }
    }

    /// Per-port link power at full rate: the switch's link share spread
    /// over its ports.
    #[must_use]
    pub fn port_power_w(self) -> f64 {
        let model = self.switch_power_model();
        model.nominal_w * model.link_share / f64::from(self.switch_ports())
    }

    /// Replay parameters for this generation: the paper's Table II with
    /// the link bandwidth swapped for this generation's 4X rate. For
    /// [`IbGeneration::Qdr`] this is exactly [`SimParams::paper`].
    #[must_use]
    pub fn sim_params(self) -> SimParams {
        SimParams {
            bandwidth_bps: self.link_gbps() * 1e9,
            generation: self,
            ..SimParams::paper()
        }
    }

    /// Switch power model for this generation's representative switch
    /// (component shares kept at the paper's split).
    #[must_use]
    pub fn switch_power_model(self) -> SwitchPowerModel {
        SwitchPowerModel {
            ports: self.switch_ports(),
            nominal_w: self.switch_nominal_w(),
            ..SwitchPowerModel::default()
        }
    }

    /// The sleep-depth ladder for this generation's links.
    #[must_use]
    pub fn ladder(self) -> SleepLadder {
        SleepLadder::for_generation(self)
    }
}

impl std::fmt::Display for IbGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rung of the sleep-depth ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LadderRung {
    /// The depth this rung describes.
    pub kind: SleepKind,
    /// Relative power floor while resting on this rung.
    pub power_fraction: f64,
    /// Wake latency back to full rate.
    pub wake_latency: SimDuration,
    /// Energy of one enter+exit transition pair, joules (the port draws
    /// full power for both transitions).
    pub transition_energy_j: f64,
}

/// The per-generation sleep-depth ladder, shallowest rung first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SleepLadder {
    /// The generation the ladder describes.
    pub generation: IbGeneration,
    /// Rungs in [`SleepKind::ALL`] order (WRPS, rate, deep).
    pub rungs: Vec<LadderRung>,
}

impl SleepLadder {
    /// Relative power floors per depth: WRPS 1X (43%, the paper's
    /// SX6036 measurement), rate reduction (25%), deep sleep (10%).
    pub const POWER_FRACTIONS: [f64; 3] = [0.43, 0.25, 0.10];

    /// Wake latencies per depth: lane retrain 10 µs, rate renegotiation
    /// 100 µs, buffers/crossbar power-up 1 ms.
    pub const WAKE_LATENCIES_US: [u64; 3] = [10, 100, 1_000];

    /// Build the standard ladder for a generation. Power floors and
    /// wake latencies are generation-independent (retrain time is set
    /// by handshake protocol, not by rate); transition energy scales
    /// with the generation's per-port power.
    #[must_use]
    pub fn for_generation(generation: IbGeneration) -> SleepLadder {
        let port_w = generation.port_power_w();
        let rungs = SleepKind::ALL
            .iter()
            .zip(Self::POWER_FRACTIONS)
            .zip(Self::WAKE_LATENCIES_US)
            .map(|((&kind, power_fraction), wake_us)| {
                let wake_latency = SimDuration::from_us(wake_us);
                LadderRung {
                    kind,
                    power_fraction,
                    wake_latency,
                    // Both transitions (off + on) bill the port at full
                    // power for one wake latency each.
                    transition_energy_j: 2.0 * port_w * wake_latency.as_secs_f64(),
                }
            })
            .collect();
        SleepLadder { generation, rungs }
    }

    /// The rung for a given depth.
    #[must_use]
    pub fn rung(&self, kind: SleepKind) -> &LadderRung {
        self.rungs
            .iter()
            .find(|r| r.kind == kind)
            .expect("standard ladders carry every depth")
    }

    /// Check the ladder's ordering invariants: walking deeper must
    /// strictly lower the power floor and must not shrink the wake
    /// latency.
    pub fn validate(&self) -> Result<(), String> {
        for pair in self.rungs.windows(2) {
            let (shallow, deep) = (&pair[0], &pair[1]);
            if deep.power_fraction >= shallow.power_fraction {
                return Err(format!(
                    "rung {} floor {} not below rung {} floor {}",
                    deep.kind.label(),
                    deep.power_fraction,
                    shallow.kind.label(),
                    shallow.power_fraction
                ));
            }
            if deep.wake_latency < shallow.wake_latency {
                return Err(format!(
                    "rung {} wake {} below rung {} wake {}",
                    deep.kind.label(),
                    deep.wake_latency,
                    shallow.kind.label(),
                    shallow.wake_latency
                ));
            }
        }
        Ok(())
    }

    /// A [`PowerConfig`] running this ladder: the paper's mechanism
    /// with the ladder policy enabled and the rung floors/latencies
    /// installed.
    #[must_use]
    pub fn power_config(&self, gt: SimDuration, displacement: f64) -> PowerConfig {
        let mut cfg = PowerConfig::paper(gt, displacement);
        cfg.low_power_fraction = self.rung(SleepKind::Wrps).power_fraction;
        cfg.rate_power_fraction = self.rung(SleepKind::Rate).power_fraction;
        cfg.deep_power_fraction = self.rung(SleepKind::Deep).power_fraction;
        cfg.t_react = self.rung(SleepKind::Wrps).wake_latency;
        cfg.rate_t_react = self.rung(SleepKind::Rate).wake_latency;
        cfg.deep_t_react = self.rung(SleepKind::Deep).wake_latency;
        cfg.with_ladder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_rates_follow_the_standard_table() {
        let per_lane: Vec<f64> = IbGeneration::ALL
            .iter()
            .map(|g| g.per_lane_gbps())
            .collect();
        assert_eq!(per_lane, [10.0, 14.0, 25.0, 50.0, 100.0, 200.0]);
        assert_eq!(IbGeneration::Qdr.link_gbps(), 40.0);
        assert_eq!(IbGeneration::Fdr.link_gbps(), 56.0);
        assert_eq!(IbGeneration::Xdr.link_gbps(), 800.0);
    }

    #[test]
    fn rate_to_name_mapping_matches_get_ib_standard_name() {
        for g in IbGeneration::ALL {
            assert_eq!(IbGeneration::from_rate_gbps(g.link_gbps()), g);
        }
        // Thresholds are lower-inclusive, like the reference function.
        assert_eq!(IbGeneration::from_rate_gbps(55.9), IbGeneration::Qdr);
        assert_eq!(IbGeneration::from_rate_gbps(56.0), IbGeneration::Fdr);
        assert_eq!(IbGeneration::from_rate_gbps(1000.0), IbGeneration::Xdr);
    }

    #[test]
    fn names_roundtrip() {
        for g in IbGeneration::ALL {
            assert_eq!(IbGeneration::from_name(g.name()), Some(g));
            assert_eq!(IbGeneration::from_name(&g.name().to_lowercase()), Some(g));
        }
        assert_eq!(IbGeneration::from_name("sdr"), None);
    }

    #[test]
    fn qdr_params_are_bit_identical_to_paper() {
        assert_eq!(IbGeneration::Qdr.sim_params(), SimParams::paper());
        assert_eq!(
            IbGeneration::Qdr.switch_power_model(),
            crate::SwitchPowerModel::default()
        );
    }

    #[test]
    fn faster_generations_only_raise_bandwidth() {
        for g in IbGeneration::ALL {
            let p = g.sim_params();
            assert_eq!(p.bandwidth_bps, g.link_gbps() * 1e9);
            assert_eq!(p.t_react, SimParams::paper().t_react);
            assert_eq!(p.segment_bytes, SimParams::paper().segment_bytes);
        }
    }

    #[test]
    fn switch_power_rises_with_generation() {
        let mut last = 0.0;
        for g in IbGeneration::ALL {
            let w = g.switch_nominal_w();
            assert!(w >= last, "{g}: {w} W below predecessor {last} W");
            last = w;
            g.switch_power_model().validate().expect("model valid");
        }
    }

    #[test]
    fn every_generation_ladder_is_ordered() {
        for g in IbGeneration::ALL {
            let ladder = g.ladder();
            ladder.validate().expect("standard ladder ordered");
            assert_eq!(ladder.rungs.len(), 3);
            // Transition energy deepens with the rung: longer wakes at
            // the same port power cost more energy.
            assert!(
                ladder.rung(SleepKind::Deep).transition_energy_j
                    > ladder.rung(SleepKind::Wrps).transition_energy_j
            );
        }
    }

    #[test]
    fn ladder_power_config_is_valid_and_ladder_enabled() {
        let cfg = IbGeneration::Edr
            .ladder()
            .power_config(SimDuration::from_us(20), 0.01);
        assert_eq!(cfg.policy, ibp_core::PowerPolicy::Ladder);
        cfg.validate().expect("ladder config valid");
        assert!((cfg.rate_power_fraction - 0.25).abs() < 1e-12);
        assert_eq!(cfg.rate_t_react, SimDuration::from_us(100));
    }

    #[test]
    fn ladder_validate_flags_disorder() {
        let mut ladder = IbGeneration::Qdr.ladder();
        ladder.rungs[2].power_fraction = 0.9;
        assert!(ladder.validate().is_err());
        let mut ladder = IbGeneration::Qdr.ladder();
        ladder.rungs[1].wake_latency = SimDuration::from_ns(1);
        assert!(ladder.validate().is_err());
    }
}
