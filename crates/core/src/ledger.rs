//! Sleep planning and wake accounting, shared by every policy.
//!
//! Algorithm 3 arms every sleep the same way — pick a depth and a timer
//! for the idle interval the policy expects — and settles it the same
//! way once the call ending the gap arrives: a wake that completes late
//! stalls that call by at most the depth's reactivation time, and the
//! span between the off transition and the wake is booked as time in
//! the chosen depth. [`SleepLedger`] is the one place that does both,
//! for the PPA runtime and for the [`crate::baselines`] alike; the
//! policies differ only in the idle they predict.

use crate::config::{PowerConfig, SleepKind};
use crate::runtime::{LaneDirective, RankAnnotation};
use crate::stats::RankStats;
use ibp_simcore::SimDuration;
use ibp_trace::Rank;

/// How an armed sleep window ends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wake {
    /// The HCA timer fires early enough that the lanes are back
    /// `idle·displacement` before the predicted idle ends.
    Timer {
        /// Safety margin, as a fraction of the predicted idle.
        displacement: f64,
    },
    /// No timer: the link sleeps until traffic arrives, and the arriving
    /// call pays the full reactivation time. The depth is planned with
    /// no safety margin, since no wake-up is scheduled.
    Demand,
}

/// An armed sleep awaiting the call that ends its gap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSleep {
    /// Time from the triggering event's completion to the off transition.
    pub(crate) delay: SimDuration,
    /// Programmed low-power window, measured from the off transition.
    pub(crate) timer: SimDuration,
    /// Sleep depth.
    pub(crate) kind: SleepKind,
}

/// One rank's per-event output and the sleep currently armed on it.
#[derive(Debug)]
pub(crate) struct SleepLedger {
    /// Whether the per-event output is kept (stats-only passes clear it).
    record: bool,
    pub(crate) pending: Option<PendingSleep>,
    pub(crate) directives: Vec<LaneDirective>,
    overhead: Vec<SimDuration>,
    penalty: Vec<SimDuration>,
}

impl SleepLedger {
    pub(crate) fn new(record: bool, pending: Option<PendingSleep>) -> Self {
        SleepLedger {
            record,
            pending,
            directives: Vec::new(),
            overhead: Vec::new(),
            penalty: Vec::new(),
        }
    }

    /// Pre-size the per-event output for `additional` upcoming events.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if self.record {
            self.overhead.reserve(additional);
            self.penalty.reserve(additional);
            // At most one directive per event.
            self.directives.reserve(additional);
        }
    }

    /// Arm a sleep `delay` after event `after_event` completes, planned
    /// over the idle left once the delay has passed. Unprofitable
    /// windows arm nothing.
    #[inline]
    pub(crate) fn sleep(
        &mut self,
        cfg: &PowerConfig,
        stats: &mut RankStats,
        after_event: usize,
        delay: SimDuration,
        predicted_idle: SimDuration,
        wake: Wake,
    ) {
        let displacement = match wake {
            Wake::Timer { displacement } => displacement,
            Wake::Demand => 0.0,
        };
        let Some((kind, planned)) =
            cfg.plan_sleep_with(displacement, predicted_idle.saturating_sub(delay))
        else {
            return;
        };
        // A demand wake's timer outlasts the idle: traffic ends the window.
        let timer = match wake {
            Wake::Timer { .. } => planned,
            Wake::Demand => predicted_idle,
        };
        if self.record {
            self.directives.push(LaneDirective {
                after_event,
                delay,
                timer,
                predicted_idle,
                kind,
            });
        }
        stats.lane_off_count += 1;
        self.pending = Some(PendingSleep { delay, timer, kind });
    }

    /// Settle the armed sleep, if any, against the `gap` that actually
    /// elapsed: charge the stall of a late wake (at most the depth's
    /// reactivation time) and book the low-power span — from the end of
    /// the off transition until the timer fired or the early call forced
    /// the wake. Returns the stall; `None` when nothing was armed.
    #[inline]
    pub(crate) fn wake(
        &mut self,
        cfg: &PowerConfig,
        stats: &mut RankStats,
        gap: SimDuration,
    ) -> Option<SimDuration> {
        let p = self.pending.take()?;
        let react = cfg.react_of(p.kind);
        let ready = p.delay + p.timer + react;
        let stall = ready.saturating_sub(gap).min(react);
        if !stall.is_zero() {
            stats.timing_mispredictions += 1;
            stats.total_penalty += stall;
        }
        let span = (p.delay + p.timer).min(gap).saturating_sub(p.delay + react);
        match p.kind {
            SleepKind::Wrps => stats.low_power_time += span,
            SleepKind::Rate => stats.rate_time += span,
            SleepKind::Deep => stats.deep_time += span,
        }
        Some(stall)
    }

    /// Close one event with its mechanism overhead and reactivation stall.
    #[inline]
    pub(crate) fn close_event(&mut self, overhead: SimDuration, penalty: SimDuration) {
        if self.record {
            self.overhead.push(overhead);
            self.penalty.push(penalty);
        }
    }

    /// The finished annotation of `rank`.
    pub(crate) fn into_annotation(self, rank: Rank, stats: RankStats) -> RankAnnotation {
        RankAnnotation {
            rank,
            directives: self.directives,
            overhead: self.overhead,
            penalty: self.penalty,
            stats,
        }
    }
}
