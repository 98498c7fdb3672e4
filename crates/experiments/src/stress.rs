//! Stress suite: every sender variant on a dumbbell whose bottleneck runs
//! through the `netsim::impair` pipeline.
//!
//! The paper evaluates TCP-PR under reordering produced by multipath
//! routing and route flaps; this extension subjects the protocols to the
//! impairment matrix the simulator can now express directly — i.i.d. and
//! Gilbert–Elliott burst loss, bounded jitter, fixed-offset displacement,
//! duplication, link flapping and bandwidth/delay oscillation — with
//! deterministic on-off cross traffic sharing the bottleneck. Impairments
//! arrive as [`ImpairmentSpec`] sweep data and are converted here into the
//! concrete [`StageConfig`] pipeline and [`AdminEntry`] schedules, so the
//! harness stays a pure function of (spec, plan, seed).

use netsim::impair::{bandwidth_oscillation, delay_oscillation, flap_schedule};
use netsim::time::{SimDuration, SimTime};
use netsim::{AdminEntry, StageConfig};
use transport::host::{attach_flow, receiver_host, sender_host, FlowOptions};
use transport::sender::TcpSenderAlgo;

use crate::metrics::mbps;
use crate::runner::{measure_window, MeasurePlan};
use crate::sweep::spec::ImpairmentSpec;
use crate::topologies::{dumbbell, DumbbellConfig};
use crate::variants::Variant;

/// Parameters of the stress scenario.
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// The dumbbell under test (the impairments apply to its forward
    /// bottleneck link).
    pub dumbbell: DumbbellConfig,
    /// On-off cross-traffic rate while bursting, bits per second.
    pub cross_rate_bps: f64,
    /// Cross-traffic packet size, bytes.
    pub cross_packet_bytes: u32,
    /// Cross-traffic burst length.
    pub cross_on: SimDuration,
    /// Cross-traffic silence length.
    pub cross_off: SimDuration,
}

impl Default for StressConfig {
    fn default() -> Self {
        // A tighter bottleneck than the fairness dumbbell so the loss and
        // oscillation profiles bite: one test flow plus 2 Mbps of bursty
        // cross traffic against 10 Mbps.
        StressConfig {
            dumbbell: DumbbellConfig {
                bottleneck_mbps: 10.0,
                bottleneck_delay_ms: 20,
                access_mbps: 100.0,
                access_delay_ms: 5,
                queue_packets: 100,
            },
            cross_rate_bps: 2e6,
            cross_packet_bytes: 1000,
            cross_on: SimDuration::from_millis(500),
            cross_off: SimDuration::from_millis(500),
        }
    }
}

/// Outcome of one stress cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StressResult {
    /// Protocol under test.
    pub variant: Variant,
    /// Impairment profile: stage tags joined by `+`, or `baseline`.
    pub profile: String,
    /// Goodput over the measurement window, Mbps.
    pub mbps: f64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Data segments put on the wire.
    pub segments_sent: u64,
    /// Reordered (late) arrivals at the receiver.
    pub late_arrivals: u64,
    /// Duplicate segments seen by the receiver.
    pub receiver_duplicates: u64,
    /// Packets destroyed by the impairment pipeline (loss stages plus
    /// down-link drops).
    pub impair_drops: u64,
    /// Packets duplicated on the wire.
    pub impair_dups: u64,
    /// Packets given extra delay by the jitter/displacement stages.
    pub reorder_displacements: u64,
    /// Up → down transitions of the bottleneck.
    pub link_flaps: u64,
}

/// The human name of an impairment list: tags joined, or `baseline`.
pub fn profile_name(impairments: &[ImpairmentSpec]) -> String {
    if impairments.is_empty() {
        "baseline".to_owned()
    } else {
        impairments.iter().map(ImpairmentSpec::tag).collect::<Vec<_>>().join("+")
    }
}

/// The per-packet pipeline stages of an impairment list, in list order
/// (schedule-type entries contribute nothing here).
pub(crate) fn to_stages(impairments: &[ImpairmentSpec]) -> Vec<StageConfig> {
    impairments
        .iter()
        .filter_map(|imp| match *imp {
            ImpairmentSpec::IidLoss { p } => Some(StageConfig::IidLoss { p }),
            ImpairmentSpec::BurstLoss { p_good_to_bad, p_bad_to_good, loss_bad } => {
                Some(StageConfig::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good: 0.0,
                    loss_bad,
                })
            }
            ImpairmentSpec::Jitter { prob, max_extra_ms } => Some(StageConfig::Jitter {
                prob,
                max_extra: SimDuration::from_millis(max_extra_ms),
            }),
            ImpairmentSpec::Displace { every, depth } => {
                Some(StageConfig::Displace { every, depth })
            }
            ImpairmentSpec::Duplicate { p } => Some(StageConfig::Duplicate { p }),
            ImpairmentSpec::Flap { .. }
            | ImpairmentSpec::BandwidthOscillation { .. }
            | ImpairmentSpec::DelayOscillation { .. } => None,
        })
        .collect()
}

/// The admin schedule of one impairment entry, if it is schedule-typed.
pub(crate) fn to_schedule(
    imp: &ImpairmentSpec,
    cfg: &StressConfig,
    until: SimTime,
) -> Option<Vec<AdminEntry>> {
    match *imp {
        ImpairmentSpec::Flap { period_ms, down_ms } => Some(flap_schedule(
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(down_ms),
            until,
        )),
        ImpairmentSpec::BandwidthOscillation { low_mbps, period_ms } => {
            Some(bandwidth_oscillation(
                cfg.dumbbell.bottleneck_mbps * 1e6,
                low_mbps * 1e6,
                SimDuration::from_millis(period_ms),
                until,
            ))
        }
        ImpairmentSpec::DelayOscillation { high_delay_ms, period_ms } => Some(delay_oscillation(
            SimDuration::from_millis(cfg.dumbbell.bottleneck_delay_ms),
            SimDuration::from_millis(high_delay_ms),
            SimDuration::from_millis(period_ms),
            until,
        )),
        _ => None,
    }
}

/// Runs one variant on the impaired dumbbell.
pub fn run_stress(
    variant: Variant,
    impairments: &[ImpairmentSpec],
    cfg: StressConfig,
    plan: MeasurePlan,
    seed: u64,
) -> StressResult {
    let mut d = dumbbell(seed, cfg.dumbbell);
    let until = SimTime::ZERO + plan.total();

    let stages = to_stages(impairments);
    if !stages.is_empty() {
        d.sim.set_link_impairments(d.bottleneck, &stages);
    }
    for imp in impairments {
        if let Some(entries) = to_schedule(imp, &cfg, until) {
            d.sim.apply_admin_schedule(d.bottleneck, &entries);
        }
    }

    // Deterministic on-off cross traffic over the same bottleneck; its
    // burst pattern is a pure function of sim time, so it perturbs the
    // test flow identically on every run.
    let cross_flow = netsim::ids::FlowId::from_raw(1);
    d.sim.add_agent(
        d.src,
        cross_flow,
        Box::new(netsim::traffic::OnOffSource::new(
            d.dst,
            cfg.cross_rate_bps,
            cfg.cross_packet_bytes,
            cfg.cross_on,
            cfg.cross_off,
            SimTime::ZERO,
        )),
    );
    d.sim.add_agent(d.dst, cross_flow, Box::new(netsim::traffic::CbrSink::new()));

    let h = attach_flow(
        &mut d.sim,
        netsim::ids::FlowId::from_raw(0),
        d.src,
        d.dst,
        variant.build(),
        FlowOptions::default(),
    );
    let delivered = measure_window(&mut d.sim, &[h], plan)[0];

    let rx = receiver_host(&d.sim, h.receiver).receiver_stats();
    let tx = sender_host::<Box<dyn TcpSenderAlgo>>(&d.sim, h.sender).stats();
    let totals = d.sim.impair_totals();
    StressResult {
        variant,
        profile: profile_name(impairments),
        mbps: mbps(delivered, plan.window.as_secs_f64()),
        retransmits: tx.retransmits,
        segments_sent: tx.segments_sent,
        late_arrivals: rx.late_arrivals,
        receiver_duplicates: rx.duplicates,
        impair_drops: totals.drops(),
        impair_dups: totals.duplicates,
        reorder_displacements: totals.reorder_displacements(),
        link_flaps: totals.flaps,
    }
}

/// Text table over stress results, one row per (variant, profile) cell.
pub fn format_table(results: &[StressResult]) -> String {
    let mut s =
        String::from("Stress suite: impaired-bottleneck dumbbell with on-off cross traffic\n");
    s.push_str(
        "protocol     | profile              | Mbps   | rtx   | late  | wire drops | dups | flaps\n",
    );
    for r in results {
        s.push_str(&format!(
            "{:12} | {:20} | {:6.2} | {:5} | {:5} | {:10} | {:4} | {}\n",
            r.variant.label(),
            r.profile,
            r.mbps,
            r.retransmits,
            r.late_arrivals,
            r.impair_drops,
            r.impair_dups,
            r.link_flaps,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_run_is_clean_and_fast() {
        let r = run_stress(Variant::TcpPr, &[], StressConfig::default(), MeasurePlan::quick(), 7);
        assert_eq!(r.profile, "baseline");
        assert_eq!(r.impair_drops, 0);
        assert_eq!(r.link_flaps, 0);
        // 10 Mbps bottleneck minus ~1 Mbps mean cross traffic.
        assert!(r.mbps > 6.0, "baseline goodput {}", r.mbps);
    }

    #[test]
    fn loss_profile_drops_and_slows_the_flow() {
        let imps =
            [ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 }];
        let clean =
            run_stress(Variant::TcpPr, &[], StressConfig::default(), MeasurePlan::quick(), 7);
        let lossy =
            run_stress(Variant::TcpPr, &imps, StressConfig::default(), MeasurePlan::quick(), 7);
        assert_eq!(lossy.profile, "burst-loss");
        assert!(lossy.impair_drops > 50, "burst loss must bite: {}", lossy.impair_drops);
        // The lossy flow collapses, so absolute retransmit counts drop with
        // it — the retransmit *rate* is what the loss inflates.
        let rate = |r: &StressResult| r.retransmits as f64 / r.segments_sent.max(1) as f64;
        assert!(rate(&lossy) > 2.0 * rate(&clean), "{} vs {}", rate(&lossy), rate(&clean));
        assert!(lossy.mbps < 0.5 * clean.mbps, "{} vs {}", lossy.mbps, clean.mbps);
    }

    #[test]
    fn reordering_profile_reorders_without_loss() {
        let imps = [
            ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
            ImpairmentSpec::Displace { every: 20, depth: 4 },
        ];
        let r = run_stress(Variant::TcpPr, &imps, StressConfig::default(), MeasurePlan::quick(), 7);
        assert_eq!(r.profile, "jitter+displace");
        assert_eq!(r.impair_drops, 0);
        assert!(r.reorder_displacements > 100, "{}", r.reorder_displacements);
        assert!(r.late_arrivals > 20, "jitter must reorder: {}", r.late_arrivals);
    }

    #[test]
    fn flap_profile_counts_transitions() {
        let imps = [ImpairmentSpec::Flap { period_ms: 3000, down_ms: 300 }];
        let r = run_stress(Variant::TcpPr, &imps, StressConfig::default(), MeasurePlan::quick(), 7);
        // quick plan: 10 s warm-up + 15 s window = 25 s ⇒ 8 full cycles.
        assert!(r.link_flaps >= 7, "flaps {}", r.link_flaps);
        assert!(r.impair_drops > 0, "down periods drop wire packets");
    }

    #[test]
    fn runs_are_deterministic() {
        let imps = [
            ImpairmentSpec::IidLoss { p: 0.01 },
            ImpairmentSpec::Jitter { prob: 0.2, max_extra_ms: 20 },
            ImpairmentSpec::Duplicate { p: 0.01 },
        ];
        let a = run_stress(Variant::Sack, &imps, StressConfig::default(), MeasurePlan::quick(), 3);
        let b = run_stress(Variant::Sack, &imps, StressConfig::default(), MeasurePlan::quick(), 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
