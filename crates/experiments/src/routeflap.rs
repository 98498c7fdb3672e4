//! Route-flap experiment (extension).
//!
//! The paper's introduction names route oscillation between paths with
//! different RTTs as a common cause of reordering in the Internet
//! (\[17\], Paxson). This harness models it directly: a diamond topology with
//! a short and a long path, and the route pinned alternately to each on a
//! fixed period. Packets in flight on the old path interleave with packets
//! on the new one — persistent reordering without any multipath
//! *splitting*.

use netsim::ids::NodeId;
use netsim::link::LinkConfig;
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use transport::host::{attach_flow, receiver_host, sender_host, FlowOptions};
use transport::sender::TcpSenderAlgo;

use crate::metrics::mbps;
use crate::runner::{measure_window, MeasurePlan};
use crate::variants::Variant;

/// Parameters of the route-flap scenario.
#[derive(Debug, Clone, Copy)]
pub struct RouteFlapConfig {
    /// One-way delay of the short path's links, ms.
    pub short_delay_ms: u64,
    /// One-way delay of the long path's links, ms.
    pub long_delay_ms: u64,
    /// Link bandwidth, Mbps.
    pub link_mbps: f64,
    /// Flap period: the route switches every this often.
    pub flap_period: SimDuration,
}

impl Default for RouteFlapConfig {
    fn default() -> Self {
        RouteFlapConfig {
            short_delay_ms: 10,
            long_delay_ms: 40,
            link_mbps: 10.0,
            flap_period: SimDuration::from_millis(500),
        }
    }
}

/// Outcome of one route-flap run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RouteFlapResult {
    /// Protocol under test.
    pub variant: Variant,
    /// Goodput over the measurement window, Mbps.
    pub mbps: f64,
    /// Reordered (late) arrivals at the receiver.
    pub late_arrivals: u64,
    /// Mean reorder displacement (segments).
    pub mean_displacement: f64,
    /// Sender retransmissions.
    pub retransmits: u64,
}

fn build_diamond(seed: u64, cfg: RouteFlapConfig) -> (Simulator, NodeId, NodeId) {
    let mut b = SimBuilder::new(seed);
    let src = b.add_node();
    let short_mid = b.add_node();
    let long_mid = b.add_node();
    let dst = b.add_node();
    b.add_duplex(src, short_mid, LinkConfig::mbps_ms(cfg.link_mbps, cfg.short_delay_ms, 100));
    b.add_duplex(short_mid, dst, LinkConfig::mbps_ms(cfg.link_mbps, cfg.short_delay_ms, 100));
    b.add_duplex(src, long_mid, LinkConfig::mbps_ms(cfg.link_mbps, cfg.long_delay_ms, 100));
    b.add_duplex(long_mid, dst, LinkConfig::mbps_ms(cfg.link_mbps, cfg.long_delay_ms, 100));
    (b.build(), src, dst)
}

/// Runs one variant under periodic route flaps.
pub fn run_route_flap(
    variant: Variant,
    cfg: RouteFlapConfig,
    plan: MeasurePlan,
    seed: u64,
) -> RouteFlapResult {
    let (mut sim, src, dst) = build_diamond(seed, cfg);

    // Pin the data route alternately to the short (index 0) and long
    // (index 1) path for the whole horizon. ACKs flap symmetrically.
    let horizon = plan.total();
    let mut at = SimTime::ZERO;
    let mut idx = 0usize;
    while at < SimTime::ZERO + horizon {
        sim.schedule_path_pin(at, src, dst, idx, 2);
        sim.schedule_path_pin(at, dst, src, idx, 2);
        idx = 1 - idx;
        at += cfg.flap_period;
    }

    let h = attach_flow(
        &mut sim,
        netsim::ids::FlowId::from_raw(0),
        src,
        dst,
        variant.build(),
        FlowOptions::default(),
    );
    let delivered = measure_window(&mut sim, &[h], plan)[0];

    let rx = receiver_host(&sim, h.receiver);
    let tx = sender_host::<Box<dyn TcpSenderAlgo>>(&sim, h.sender);
    RouteFlapResult {
        variant,
        mbps: mbps(delivered, plan.window.as_secs_f64()),
        late_arrivals: rx.receiver_stats().late_arrivals,
        mean_displacement: rx.receiver_stats().mean_displacement(),
        retransmits: tx.stats().retransmits,
    }
}

/// Runs a set of variants and renders a comparison table.
pub fn run_comparison(
    variants: &[Variant],
    cfg: RouteFlapConfig,
    plan: MeasurePlan,
    seed: u64,
) -> Vec<RouteFlapResult> {
    variants.iter().map(|&v| run_route_flap(v, cfg, plan, seed)).collect()
}

/// Text table over route-flap results.
pub fn format_table(results: &[RouteFlapResult]) -> String {
    let mut s = String::from("Route flaps between a short and a long path\n");
    s.push_str("protocol     | Mbps   | late arrivals | mean displacement | rtx\n");
    for r in results {
        s.push_str(&format!(
            "{:12} | {:6.2} | {:13} | {:17.1} | {}\n",
            r.variant.label(),
            r.mbps,
            r.late_arrivals,
            r.mean_displacement,
            r.retransmits
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaps_reorder_traffic() {
        let r = run_route_flap(Variant::TcpPr, RouteFlapConfig::default(), MeasurePlan::quick(), 5);
        assert!(r.late_arrivals > 50, "flaps must reorder: {} late", r.late_arrivals);
        assert!(r.mean_displacement > 1.0);
    }

    #[test]
    fn tcp_pr_withstands_flaps_better_than_newreno() {
        let cfg = RouteFlapConfig::default();
        let plan = MeasurePlan::quick();
        let pr = run_route_flap(Variant::TcpPr, cfg, plan, 5);
        let nr = run_route_flap(Variant::NewReno, cfg, plan, 5);
        assert!(pr.mbps > 1.3 * nr.mbps, "TCP-PR {} vs NewReno {} under flaps", pr.mbps, nr.mbps);
        assert!(pr.mbps > 5.0, "TCP-PR should hold most of the path: {}", pr.mbps);
    }

    #[test]
    fn without_flaps_far_less_reordering() {
        // Single pin at t=0, never flapped: only loss-retransmissions can
        // arrive "late" (a lost original's retransmission lands after
        // higher sequence numbers), so reordering is far below the flapped
        // case and throughput is near line rate.
        let plan = MeasurePlan::quick();
        let pinned =
            RouteFlapConfig { flap_period: SimDuration::from_secs(10_000), ..Default::default() };
        let calm = run_route_flap(Variant::TcpPr, pinned, plan, 5);
        let flapped = run_route_flap(Variant::TcpPr, RouteFlapConfig::default(), plan, 5);
        assert!(
            flapped.late_arrivals > 5 * calm.late_arrivals.max(1),
            "flaps must dominate reordering: {} vs {}",
            flapped.late_arrivals,
            calm.late_arrivals
        );
        assert!(calm.mbps > 7.0, "pinned path near line rate: {}", calm.mbps);
    }
}
