//! Figure 6: throughput under ε-parameterized multipath routing for the six
//! reordering-handling TCP variants, over the Figure 5 mesh.
//!
//! ε = 500 is single-path routing (every method performs alike); smaller ε
//! spreads packets over more paths, reordering grows, and the DUPACK-driven
//! methods collapse while TCP-PR keeps (and aggregates) throughput. TD-FR
//! survives at 10 ms link delay but collapses at 60 ms — its wait threshold
//! scales with RTT and its dupthresh interaction makes it bursty.

use transport::host::{attach_flow, receiver_host, sender_host, FlowOptions};
use transport::sender::TcpSenderAlgo;

use crate::metrics::mbps;
use crate::runner::{measure_window, MeasurePlan};
use crate::topologies::{multipath_mesh, MeshConfig};
use crate::variants::Variant;

/// The ε values swept by the paper.
pub const EPSILONS: [f64; 5] = [0.0, 1.0, 4.0, 10.0, 500.0];

/// Receiver-window cap (segments) applied to every sender in this
/// experiment, mirroring ns-2's `window_` limit. It bounds slow-start
/// overshoot on the otherwise-unloaded mesh; 300 segments match the
/// paper's throughput scale (≈ 30 Mbps at a 40–80 ms multipath RTT).
pub const WINDOW_CAP: f64 = 300.0;

/// One bar of Figure 6.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fig6Point {
    /// Protocol under test.
    pub variant: Variant,
    /// Routing parameter ε.
    pub epsilon: f64,
    /// Per-link propagation delay (ms) of the mesh.
    pub link_delay_ms: u64,
    /// Goodput over the measurement window, Mbps.
    pub mbps: f64,
    /// Segments retransmitted by the sender.
    pub retransmits: u64,
    /// Segments sent in total.
    pub segments_sent: u64,
    /// Reordered (late) first-time arrivals seen by the receiver.
    pub late_arrivals: u64,
    /// Queue drops across the mesh (congestion losses).
    pub queue_drops: u64,
}

/// Runs one (variant, ε) cell of Figure 6. One flow, no background traffic,
/// exactly as in Section 5.
pub fn run_multipath_point(
    variant: Variant,
    epsilon: f64,
    mesh_cfg: MeshConfig,
    plan: MeasurePlan,
    seed: u64,
) -> Fig6Point {
    let mesh = multipath_mesh(seed, mesh_cfg);
    let mut sim = mesh.sim;
    // The routing strategy applies to the network: both directions are
    // ε-routed, so ACKs reorder too (TCP-PR is explicitly robust to that).
    sim.install_multipath(mesh.src, mesh.dst, epsilon, mesh.max_path_hops);
    sim.install_multipath(mesh.dst, mesh.src, epsilon, mesh.max_path_hops);

    let flow = netsim::ids::FlowId::from_raw(0);
    let handle = attach_flow(
        &mut sim,
        flow,
        mesh.src,
        mesh.dst,
        variant.build_with(tcp_pr::TcpPrConfig::default(), WINDOW_CAP),
        FlowOptions::default(),
    );

    let delivered = measure_window(&mut sim, &[handle], plan)[0];

    let sender = sender_host::<Box<dyn TcpSenderAlgo>>(&sim, handle.sender);
    let receiver = receiver_host(&sim, handle.receiver);
    Fig6Point {
        variant,
        epsilon,
        link_delay_ms: mesh_cfg.link_delay_ms,
        mbps: mbps(delivered, plan.window.as_secs_f64()),
        retransmits: sender.stats().retransmits,
        segments_sent: sender.stats().segments_sent,
        late_arrivals: receiver.receiver_stats().late_arrivals,
        queue_drops: sim.stats().queue_drops,
    }
}

/// Renders a panel as the paper-style grouped table (rows protocols,
/// columns ε).
pub fn format_table(points: &[Fig6Point]) -> String {
    let mut epsilons: Vec<f64> = points.iter().map(|p| p.epsilon).collect();
    epsilons.sort_by(f64::total_cmp);
    epsilons.dedup();
    let mut variants: Vec<Variant> = Vec::new();
    for p in points {
        if !variants.contains(&p.variant) {
            variants.push(p.variant);
        }
    }
    let delay = points.first().map(|p| p.link_delay_ms).unwrap_or(0);
    let mut s = format!("Figure 6 — throughput (Mbps), link delay {delay} ms\n");
    s.push_str("protocol     |");
    for e in &epsilons {
        s.push_str(&format!(" eps={e:<5} |"));
    }
    s.push('\n');
    for v in &variants {
        s.push_str(&format!("{:12} |", v.label()));
        for e in &epsilons {
            let val = points
                .iter()
                .find(|p| p.variant == *v && p.epsilon == *e)
                .map(|p| p.mbps)
                .unwrap_or(f64::NAN);
            s.push_str(&format!(" {val:9.2} |"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grids::assemble_fresh;
    use crate::sweep::{PlanSpec, ScenarioKind, ScenarioSpec};

    #[test]
    fn single_path_all_variants_healthy() {
        // ε = 500: shortest-path only, no reordering — every variant should
        // fill a good share of the 10 Mbps path.
        let plan = MeasurePlan::quick();
        let cfg = MeshConfig::default();
        for v in [Variant::TcpPr, Variant::Sack] {
            let p = run_multipath_point(v, 500.0, cfg, plan, 41);
            assert!(p.mbps > 7.0, "{v} at eps=500 got {} Mbps", p.mbps);
        }
    }

    #[test]
    fn full_multipath_pr_beats_dupack_methods() {
        let plan = MeasurePlan::quick();
        let cfg = MeshConfig::default();
        let pr = run_multipath_point(Variant::TcpPr, 0.0, cfg, plan, 43);
        let nm = run_multipath_point(Variant::DsackNm, 0.0, cfg, plan, 43);
        assert!(
            pr.mbps > 2.0 * nm.mbps,
            "TCP-PR ({}) must dominate DSACK-NM ({}) at eps=0",
            pr.mbps,
            nm.mbps
        );
        assert!(pr.late_arrivals > 100, "multipath must reorder heavily");
    }

    #[test]
    fn pr_aggregates_multiple_paths() {
        // At ε = 0 TCP-PR should exceed the single-path capacity.
        let plan = MeasurePlan::quick();
        let p = run_multipath_point(Variant::TcpPr, 0.0, MeshConfig::default(), plan, 47);
        assert!(p.mbps > 12.0, "aggregate above one path's 10 Mbps, got {}", p.mbps);
    }

    #[test]
    fn table_contains_all_variants() {
        let mut specs = Vec::new();
        for variant in [Variant::TcpPr, Variant::TdFr] {
            for epsilon in [0.0, 500.0] {
                let kind = ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 10 };
                specs.push(ScenarioSpec::new(kind, PlanSpec::Quick));
            }
        }
        let (t, _) = assemble_fresh("fig6_10ms", &specs);
        assert!(t.contains("TCP-PR") && t.contains("TD-FR"));
    }
}
