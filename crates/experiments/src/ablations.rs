//! Ablation studies over TCP-PR's design choices (DESIGN.md §2):
//! the `memorize` list, extreme-loss handling, and the send-time window
//! snapshot. Each ablation runs the same single-flow dumbbell workload and
//! reports throughput plus the sender's event counters, so the contribution
//! of each mechanism is visible in isolation.

use netsim::ids::FlowId;
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{attach_flow, sender_host, FlowOptions};

use crate::metrics::mbps;
use crate::runner::{measure_window, MeasurePlan};
use crate::topologies::{dumbbell, DumbbellConfig};

/// Which mechanism is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Ablation {
    /// The full algorithm (baseline).
    None,
    /// No `memorize` list: every detected drop halves the window.
    NoMemorize,
    /// No Section 3.2 extreme-loss reset/backoff.
    NoExtremeLoss,
    /// Halve from the current window instead of the send-time snapshot.
    HalveFromCurrent,
}

impl Ablation {
    /// All ablations, baseline first.
    pub const ALL: [Ablation; 4] =
        [Ablation::None, Ablation::NoMemorize, Ablation::NoExtremeLoss, Ablation::HalveFromCurrent];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::None => "full algorithm",
            Ablation::NoMemorize => "no memorize list",
            Ablation::NoExtremeLoss => "no extreme-loss handling",
            Ablation::HalveFromCurrent => "halve from current cwnd",
        }
    }

    /// The TCP-PR configuration with this mechanism removed.
    pub fn config(self) -> TcpPrConfig {
        let mut cfg = TcpPrConfig::default();
        match self {
            Ablation::None => {}
            Ablation::NoMemorize => cfg.ablate_no_memorize = true,
            Ablation::NoExtremeLoss => cfg.ablate_no_extreme_loss = true,
            Ablation::HalveFromCurrent => cfg.ablate_halve_current = true,
        }
        cfg
    }
}

/// Outcome of one ablation run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AblationResult {
    /// Which mechanism was removed.
    pub ablation: Ablation,
    /// Goodput over the measurement window, Mbps.
    pub mbps: f64,
    /// Window halvings.
    pub window_halvings: u64,
    /// Extreme-loss episodes.
    pub extreme_loss_events: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
}

/// Runs one ablation on a single-flow congested dumbbell.
pub fn run_ablation(ablation: Ablation, plan: MeasurePlan, seed: u64) -> AblationResult {
    let mut d = dumbbell(seed, DumbbellConfig::default());
    let h = attach_flow(
        &mut d.sim,
        FlowId::from_raw(0),
        d.src,
        d.dst,
        TcpPrSender::new(ablation.config()),
        FlowOptions::default(),
    );
    let delivered = measure_window(&mut d.sim, &[h], plan)[0];
    let host = sender_host::<TcpPrSender>(&d.sim, h.sender);
    AblationResult {
        ablation,
        mbps: mbps(delivered, plan.window.as_secs_f64()),
        window_halvings: host.algo().stats().window_halvings,
        extreme_loss_events: host.algo().stats().extreme_loss_events,
        retransmits: host.stats().retransmits,
    }
}

/// Text table over ablation results.
pub fn format_table(results: &[AblationResult]) -> String {
    let mut s = String::from("TCP-PR ablations (single flow, congested dumbbell)\n");
    s.push_str("variant                   | Mbps   | halvings | extreme-loss | rtx\n");
    for r in results {
        s.push_str(&format!(
            "{:25} | {:6.2} | {:8} | {:12} | {}\n",
            r.ablation.label(),
            r.mbps,
            r.window_halvings,
            r.extreme_loss_events,
            r.retransmits
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use serde::Deserialize;

    use super::*;
    use crate::sweep::grids::assemble_fresh;
    use crate::sweep::{PlanSpec, ScenarioKind, ScenarioSpec};

    #[test]
    fn memorize_prevents_per_packet_halvings() {
        let plan = MeasurePlan::quick();
        let full = run_ablation(Ablation::None, plan, 3);
        let no_mem = run_ablation(Ablation::NoMemorize, plan, 3);
        assert!(
            no_mem.window_halvings > full.window_halvings,
            "without memorize every drop halves: {} vs {}",
            no_mem.window_halvings,
            full.window_halvings
        );
        assert!(
            no_mem.mbps <= full.mbps * 1.05,
            "removing memorize must not help: {} vs {}",
            no_mem.mbps,
            full.mbps
        );
    }

    #[test]
    fn ablation_table_renders() {
        let specs: Vec<ScenarioSpec> = Ablation::ALL
            .iter()
            .map(|&ablation| {
                ScenarioSpec::new(ScenarioKind::Ablation { ablation }, PlanSpec::Quick)
            })
            .collect();
        let (t, results) = assemble_fresh("ablations", &specs);
        let rows: Vec<AblationResult> = Deserialize::from_value(&results).expect("rows");
        assert_eq!(rows.len(), 4);
        assert!(t.contains("full algorithm"));
        assert!(t.contains("no memorize"));
        // The full algorithm should be the best or tied.
        let full = rows[0].mbps;
        for r in &rows[1..] {
            assert!(r.mbps <= full * 1.15, "{}: {} vs full {}", r.ablation.label(), r.mbps, full);
        }
    }
}
