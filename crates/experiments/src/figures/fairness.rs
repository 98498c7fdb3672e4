//! The common fairness experiment underlying Figures 2, 3 and 4: an equal
//! number of TCP-PR and TCP-SACK flows sharing a topology, throughput
//! measured over the final window.

use netsim::ids::LinkId;
use netsim::sim::Simulator;
use netsim::telemetry::Sampler;
use netsim::trace::{TraceConfig, TraceSink};
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{attach_flow, FlowHandle, FlowOptions};

use baselines::sack::{SackConfig, SackSender};

use crate::metrics::{cov, mean, normalized_throughput};
use crate::runner::{flow_ids, measure_window_with, staggered_start, MeasurePlan};
use crate::topologies::{dumbbell, parking_lot, DumbbellConfig, ParkingLotConfig};

/// Which topology the fairness run uses.
#[derive(Debug, Clone, Copy)]
pub enum FairnessTopology {
    /// Single-bottleneck dumbbell.
    Dumbbell(DumbbellConfig),
    /// Figure 1 parking lot with its six cross-traffic flows.
    ParkingLot(ParkingLotConfig),
}

impl FairnessTopology {
    /// Short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FairnessTopology::Dumbbell(_) => "dumbbell",
            FairnessTopology::ParkingLot(_) => "parking-lot",
        }
    }
}

/// Parameters of one fairness run.
#[derive(Debug, Clone, Copy)]
pub struct FairnessParams {
    /// Measurement plan (warm-up + window).
    pub plan: MeasurePlan,
    /// TCP-PR parameters (Figure 4 sweeps α and β).
    pub pr_config: TcpPrConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for FairnessParams {
    fn default() -> Self {
        FairnessParams { plan: MeasurePlan::default(), pr_config: TcpPrConfig::default(), seed: 1 }
    }
}

/// Outcome of one fairness run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FairnessResult {
    /// Topology label.
    pub topology: String,
    /// Number of test flows (half TCP-PR, half TCP-SACK).
    pub n_flows: usize,
    /// Normalized throughput of each TCP-PR flow.
    pub pr_normalized: Vec<f64>,
    /// Normalized throughput of each TCP-SACK flow.
    pub sack_normalized: Vec<f64>,
    /// Mean normalized throughput, TCP-PR.
    pub mean_pr: f64,
    /// Mean normalized throughput, TCP-SACK.
    pub mean_sack: f64,
    /// Coefficient of variation, TCP-PR.
    pub cov_pr: f64,
    /// Coefficient of variation, TCP-SACK.
    pub cov_sack: f64,
    /// Measured drop rate (%) across the bottleneck link(s), forward
    /// direction.
    pub loss_rate_pct: f64,
}

/// Optional instrumentation threaded through a fairness run.
///
/// The fairness harness builds its simulator internally, so telemetry
/// consumers cannot reach in directly; this carries their hooks across.
#[derive(Default)]
pub struct FairnessTelemetry<'a> {
    /// Streaming sink receiving every trace record of the first test flow
    /// (always a TCP-PR flow). The in-memory buffer stays a small ring;
    /// the sink gets the complete stream.
    pub trace_sink: Option<Box<dyn TraceSink>>,
    /// Sampler driving the measurement clock, probing on its grid through
    /// warm-up and the window.
    pub sampler: Option<&'a mut Sampler>,
}

/// Runs `n_flows` test flows (alternating TCP-PR / TCP-SACK) over the given
/// topology, with the paper's cross traffic when the topology is the
/// parking lot.
///
/// # Panics
///
/// Panics if `n_flows` is zero or odd.
pub fn run_fairness(
    topology: FairnessTopology,
    n_flows: usize,
    params: &FairnessParams,
) -> FairnessResult {
    run_fairness_with(topology, n_flows, params, FairnessTelemetry::default())
}

/// [`run_fairness`] with trace export and/or sim-time sampling attached.
///
/// # Panics
///
/// Panics if `n_flows` is zero or odd.
pub fn run_fairness_with(
    topology: FairnessTopology,
    n_flows: usize,
    params: &FairnessParams,
    telemetry: FairnessTelemetry<'_>,
) -> FairnessResult {
    assert!(n_flows >= 2 && n_flows.is_multiple_of(2), "need an even, positive number of flows");

    let (mut sim, src, dst, bottlenecks, cross): (
        Simulator,
        _,
        _,
        Vec<LinkId>,
        Vec<(netsim::ids::NodeId, netsim::ids::NodeId)>,
    ) = match topology {
        FairnessTopology::Dumbbell(cfg) => {
            let d = dumbbell(params.seed, cfg);
            (d.sim, d.src, d.dst, vec![d.bottleneck], Vec::new())
        }
        FairnessTopology::ParkingLot(cfg) => {
            let p = parking_lot(params.seed, cfg);
            (p.sim, p.src, p.dst, p.chain.to_vec(), p.cross_pairs)
        }
    };

    // Test flows: even index → TCP-PR, odd index → TCP-SACK.
    let ids = flow_ids(0, n_flows);
    if let Some(sink) = telemetry.trace_sink {
        // Trace the first TCP-PR flow: stream everything to the sink,
        // buffer only a small recent window in memory.
        sim.enable_trace_with(TraceConfig::new(&ids[..1], 4096).keep_latest());
        sim.set_trace_sink(sink);
    }
    let mut pr_handles: Vec<FlowHandle> = Vec::new();
    let mut sack_handles: Vec<FlowHandle> = Vec::new();
    for (i, &flow) in ids.iter().enumerate() {
        let opts =
            FlowOptions { start_at: staggered_start(i, params.seed), ..FlowOptions::default() };
        if i % 2 == 0 {
            let algo = TcpPrSender::new(params.pr_config);
            pr_handles.push(attach_flow(&mut sim, flow, src, dst, algo, opts));
        } else {
            let algo = SackSender::new(SackConfig::default());
            sack_handles.push(attach_flow(&mut sim, flow, src, dst, algo, opts));
        }
    }

    // Cross traffic: long-lived TCP-SACK flows (Section 4).
    for (i, &(cs, cd)) in cross.iter().enumerate() {
        let flow = netsim::ids::FlowId::from_raw((n_flows + i) as u32);
        let opts = FlowOptions {
            start_at: staggered_start(n_flows + i, params.seed),
            ..FlowOptions::default()
        };
        attach_flow(&mut sim, flow, cs, cd, SackSender::new(SackConfig::default()), opts);
    }

    // Measure all test flows in one pass (order: PR flows, then SACK flows).
    let all: Vec<FlowHandle> = pr_handles.iter().chain(sack_handles.iter()).copied().collect();
    let bytes = measure_window_with(&mut sim, &all, params.plan, telemetry.sampler);
    let xs: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
    let normalized = normalized_throughput(&xs);
    let (pr_normalized, sack_normalized) =
        (normalized[..pr_handles.len()].to_vec(), normalized[pr_handles.len()..].to_vec());

    let mut drops = 0u64;
    let mut offered = 0u64;
    for &l in &bottlenecks {
        let link = sim.link(l);
        drops += link.queue.drops();
        offered += link.queue.drops() + link.queue.enqueues();
    }
    let loss_rate_pct = if offered > 0 { 100.0 * drops as f64 / offered as f64 } else { 0.0 };

    FairnessResult {
        topology: topology.label().to_owned(),
        n_flows,
        mean_pr: mean(&pr_normalized),
        mean_sack: mean(&sack_normalized),
        cov_pr: cov(&pr_normalized),
        cov_sack: cov(&sack_normalized),
        pr_normalized,
        sack_normalized,
        loss_rate_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(seed: u64) -> FairnessParams {
        FairnessParams { plan: MeasurePlan::quick(), seed, ..FairnessParams::default() }
    }

    #[test]
    fn dumbbell_fairness_means_near_one() {
        let r = run_fairness(
            FairnessTopology::Dumbbell(DumbbellConfig::default()),
            8,
            &quick_params(11),
        );
        assert_eq!(r.pr_normalized.len(), 4);
        assert_eq!(r.sack_normalized.len(), 4);
        // Normalized means must bracket 1 and be within a loose band even
        // for the shortened plan.
        assert!(r.mean_pr > 0.5 && r.mean_pr < 1.5, "mean_pr = {}", r.mean_pr);
        assert!(r.mean_sack > 0.5 && r.mean_sack < 1.5, "mean_sack = {}", r.mean_sack);
        let combined = (r.mean_pr + r.mean_sack) / 2.0;
        assert!((combined - 1.0).abs() < 1e-9, "normalization identity");
    }

    #[test]
    fn parking_lot_fairness_runs() {
        let r = run_fairness(
            FairnessTopology::ParkingLot(ParkingLotConfig::default()),
            4,
            &quick_params(13),
        );
        assert_eq!(r.topology, "parking-lot");
        assert!(r.mean_pr > 0.0 && r.mean_sack > 0.0);
    }

    #[test]
    fn shrinking_bottleneck_raises_loss() {
        let wide = run_fairness(
            FairnessTopology::Dumbbell(DumbbellConfig::default()),
            8,
            &quick_params(17),
        );
        let narrow = run_fairness(
            FairnessTopology::Dumbbell(DumbbellConfig {
                bottleneck_mbps: 1.0,
                ..DumbbellConfig::default()
            }),
            8,
            &quick_params(17),
        );
        assert!(
            narrow.loss_rate_pct > wide.loss_rate_pct,
            "narrow {} vs wide {}",
            narrow.loss_rate_pct,
            wide.loss_rate_pct
        );
    }

    #[test]
    fn telemetry_hooks_observe_the_run() {
        use netsim::time::{SimDuration, SimTime};
        use netsim::trace::{TraceRecord, TraceSink};
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountingSink(Rc<Cell<u64>>);
        impl TraceSink for CountingSink {
            fn write_record(&mut self, _: &TraceRecord) {
                self.0.set(self.0.get() + 1);
            }
        }

        let seen = Rc::new(Cell::new(0u64));
        let mut sampler = Sampler::new(SimDuration::from_secs(5));
        sampler.add_probe("events", Box::new(|sim| sim.stats().events as f64));
        let r = run_fairness_with(
            FairnessTopology::Dumbbell(DumbbellConfig::default()),
            2,
            &quick_params(19),
            FairnessTelemetry {
                trace_sink: Some(Box::new(CountingSink(Rc::clone(&seen)))),
                sampler: Some(&mut sampler),
            },
        );
        assert!(r.mean_pr > 0.0);
        assert!(seen.get() > 1000, "flow 0's packet lifecycle streams to the sink");
        let events = &sampler.series()[0];
        // Quick plan = 25 s total at a 5 s period, from t = 0: 6 samples.
        assert_eq!(events.points.len(), 6);
        assert_eq!(events.points.last().unwrap().0, SimTime::from_secs_f64(25.0));
        assert!(events.values().windows(2).all(|w| w[0] <= w[1]), "event count is monotone");
    }

    #[test]
    #[should_panic(expected = "even, positive")]
    fn odd_flow_count_rejected() {
        run_fairness(FairnessTopology::Dumbbell(DumbbellConfig::default()), 3, &quick_params(1));
    }
}
