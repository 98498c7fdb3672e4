//! The benchmark's own scenario driver.
//!
//! It assembles each scenario from the same public functions the
//! `experiments` runners call, so its outcomes serialise byte-identically
//! to `experiments::sweep::exec::execute(spec)`, but it owns every object
//! it hands to the simulator. A [`Mode`] decides whether those objects are
//! handed over bare ([`Plain`]) or inside the timing wrappers of
//! [`crate::trace`] ([`Traced`]).

use std::time::Instant;

use experiments::ablations::{Ablation, AblationResult};
use experiments::figures::fig6::{Fig6Point, WINDOW_CAP};
use experiments::metrics::mbps;
use experiments::runner::MeasurePlan;
use experiments::scale::{ScaleConfig, ScaleResult};
use experiments::stress::{profile_name, StressConfig, StressResult};
use experiments::sweep::{ImpairmentSpec, ScenarioKind, ScenarioSpec, TopologySpec};
use experiments::topologies::{dumbbell, multipath_mesh, DumbbellConfig, MeshConfig};
use experiments::Variant;
use netsim::agent::Agent;
use netsim::event::EventQueue;
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::impair::{bandwidth_oscillation, delay_oscillation, flap_schedule};
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::traffic::{CbrSink, OnOffSource};
use netsim::{derive_seed, AdminEntry, StageConfig};
use serde::{Serialize, Value};
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::host::{receiver_host, sender_host, FlowHandle, FlowOptions};
use transport::host::{ReceiverHost, SenderHost};
use transport::sender::TcpSenderAlgo;
use workload::{ChurnConfig, ChurnSink, ChurnSource, ChurnStats, TopologyModel};

use crate::trace::{self, Call, TimedAgent, TimedAlgo};

/// How the driver hands objects to the simulator.
pub trait Mode {
    /// The sender state machine as installed in its `SenderHost`.
    type Algo<S: TcpSenderAlgo + 'static>: TcpSenderAlgo + 'static;
    /// Installs `algo`, the state machine of `variant`.
    fn algo<S: TcpSenderAlgo + 'static>(algo: S, variant: Variant) -> Self::Algo<S>;
    /// The state machine back out of its installed form.
    fn inner<S: TcpSenderAlgo + 'static>(algo: &Self::Algo<S>) -> &S;
    /// Installs an agent of layer `slot`.
    fn agent(agent: Box<dyn Agent>, slot: usize) -> Box<dyn Agent>;
    /// Runs a driver step of layer `slot`.
    fn step<R>(slot: usize, f: impl FnOnce() -> R) -> R;
}

/// Objects go to the simulator unwrapped: what the repository runs.
pub struct Plain;

impl Mode for Plain {
    type Algo<S: TcpSenderAlgo + 'static> = S;
    fn algo<S: TcpSenderAlgo + 'static>(algo: S, _: Variant) -> S {
        algo
    }
    fn inner<S: TcpSenderAlgo + 'static>(algo: &S) -> &S {
        algo
    }
    fn agent(agent: Box<dyn Agent>, _: usize) -> Box<dyn Agent> {
        agent
    }
    fn step<R>(_: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Every object and driver step is timed as its layer.
pub struct Traced;

impl Mode for Traced {
    type Algo<S: TcpSenderAlgo + 'static> = TimedAlgo<S>;
    fn algo<S: TcpSenderAlgo + 'static>(algo: S, variant: Variant) -> TimedAlgo<S> {
        TimedAlgo::new(algo, variant)
    }
    fn inner<S: TcpSenderAlgo + 'static>(algo: &TimedAlgo<S>) -> &S {
        algo.inner()
    }
    fn agent(agent: Box<dyn Agent>, slot: usize) -> Box<dyn Agent> {
        Box::new(TimedAgent::new(agent, slot))
    }
    fn step<R>(slot: usize, f: impl FnOnce() -> R) -> R {
        trace::span(slot, Call::Other, f)
    }
}

/// One executed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The outcome, serialised as `execute(spec)` serialises it.
    pub outcome: String,
    /// Events the simulator dispatched.
    pub events: u64,
    /// Packets delivered to agents (`SimStats::delivered`).
    pub delivered: u64,
    /// Host nanoseconds for the whole scenario: set-up, runs and read-back.
    pub host_ns: u64,
    /// Invariant-oracle violations at the end of the run.
    pub violations: Vec<String>,
}

/// A scenario set up and ready to run.
struct Prepared {
    sim: Simulator,
    flow: FlowHandle,
    shape: Shape,
}

/// What a scenario reads back, beyond its foreground flow.
enum Shape {
    Ablation(Ablation),
    Multipath {
        variant: Variant,
        epsilon: f64,
        link_delay_ms: u64,
    },
    Stress {
        variant: Variant,
        profile: String,
    },
    Scale {
        variant: Variant,
        model: TopologyModel,
        target_flows: u32,
        pairs: Vec<(AgentId, AgentId)>,
    },
}

/// Attaches a sender running `algo` and its receiver, as
/// `transport::host::attach_flow` does, through the mode's wrappers.
fn attach<M: Mode, S: TcpSenderAlgo + 'static>(
    sim: &mut Simulator,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    algo: S,
) -> FlowHandle {
    let opts = FlowOptions::default();
    let host = SenderHost::new(algo, dst, &opts);
    let sender = sim.add_agent(src, flow, M::agent(Box::new(host), trace::SENDER));
    let rx = ReceiverHost::new(opts.receiver, opts.mss);
    let receiver = sim.add_agent(dst, flow, M::agent(Box::new(rx), trace::RECEIVER));
    FlowHandle { flow, sender, receiver }
}

/// The per-packet stages of an impairment list, in list order: the
/// conversion `experiments::stress` makes with its crate-private helpers.
fn stages(impairments: &[ImpairmentSpec]) -> Vec<StageConfig> {
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
            _ => None,
        })
        .collect()
}

/// The admin schedule of one schedule-typed impairment entry.
fn schedule(imp: &ImpairmentSpec, cfg: &StressConfig, until: SimTime) -> Option<Vec<AdminEntry>> {
    let ms = SimDuration::from_millis;
    match *imp {
        ImpairmentSpec::Flap { period_ms, down_ms } => {
            Some(flap_schedule(ms(period_ms), ms(down_ms), until))
        }
        ImpairmentSpec::BandwidthOscillation { low_mbps, period_ms } => {
            Some(bandwidth_oscillation(
                cfg.dumbbell.bottleneck_mbps * 1e6,
                low_mbps * 1e6,
                ms(period_ms),
                until,
            ))
        }
        ImpairmentSpec::DelayOscillation { high_delay_ms, period_ms } => Some(delay_oscillation(
            ms(cfg.dumbbell.bottleneck_delay_ms),
            ms(high_delay_ms),
            ms(period_ms),
            until,
        )),
        _ => None,
    }
}

/// Builds the topology, simulator and agents of `spec`.
fn prepare<M: Mode>(spec: &ScenarioSpec) -> Prepared {
    let seed = spec.sim_seed();
    let plan = spec.plan.plan();
    let flow0 = FlowId::from_raw(0);
    match &spec.kind {
        ScenarioKind::Ablation { ablation } => {
            let d = M::step(trace::TOPOLOGY, || dumbbell(seed, DumbbellConfig::default()));
            let mut sim = d.sim;
            let flow = M::step(trace::ATTACH, || {
                let algo = M::algo(TcpPrSender::new(ablation.config()), Variant::TcpPr);
                attach::<M, _>(&mut sim, flow0, d.src, d.dst, algo)
            });
            Prepared { sim, flow, shape: Shape::Ablation(*ablation) }
        }
        ScenarioKind::Multipath { variant, epsilon, link_delay_ms } => {
            let cfg = MeshConfig { link_delay_ms: *link_delay_ms, ..MeshConfig::default() };
            let mesh = M::step(trace::TOPOLOGY, || multipath_mesh(seed, cfg));
            let mut sim = mesh.sim;
            M::step(trace::SIM_BUILD, || {
                sim.install_multipath(mesh.src, mesh.dst, *epsilon, mesh.max_path_hops);
                sim.install_multipath(mesh.dst, mesh.src, *epsilon, mesh.max_path_hops);
            });
            let flow = M::step(trace::ATTACH, || {
                let algo = variant.build_with(TcpPrConfig::default(), WINDOW_CAP);
                attach::<M, _>(&mut sim, flow0, mesh.src, mesh.dst, M::algo(algo, *variant))
            });
            let shape = Shape::Multipath {
                variant: *variant,
                epsilon: *epsilon,
                link_delay_ms: *link_delay_ms,
            };
            Prepared { sim, flow, shape }
        }
        ScenarioKind::Stress { variant } => {
            let cfg = StressConfig::default();
            let until = SimTime::ZERO + plan.total();
            let d = M::step(trace::TOPOLOGY, || dumbbell(seed, cfg.dumbbell));
            let mut sim = d.sim;
            M::step(trace::SIM_BUILD, || {
                let stages = stages(&spec.impairments);
                if !stages.is_empty() {
                    sim.set_link_impairments(d.bottleneck, &stages);
                }
                for imp in &spec.impairments {
                    if let Some(entries) = schedule(imp, &cfg, until) {
                        sim.apply_admin_schedule(d.bottleneck, &entries);
                    }
                }
            });
            let flow = M::step(trace::ATTACH, || {
                let cross = FlowId::from_raw(1);
                let source = OnOffSource::new(
                    d.dst,
                    cfg.cross_rate_bps,
                    cfg.cross_packet_bytes,
                    cfg.cross_on,
                    cfg.cross_off,
                    SimTime::ZERO,
                );
                sim.add_agent(d.src, cross, M::agent(Box::new(source), trace::TRAFFIC));
                sim.add_agent(d.dst, cross, M::agent(Box::new(CbrSink::new()), trace::TRAFFIC));
                attach::<M, _>(&mut sim, flow0, d.src, d.dst, M::algo(variant.build(), *variant))
            });
            let shape =
                Shape::Stress { variant: *variant, profile: profile_name(&spec.impairments) };
            Prepared { sim, flow, shape }
        }
        ScenarioKind::Scale { variant, topology, target_flows, .. } => {
            let TopologySpec::Generated { model } = topology else {
                panic!("scale scenarios require a generated topology, got {}", topology.label())
            };
            let cfg = ScaleConfig::default();
            let (topo, b, m) = M::step(trace::TOPOLOGY, || {
                let topo = model.generate(seed);
                let mut b = SimBuilder::new(seed);
                let m = topo.materialize(&mut b);
                (topo, b, m)
            });
            let mut sim = M::step(trace::SIM_BUILD, || b.build());
            let hosts = &topo.hosts;
            assert!(hosts.len() >= 2, "generated topology must expose at least two hosts");
            let n = hosts.len() / 2;
            let node = |i: usize| -> NodeId { m.nodes[hosts[i]] };
            let (pairs, flow) = M::step(trace::ATTACH, || {
                let base = target_flows / n as u32;
                let extra = (target_flows % n as u32) as usize;
                let mut pairs = Vec::with_capacity(n);
                for i in 0..n {
                    let (src, dst) = (node(i), node(i + n));
                    let flow = FlowId::from_raw(1000 + i as u32);
                    let churn = ChurnConfig {
                        dst,
                        rate_bps: cfg.pair_rate_bps,
                        packet_bytes: cfg.packet_bytes,
                        initial_flows: base + u32::from(i < extra),
                        arrival_rate_hz: cfg.arrival_rate_hz,
                        sizes: cfg.sizes,
                        seed: derive_seed(seed, 0x8000_0000 | i as u32),
                    };
                    let source = M::agent(Box::new(ChurnSource::new(churn)), trace::CHURN);
                    let sink = M::agent(Box::new(ChurnSink::new()), trace::CHURN);
                    pairs.push((sim.add_agent(src, flow, source), sim.add_agent(dst, flow, sink)));
                }
                let algo = M::algo(variant.build(), *variant);
                (pairs, attach::<M, _>(&mut sim, flow0, node(0), node(n), algo))
            });
            let shape = Shape::Scale {
                variant: *variant,
                model: *model,
                target_flows: *target_flows,
                pairs,
            };
            Prepared { sim, flow, shape }
        }
        other => panic!("the benchmark driver does not run {other:?} scenarios"),
    }
}

fn churn_sink_bytes(sim: &Simulator, pairs: &[(AgentId, AgentId)]) -> u64 {
    pairs
        .iter()
        .map(|&(_, sink)| sim.agent(sink).as_any().downcast_ref::<ChurnSink>().expect("sink").bytes)
        .sum()
}

/// Runs a prepared scenario through its plan and reads its outcome back.
fn finish<M: Mode>(p: Prepared, plan: MeasurePlan) -> (Value, Simulator) {
    let Prepared { mut sim, flow, shape } = p;
    let received = |sim: &Simulator| receiver_host(sim, flow.receiver).received_unique_bytes();
    M::step(trace::RUN, || sim.run_until(SimTime::ZERO + plan.warmup));
    let before = received(&sim);
    let churn_before = match &shape {
        Shape::Scale { pairs, .. } => churn_sink_bytes(&sim, pairs),
        _ => 0,
    };
    M::step(trace::RUN, || sim.run_until(SimTime::ZERO + plan.total()));
    let window_s = plan.window.as_secs_f64();
    let value = M::step(trace::READBACK, || {
        let goodput = mbps(received(&sim) - before, window_s);
        match shape {
            Shape::Ablation(ablation) => {
                let host = sender_host::<M::Algo<TcpPrSender>>(&sim, flow.sender);
                let algo = M::inner(host.algo());
                AblationResult {
                    ablation,
                    mbps: goodput,
                    window_halvings: algo.stats().window_halvings,
                    extreme_loss_events: algo.stats().extreme_loss_events,
                    retransmits: host.stats().retransmits,
                }
                .to_value()
            }
            Shape::Multipath { variant, epsilon, link_delay_ms } => {
                let tx = sender_host::<M::Algo<Box<dyn TcpSenderAlgo>>>(&sim, flow.sender).stats();
                let rx = receiver_host(&sim, flow.receiver).receiver_stats();
                Fig6Point {
                    variant,
                    epsilon,
                    link_delay_ms,
                    mbps: goodput,
                    retransmits: tx.retransmits,
                    segments_sent: tx.segments_sent,
                    late_arrivals: rx.late_arrivals,
                    queue_drops: sim.stats().queue_drops,
                }
                .to_value()
            }
            Shape::Stress { variant, profile } => {
                let tx = sender_host::<M::Algo<Box<dyn TcpSenderAlgo>>>(&sim, flow.sender).stats();
                let rx = receiver_host(&sim, flow.receiver).receiver_stats();
                let totals = sim.impair_totals();
                StressResult {
                    variant,
                    profile,
                    mbps: goodput,
                    retransmits: tx.retransmits,
                    segments_sent: tx.segments_sent,
                    late_arrivals: rx.late_arrivals,
                    receiver_duplicates: rx.duplicates,
                    impair_drops: totals.drops(),
                    impair_dups: totals.duplicates,
                    reorder_displacements: totals.reorder_displacements(),
                    link_flaps: totals.flaps,
                }
                .to_value()
            }
            Shape::Scale { variant, model, target_flows, pairs } => {
                let churn = churn_sink_bytes(&sim, &pairs) - churn_before;
                let mut merged = ChurnStats::default();
                let mut state_bytes = 0u64;
                for &(source, _) in &pairs {
                    let src = sim.agent(source).as_any().downcast_ref::<ChurnSource>();
                    let src = src.expect("source");
                    merged.merge(src.stats());
                    state_bytes += src.state_bytes();
                }
                let peak_flows = merged.peak_active.max(1);
                let heap_bytes = (sim.event_heap_peak() * EventQueue::record_bytes()) as u64;
                ScaleResult {
                    variant,
                    topology: model.label(),
                    target_flows: u64::from(target_flows),
                    peak_flows: merged.peak_active,
                    arrivals: merged.arrivals,
                    completions: merged.completions,
                    jain: merged.goodput_bps.jain().unwrap_or(0.0),
                    goodput_cov: merged.goodput_bps.cov().unwrap_or(0.0),
                    p99_fct_ms: merged.fct_us.quantile_upper_bound(0.99).unwrap_or(0) as f64
                        / 1000.0,
                    mean_fct_ms: merged.fct_us.mean() / 1000.0,
                    foreground_mbps: goodput,
                    delivered_mbps: mbps(churn, window_s),
                    bytes_per_flow: (state_bytes + heap_bytes) / peak_flows,
                }
                .to_value()
            }
        }
    });
    (value, sim)
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Executes `spec` in mode `M`, timing it and checking the invariant
/// oracle at the end. Checking, serialising the outcome and dropping the
/// simulator are not timed.
pub fn run<M: Mode>(spec: &ScenarioSpec) -> ScenarioRun {
    let t0 = Instant::now();
    let (value, sim) = M::step(trace::SCENARIO, || {
        let prepared = M::step(trace::SETUP, || prepare::<M>(spec));
        finish::<M>(prepared, spec.plan.plan())
    });
    let host_ns = nanos_since(t0);
    let violations =
        netsim::oracle::check(&sim.invariant_snapshot()).iter().map(|v| format!("{v:?}")).collect();
    let (events, delivered) = (sim.stats().events, sim.stats().delivered);
    let outcome = serde_json::to_string(&value).expect("outcome serialises");
    ScenarioRun { outcome, events, delivered, host_ns, violations }
}

/// Sets `spec` up exactly as [`run`] does, then drops it unrun; returns the
/// set-up host nanoseconds.
pub fn setup_only(spec: &ScenarioSpec) -> u64 {
    let t0 = Instant::now();
    let prepared = prepare::<Plain>(spec);
    let ns = nanos_since(t0);
    drop(prepared);
    ns
}
