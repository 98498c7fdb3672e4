//! Self-tests of the benchmark's measuring machinery, on smoke-sized
//! scenarios: the driver reproduces `execute(spec)`, traced counts repeat
//! exactly, and the stale-timer derivation matches a sim whose timer
//! re-arms are known.

use experiments::ablations::Ablation;
use experiments::sweep::{
    execute, ExecCtx, ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec, TopologySpec,
};
use experiments::Variant;
use netsim::ids::FlowId;
use netsim::link::LinkConfig;
use netsim::sim::SimBuilder;
use netsim::telemetry::session;
use netsim::time::{SimDuration, SimTime};
use transport::fixed_window::FixedWindowSender;
use transport::host::{sender_host, FlowOptions, ReceiverHost, SenderHost};
use workload::TopologyModel;

use crate::driver::{self, Mode, Plain, Traced};
use crate::trace::{self, Acc, N_LAYERS};

fn smoke_specs() -> Vec<ScenarioSpec> {
    let smoke = PlanSpec::Smoke;
    let burst =
        ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 };
    let reorder = vec![
        ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
        ImpairmentSpec::Displace { every: 20, depth: 4 },
        ImpairmentSpec::Duplicate { p: 0.02 },
    ];
    let flap = ImpairmentSpec::Flap { period_ms: 3000, down_ms: 300 };
    let stress = |variant| ScenarioSpec::new(ScenarioKind::Stress { variant }, smoke);
    vec![
        ScenarioSpec::new(ScenarioKind::Ablation { ablation: Ablation::NoMemorize }, smoke),
        ScenarioSpec::new(
            ScenarioKind::Multipath { variant: Variant::Ewma, epsilon: 4.0, link_delay_ms: 10 },
            smoke,
        ),
        stress(Variant::Bbr).with_impairments(vec![burst]),
        stress(Variant::Cubic).with_impairments(reorder),
        stress(Variant::Door).with_impairments(vec![flap]),
        ScenarioSpec::new(
            ScenarioKind::Scale {
                variant: Variant::Sack,
                topology: TopologySpec::Generated { model: TopologyModel::FatTree { k: 4 } },
                target_flows: 120,
                replicate: 0,
            },
            smoke,
        ),
    ]
}

#[test]
fn driver_reproduces_execute_in_both_modes() {
    for spec in smoke_specs() {
        session::take();
        let expected = serde_json::to_string(&execute(&spec, &ExecCtx::default())).unwrap();
        let events = session::take().events_processed;
        let plain = driver::run::<Plain>(&spec);
        let traced = driver::run::<Traced>(&spec);
        trace::take_scenario();
        for run in [&plain, &traced] {
            assert_eq!(run.outcome, expected, "{}", spec.label());
            assert_eq!(run.events, events, "{}", spec.label());
            assert!(run.violations.is_empty(), "{}: {:?}", spec.label(), run.violations);
        }
    }
}

/// The deterministic part of a traced pass: every layer's counts, no times.
fn traced_counts(specs: &[ScenarioSpec]) -> Vec<[(u64, u64, u64, u64); N_LAYERS]> {
    specs
        .iter()
        .map(|spec| {
            trace::take_scenario();
            driver::run::<Traced>(spec);
            trace::take_scenario().map(|a: Acc| (a.calls, a.allocs, a.timer_calls, a.packets))
        })
        .collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    let specs = smoke_specs();
    traced_counts(&specs);
    let a = traced_counts(&specs);
    let b = traced_counts(&specs);
    assert_eq!(a, b, "calls, allocations and timer callbacks must repeat exactly");
    let algo_calls: u64 = a.iter().flat_map(|s| s[trace::ALGO..].iter().map(|c| c.0)).sum();
    assert!(algo_calls > 1000, "the algorithms must have been called: {algo_calls}");
}

#[test]
fn stale_timer_derivation_matches_a_hand_built_sim() {
    // A fixed-window sender re-arms its timer on every advancing ACK, so on
    // a clean path no timer ever fires: every popped timer event is stale.
    // Timers armed by T - timeout fire by T: the start-up arm plus one per
    // ACK received by then.
    let timeout = SimDuration::from_secs(1);
    let mut b = SimBuilder::new(3);
    let (src, dst) = (b.add_node(), b.add_node());
    b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 500));
    let mut sim = b.build();
    let opts = FlowOptions::default();
    let flow = FlowId::from_raw(0);
    let host = SenderHost::new(FixedWindowSender::new(8, timeout), dst, &opts);
    let sender = sim.add_agent(src, flow, Traced::agent(Box::new(host), trace::SENDER));
    let rx = ReceiverHost::new(opts.receiver, opts.mss);
    sim.add_agent(dst, flow, Traced::agent(Box::new(rx), trace::RECEIVER));

    trace::take_scenario();
    obs::take();
    obs::enable();
    let end = SimTime::from_secs_f64(3.0);
    sim.run_until(end - timeout);
    let host = sender_host::<FixedWindowSender>(&sim, sender);
    let acks = host.stats().acks_received;
    assert_eq!(host.stats().retransmits, 0, "the path must be clean");
    sim.run_until(end);
    obs::disable();
    let report = obs::take();
    let callbacks: u64 = trace::take_scenario().iter().map(|a| a.timer_calls).sum();

    assert!(acks > 100, "the flow must be running: {acks} ACKs");
    assert_eq!(callbacks, 0, "no timer of this sim is ever current when it fires");
    assert_eq!(crate::stale_timer_pops(&report, callbacks), 1 + acks);
}
