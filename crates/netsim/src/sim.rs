//! The simulator: topology construction, event dispatch, agent hosting.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Agent, AgentAction, AgentCtx};
use crate::event::{EventKind, EventQueue};
use crate::ids::{AgentId, FlowId, LinkId, NodeId};
use crate::impair::{AdminEntry, Fate, ImpairPipeline, ImpairStats, LinkAdmin, StageConfig};
use crate::link::{Link, LinkConfig};
use crate::packet::{Packet, PacketKind};
use crate::queue::EnqueueOutcome;
use crate::routing::{Graph, MultipathRoute, Routing};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceConfig, TraceEventKind, TraceRecord, TraceSink, Tracer};

/// Global counters kept by the simulator.
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct SimStats {
    /// Packets dropped by full queues.
    pub queue_drops: u64,
    /// Packets dropped by the random-loss process on links.
    pub random_losses: u64,
    /// Packets discarded because no route existed.
    pub no_route_drops: u64,
    /// Packets delivered to an agent.
    pub delivered: u64,
    /// Packets injected by agents.
    pub injected: u64,
    /// Events dispatched.
    pub events: u64,
    /// Packets dropped by impairment stages or administratively-down links.
    pub impair_drops: u64,
    /// Extra packet copies created by duplication impairments.
    pub impair_dups: u64,
    /// Administrative link-down transitions executed.
    pub link_flaps: u64,
    /// Events popped with an instant earlier than the current clock. Always
    /// zero in a healthy run; a non-zero count is an event-core invariant
    /// violation surfaced by [`crate::oracle::check`].
    pub time_regressions: u64,
}

/// Builds the static topology for a [`Simulator`].
///
/// # Examples
///
/// ```
/// use netsim::sim::SimBuilder;
/// use netsim::link::LinkConfig;
///
/// let mut b = SimBuilder::new(42);
/// let a = b.add_node();
/// let c = b.add_node();
/// b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 5, 100));
/// let sim = b.build();
/// assert_eq!(sim.node_count(), 2);
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    seed: u64,
    node_count: usize,
    links: Vec<(NodeId, NodeId, LinkConfig)>,
}

impl SimBuilder {
    /// Creates a builder whose simulation draws all randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        SimBuilder { seed, node_count: 0, links: Vec::new() }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_raw(self.node_count as u32);
        self.node_count += 1;
        id
    }

    /// Adds `n` nodes and returns their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Adds a unidirectional link `from → to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        let id = LinkId::from_raw(self.links.len() as u32);
        self.links.push((from, to, config));
        id
    }

    /// Adds a pair of links `a → b` and `b → a` with identical configuration.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, config.clone());
        let rev = self.add_link(b, a, config);
        (fwd, rev)
    }

    /// Finalizes the topology, computing shortest-path routing.
    pub fn build(self) -> Simulator {
        let links: Vec<Link> =
            self.links.into_iter().map(|(from, to, cfg)| Link::new(from, to, cfg)).collect();
        let edges: Vec<(NodeId, NodeId, LinkId, SimDuration)> = links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.from, l.to, LinkId::from_raw(i as u32), l.config.delay))
            .collect();
        let graph = Graph::new(self.node_count, &edges);
        let routing = Routing::shortest_path(&graph);
        let mut sim = Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            node_agents: vec![Vec::new(); self.node_count],
            action_pool: Vec::new(),
            links,
            agents: Vec::new(),
            agent_meta: Vec::new(),
            graph,
            routing,
            rng: SmallRng::seed_from_u64(self.seed),
            seed: self.seed,
            next_uid: 0,
            stats: SimStats::default(),
            started: false,
            tracer: None,
        };
        // Instantiate impairment pipelines declared on link configs, each
        // with its own seed stream derived from the simulation seed.
        for i in 0..sim.links.len() {
            if !sim.links[i].config.impair.is_empty() {
                let stages = sim.links[i].config.impair.clone();
                sim.set_link_impairments(LinkId::from_raw(i as u32), &stages);
            }
        }
        sim
    }
}

#[derive(Debug)]
struct AgentMeta {
    node: NodeId,
    flow: FlowId,
    timer_generation: u64,
    aux_timer_generation: u64,
}

/// A deterministic packet-level discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    /// Per node: `(flow, agent serving it)`, sorted by flow.
    node_agents: Vec<Vec<(FlowId, AgentId)>>,
    /// Emptied action buffers, reused by [`Simulator::call_agent`]. A
    /// callback that delivers locally re-enters `call_agent` while the outer
    /// call still holds its buffer, so this is a stack, not one buffer.
    action_pool: Vec<Vec<AgentAction>>,
    links: Vec<Link>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_meta: Vec<AgentMeta>,
    graph: Graph,
    routing: Routing,
    rng: SmallRng,
    /// The builder seed; impairment pipelines derive their streams from it.
    seed: u64,
    next_uid: u64,
    stats: SimStats,
    started: bool,
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.node_agents.len())
            .field("links", &self.links.len())
            .field("agents", &self.agents.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.node_agents.len()
    }

    /// Global statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The routing graph (for path enumeration).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Installs a source-routed multipath mixture for `(src, dst)` data and
    /// returns the number of candidate paths.
    ///
    /// # Panics
    ///
    /// Panics if no path exists between the pair.
    pub fn install_multipath(
        &mut self,
        src: NodeId,
        dst: NodeId,
        epsilon: f64,
        max_hops: usize,
    ) -> usize {
        let paths = self.graph.simple_paths(src, dst, max_hops, 64);
        assert!(!paths.is_empty(), "no path from {src} to {dst}");
        let n = paths.len();
        self.routing.set_multipath(src, dst, MultipathRoute::with_epsilon(paths, epsilon));
        n
    }

    /// Installs an explicit multipath mixture for `(src, dst)`.
    pub fn install_multipath_route(&mut self, src: NodeId, dst: NodeId, route: MultipathRoute) {
        self.routing.set_multipath(src, dst, route);
    }

    /// Schedules a routing change: at instant `at`, the `(src, dst)` pair
    /// switches to `route`. Packets already in flight keep their pinned
    /// paths — exactly how a route flap reorders traffic.
    pub fn schedule_route_install(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        route: MultipathRoute,
    ) {
        self.events.schedule(at, EventKind::InstallRoute { src, dst, route: Box::new(route) });
    }

    /// Schedules pinning `(src, dst)` traffic to its `path_index`-th simple
    /// path (by ascending delay), e.g. to model a route flap between a
    /// short and a long path.
    ///
    /// # Panics
    ///
    /// Panics if the pair has fewer than `path_index + 1` simple paths
    /// within `max_hops`.
    pub fn schedule_path_pin(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        path_index: usize,
        max_hops: usize,
    ) {
        let paths = self.graph.simple_paths(src, dst, max_hops, 64);
        assert!(
            path_index < paths.len(),
            "pair has only {} paths, wanted index {path_index}",
            paths.len()
        );
        let path = paths[path_index].clone();
        let route = MultipathRoute::with_weights(vec![path], &[1.0]);
        self.schedule_route_install(at, src, dst, route);
    }

    /// Current queue depth, in packets, of every link, both classes
    /// (diagnostics).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.links.iter().map(Link::queued).collect()
    }

    /// Enables per-packet event tracing for `flows` (empty slice = every
    /// flow), keeping at most `capacity` records. See [`crate::trace`].
    pub fn enable_trace(&mut self, flows: &[FlowId], capacity: usize) {
        self.enable_trace_with(TraceConfig::new(flows, capacity));
    }

    /// Enables tracing with full control over flow filter, buffer capacity
    /// and retention mode. See [`crate::trace`].
    pub fn enable_trace_with(&mut self, config: TraceConfig) {
        self.tracer = Some(Tracer::with_config(config));
    }

    /// Attaches a streaming trace sink; every trace record is forwarded to
    /// it as it happens, independent of the in-memory buffer cap. Enables
    /// tracing of every flow (with the default config) if not already on.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        let tracer = self
            .tracer
            .get_or_insert_with(|| Tracer::with_config(TraceConfig::new(&[], 1_000_000)));
        tracer.set_sink(sink);
    }

    /// Flushes the attached trace sink, if any. Also happens automatically
    /// when the simulator is dropped.
    pub fn flush_trace(&mut self) {
        if let Some(tracer) = &mut self.tracer {
            tracer.flush_sink();
        }
    }

    /// The buffered trace records collected so far (empty if tracing is
    /// disabled or the buffer capacity is zero).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.tracer.as_ref().map(Tracer::records).unwrap_or_default()
    }

    /// Trace records lost to the in-memory buffer cap (see
    /// [`Tracer::dropped_records`]). Zero when tracing is off.
    pub fn dropped_trace_records(&self) -> u64 {
        self.tracer.as_ref().map(Tracer::dropped_records).unwrap_or(0)
    }

    /// High-water mark of the pending-event heap (run-health diagnostic).
    pub fn event_heap_peak(&self) -> usize {
        self.events.peak_len()
    }

    /// Captures the packet-accounting state the invariant oracle checks
    /// (see [`crate::oracle`]): every terminal counter plus the packets
    /// still parked in link queues or in flight on the wire. Valid at any
    /// point the simulator is not mid-dispatch — i.e. whenever the caller
    /// can invoke it.
    pub fn invariant_snapshot(&self) -> crate::oracle::Snapshot {
        crate::oracle::Snapshot {
            injected: self.stats.injected,
            duplicated: self.stats.impair_dups,
            delivered: self.stats.delivered,
            no_route_drops: self.stats.no_route_drops,
            queue_drops: self.stats.queue_drops,
            random_losses: self.stats.random_losses,
            impair_drops: self.stats.impair_drops,
            queued: self.links.iter().map(|l| l.queued() as u64).sum(),
            in_flight: self.events.pending_arrivals() as u64,
            time_regressions: self.stats.time_regressions,
        }
    }

    fn trace_packet(&mut self, packet: &Packet, kind: TraceEventKind) {
        let Some(tracer) = &mut self.tracer else { return };
        if !tracer.wants(packet.flow) {
            return;
        }
        let (seq, is_ack) = match &packet.kind {
            PacketKind::Data(h) => (Some(h.seq), false),
            PacketKind::Ack(_) => (None, true),
        };
        tracer.record(TraceRecord {
            at: self.now,
            uid: packet.uid,
            flow: packet.flow,
            seq,
            is_ack,
            kind,
        });
    }

    /// Installs (or replaces) the impairment pipeline on `id`. The
    /// pipeline's RNG stream is derived from the simulation seed and the
    /// link index (see [`crate::impair::derive_seed`]), so it is
    /// independent of every other random decision in the run. An empty
    /// `stages` slice removes the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or a stage config is invalid.
    pub fn set_link_impairments(&mut self, id: LinkId, stages: &[StageConfig]) {
        let seed = crate::impair::derive_seed(self.seed, id.index() as u32);
        let link = &mut self.links[id.index()];
        link.config.impair = stages.to_vec();
        link.impair =
            if stages.is_empty() { None } else { Some(ImpairPipeline::new(stages, seed)) };
    }

    /// Schedules one administrative link action (up/down, bandwidth or
    /// delay change) at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn schedule_link_admin(&mut self, at: SimTime, link: LinkId, action: LinkAdmin) {
        assert!(link.index() < self.links.len(), "unknown link {link}");
        self.events.schedule(at, EventKind::LinkAdmin { link, action });
    }

    /// Schedules a whole admin timeline on `link` — typically built with
    /// [`crate::impair::flap_schedule`] or the oscillation generators.
    pub fn apply_admin_schedule(&mut self, link: LinkId, entries: &[AdminEntry]) {
        for e in entries {
            self.schedule_link_admin(e.at, link, e.action);
        }
    }

    /// Impairment counters aggregated across every link.
    pub fn impair_totals(&self) -> ImpairStats {
        let mut total = ImpairStats::default();
        for l in &self.links {
            total.merge(&l.impair_stats);
        }
        total
    }

    /// Read access to a link (e.g. for per-link drop counts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Attaches `agent` to `node`, serving `flow`. Packets addressed to
    /// `(node, flow)` will be delivered to it.
    ///
    /// # Panics
    ///
    /// Panics if another agent already serves `flow` at `node`, or if the
    /// simulation has already started.
    pub fn add_agent(&mut self, node: NodeId, flow: FlowId, agent: Box<dyn Agent>) -> AgentId {
        assert!(!self.started, "agents must be added before the simulation starts");
        let id = AgentId::from_raw(self.agents.len() as u32);
        let served = &mut self.node_agents[node.index()];
        match served.binary_search_by_key(&flow, |&(f, _)| f) {
            Ok(_) => panic!("flow {flow} already has an agent at {node}"),
            Err(pos) => served.insert(pos, (flow, id)),
        }
        self.agents.push(Some(agent));
        self.agent_meta.push(AgentMeta {
            node,
            flow,
            timer_generation: 0,
            aux_timer_generation: 0,
        });
        id
    }

    /// Immutable access to an agent (for reading statistics via
    /// [`Agent::as_any`]).
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        self.agents[id.index()].as_deref().expect("agent is not re-entrantly borrowed")
    }

    /// Mutable access to an agent.
    pub fn agent_mut(&mut self, id: AgentId) -> &mut dyn Agent {
        self.agents[id.index()].as_deref_mut().expect("agent is not re-entrantly borrowed")
    }

    /// Starts the simulation: invokes every agent's `on_start` at time zero.
    /// Called automatically by the `run_*` methods if needed.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            self.call_agent(AgentId::from_raw(i as u32), AgentCall::Start);
        }
    }

    /// Runs until the event at or before `deadline` has been processed, then
    /// sets the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            let (at, kind) = self.events.pop().expect("peeked event exists");
            if at < self.now {
                // Time must not go backwards. Count instead of panicking so
                // the invariant oracle can report it (and the adversary can
                // hunt for it); the clock clamps at its current value.
                self.stats.time_regressions += 1;
            } else {
                self.now = at;
            }
            self.stats.events += 1;
            self.dispatch_profiled(kind);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Runs until no events remain (natural quiescence). Returns the final
    /// clock value.
    ///
    /// Use with care: long-lived senders reschedule timers forever; prefer
    /// [`Simulator::run_until`] for such workloads.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        self.start();
        while let Some((at, kind)) = self.events.pop() {
            if at < self.now {
                self.stats.time_regressions += 1;
            } else {
                self.now = at;
            }
            self.stats.events += 1;
            self.dispatch_profiled(kind);
        }
        self.now
    }

    /// Dispatches one event, reporting to the profiler when it is enabled:
    /// a per-kind counter, the pending-heap depth (sim-deterministic), and
    /// the wall-clock cost of the dispatch (non-deterministic section).
    /// Disabled, this is one relaxed atomic load on top of `dispatch`.
    fn dispatch_profiled(&mut self, kind: EventKind) {
        if obs::enabled() {
            obs::count(kind.profile_key(), 1);
            obs::observe("event.heap_depth", self.events.len() as u64);
            let t0 = std::time::Instant::now();
            self.dispatch(kind);
            obs::observe_wall("event.dispatch_ns", t0.elapsed().as_nanos() as u64);
        } else {
            self.dispatch(kind);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { node, mut packet } => {
                packet.hops += 1;
                if packet.dst == node {
                    self.deliver(node, packet);
                } else {
                    self.forward(node, packet);
                }
            }
            EventKind::LinkReady { link } => {
                self.links[link.index()].busy = false;
                self.link_try_transmit(link);
            }
            EventKind::Timer { agent, generation } => {
                if self.agent_meta[agent.index()].timer_generation == generation {
                    self.call_agent(agent, AgentCall::Timer);
                }
            }
            EventKind::AuxTimer { agent, generation } => {
                if self.agent_meta[agent.index()].aux_timer_generation == generation {
                    self.call_agent(agent, AgentCall::AuxTimer);
                }
            }
            EventKind::InstallRoute { src, dst, route } => {
                self.routing.set_multipath(src, dst, *route);
            }
            EventKind::LinkAdmin { link, action } => {
                self.link_admin(link, action);
            }
            EventKind::Breakpoint => {}
        }
    }

    fn deliver(&mut self, node: NodeId, packet: Packet) {
        let served = &self.node_agents[node.index()];
        match served.binary_search_by_key(&packet.flow, |&(f, _)| f) {
            Ok(pos) => {
                let agent = served[pos].1;
                self.stats.delivered += 1;
                self.trace_packet(&packet, TraceEventKind::Delivered(node));
                self.call_agent(agent, AgentCall::Packet(packet));
            }
            Err(_) => {
                self.stats.no_route_drops += 1;
                self.trace_packet(&packet, TraceEventKind::NoRoute);
            }
        }
    }

    fn forward(&mut self, node: NodeId, packet: Packet) {
        let link = match &packet.route {
            Some(route) => route.get(packet.hops as usize).copied(),
            None => self.routing.next_hop(node, packet.dst),
        };
        match link {
            Some(l) => {
                debug_assert_eq!(
                    self.links[l.index()].from,
                    node,
                    "route step must depart from the current node"
                );
                self.enqueue_on_link(l, packet);
            }
            None => {
                self.stats.no_route_drops += 1;
                self.trace_packet(&packet, TraceEventKind::NoRoute);
            }
        }
    }

    /// Applies one administrative action to a link. Down links drop
    /// arriving packets but keep their queue; the in-flight packet (if
    /// any) completes its serialization. `Up` restarts service.
    fn link_admin(&mut self, id: LinkId, action: LinkAdmin) {
        let now_ns = self.now.as_nanos();
        let link = &mut self.links[id.index()];
        match action {
            LinkAdmin::Down => {
                if link.up {
                    link.up = false;
                    link.impair_stats.flaps += 1;
                    self.stats.link_flaps += 1;
                    obs::count("link.flap", 1);
                    obs::span(now_ns, "admin.down", || format!("link={}", id.index()));
                }
            }
            LinkAdmin::Up => {
                if !link.up {
                    link.up = true;
                    obs::span(now_ns, "admin.up", || format!("link={}", id.index()));
                    if !link.busy && link.queued() > 0 {
                        self.link_try_transmit(id);
                    }
                }
            }
            LinkAdmin::SetBandwidth { bps } => {
                assert!(bps > 0.0, "bandwidth must be positive");
                link.config.bandwidth_bps = bps;
                obs::span(now_ns, "admin.set_bandwidth", || {
                    format!("link={} bps={bps}", id.index())
                });
            }
            LinkAdmin::SetDelay { delay } => {
                link.config.delay = delay;
                obs::span(now_ns, "admin.set_delay", || {
                    format!("link={} delay_ns={}", id.index(), delay.as_nanos())
                });
            }
        }
    }

    fn enqueue_on_link(&mut self, id: LinkId, packet: Packet) {
        if !self.links[id.index()].up {
            self.links[id.index()].impair_stats.down_drops += 1;
            self.stats.impair_drops += 1;
            obs::count("impair.down_drop", 1);
            self.trace_packet(&packet, TraceEventKind::ImpairDrop(id));
            return;
        }
        let loss = self.links[id.index()].config.random_loss;
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.links[id.index()].random_losses += 1;
            self.stats.random_losses += 1;
            obs::count("link.random_loss", 1);
            self.trace_packet(&packet, TraceEventKind::RandomLoss(id));
            return;
        }
        // DiffServ classification: per-packet random marking.
        let use_high = match self.links[id.index()].config.diffserv {
            Some(ds) => self.rng.gen::<f64>() < ds.high_prob,
            None => false,
        };
        let uniform = self.rng.gen::<f64>();
        if self.tracer.is_some() {
            // Pre-compute the outcome's trace before the packet moves.
            let link = &self.links[id.index()];
            let queue =
                if use_high { link.queue_high.as_ref().expect("high queue") } else { &link.queue };
            let will_fit = match &link.config.policy {
                crate::queue::QueuePolicy::DropTail => queue.len() < queue.capacity_packets(),
                // RED's decision is probabilistic; re-deriving it here would
                // double-consume randomness, so optimistically trace Enqueued.
                crate::queue::QueuePolicy::Red { .. } => true,
            };
            let kind =
                if will_fit { TraceEventKind::Enqueued(id) } else { TraceEventKind::QueueDrop(id) };
            self.trace_packet(&packet, kind);
        }
        let link = &mut self.links[id.index()];
        let queue =
            if use_high { link.queue_high.as_mut().expect("high queue") } else { &mut link.queue };
        match queue.enqueue(packet, uniform) {
            EnqueueOutcome::Enqueued => {
                if !link.busy {
                    self.link_try_transmit(id);
                }
            }
            EnqueueOutcome::Dropped => {
                self.stats.queue_drops += 1;
            }
        }
    }

    fn link_try_transmit(&mut self, id: LinkId) {
        let link = &mut self.links[id.index()];
        debug_assert!(!link.busy);
        if !link.up {
            return;
        }
        let Some(packet) = link.dequeue_next() else { return };
        if self.tracer.is_some() {
            let p = packet.clone();
            self.trace_packet(&p, TraceEventKind::LinkTx(id));
        }
        let link = &mut self.links[id.index()];
        let tx = link.config.transmission_time(packet.size_bytes);
        let delay = link.config.delay;
        let to = link.to;
        let jitter = link.config.jitter;
        link.busy = true;
        link.transmitted += 1;
        // The impairment pipeline sits between the queue and propagation:
        // the packet has paid its serialization time either way, so an
        // impairment drop is wire loss, not a shorter busy period.
        let Link { impair, impair_stats, .. } = link;
        let fate = match impair.as_mut() {
            Some(pipe) => pipe.process(tx, impair_stats),
            None => Fate::Deliver { extra_delay: SimDuration::ZERO, duplicate: false },
        };
        self.events.schedule(self.now + tx, EventKind::LinkReady { link: id });
        match fate {
            Fate::Dropped => {
                self.stats.impair_drops += 1;
                self.trace_packet(&packet, TraceEventKind::ImpairDrop(id));
            }
            Fate::Deliver { extra_delay, duplicate } => {
                let mut arrival = self.now + tx + delay + extra_delay;
                if let Some(j) = jitter {
                    if j.prob > 0.0 && self.rng.gen::<f64>() < j.prob {
                        let extra = j.max_extra * self.rng.gen::<f64>();
                        arrival += extra;
                    }
                }
                if duplicate {
                    self.stats.impair_dups += 1;
                    self.trace_packet(&packet, TraceEventKind::Duplicated(id));
                    let copy = packet.clone();
                    self.events.schedule(arrival, EventKind::Arrive { node: to, packet });
                    // The copy trails the original by one transmission time.
                    self.events
                        .schedule(arrival + tx, EventKind::Arrive { node: to, packet: copy });
                } else {
                    self.events.schedule(arrival, EventKind::Arrive { node: to, packet });
                }
            }
        }
    }

    fn call_agent(&mut self, id: AgentId, call: AgentCall) {
        let mut agent = self.agents[id.index()].take().expect("agent call must not re-enter");
        let meta = &self.agent_meta[id.index()];
        let (node, flow) = (meta.node, meta.flow);
        // Flow-scope the obs span stream for the duration of the callback:
        // any span emitted inside the agent (CC state machines, pacer) is
        // attributed to this flow without plumbing identity through the
        // sender traits. Callbacks are synchronous, so set/clear brackets
        // the emission window exactly.
        if obs::enabled() {
            obs::set_current_flow(Some(flow.index() as u64));
        }
        let mut actions = self.action_pool.pop().unwrap_or_default();
        {
            let rng = &mut self.rng;
            let mut draw = move || rng.gen::<f64>();
            let mut ctx = AgentCtx {
                now: self.now,
                agent_id: id,
                node,
                flow,
                actions: &mut actions,
                rng_draw: &mut draw,
            };
            match call {
                AgentCall::Start => agent.on_start(&mut ctx),
                AgentCall::Packet(p) => agent.on_packet(p, &mut ctx),
                AgentCall::Timer => agent.on_timer(&mut ctx),
                AgentCall::AuxTimer => agent.on_aux_timer(&mut ctx),
            }
        }
        self.agents[id.index()] = Some(agent);
        for action in actions.drain(..) {
            self.apply_action(id, node, flow, action);
        }
        self.action_pool.push(actions);
        if obs::enabled() {
            obs::set_current_flow(None);
        }
    }

    fn apply_action(&mut self, id: AgentId, node: NodeId, flow: FlowId, action: AgentAction) {
        match action {
            AgentAction::Send { dst, size_bytes, kind } => {
                self.inject(node, flow, dst, size_bytes, kind);
            }
            AgentAction::SetTimer(at) => {
                let meta = &mut self.agent_meta[id.index()];
                meta.timer_generation += 1;
                let fire_at = at.max(self.now);
                obs::observe("timer.lead_ns", fire_at.saturating_since(self.now).as_nanos());
                self.events.schedule(
                    fire_at,
                    EventKind::Timer { agent: id, generation: meta.timer_generation },
                );
            }
            AgentAction::CancelTimer => {
                self.agent_meta[id.index()].timer_generation += 1;
            }
            AgentAction::SetAuxTimer(at) => {
                let meta = &mut self.agent_meta[id.index()];
                meta.aux_timer_generation += 1;
                let fire_at = at.max(self.now);
                obs::observe("aux_timer.lead_ns", fire_at.saturating_since(self.now).as_nanos());
                self.events.schedule(
                    fire_at,
                    EventKind::AuxTimer { agent: id, generation: meta.aux_timer_generation },
                );
            }
            AgentAction::CancelAuxTimer => {
                self.agent_meta[id.index()].aux_timer_generation += 1;
            }
        }
    }

    /// Injects a packet at `src` addressed to `(dst, flow)`.
    fn inject(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        size_bytes: u32,
        kind: PacketKind,
    ) {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.stats.injected += 1;
        let route = self.routing.multipath(src, dst).map(|mp| {
            let u = self.rng.gen::<f64>();
            mp.pick(u).links.clone()
        });
        let packet =
            Packet { uid, flow, src, dst, size_bytes, kind, injected_at: self.now, hops: 0, route };
        self.trace_packet(&packet, TraceEventKind::Injected);
        if dst == src {
            self.deliver(src, packet);
        } else {
            self.forward(src, packet);
        }
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        self.flush_trace();
        if obs::enabled() {
            obs::count("sim.completed", 1);
            obs::gauge_max("event.heap_peak", self.events.peak_len() as u64);
        }
        crate::telemetry::session::absorb(
            self.stats.events,
            self.events.peak_len(),
            self.dropped_trace_records(),
            self.tracer.as_ref().map(Tracer::mode),
            &self.impair_totals(),
        );
    }
}

enum AgentCall {
    Start,
    Packet(Packet),
    Timer,
    AuxTimer,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckHeader, DataHeader, DATA_PACKET_BYTES};
    use std::any::Any;

    /// Sends `count` data packets at start, records ACK arrivals.
    struct Blaster {
        dst: NodeId,
        count: u64,
        acked: Vec<(u64, SimTime)>,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
            for seq in 0..self.count {
                ctx.send(
                    self.dst,
                    DATA_PACKET_BYTES,
                    PacketKind::Data(DataHeader {
                        seq,
                        is_retransmit: false,
                        tx_count: 1,
                        timestamp: ctx.now,
                    }),
                );
            }
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
            if let PacketKind::Ack(h) = packet.kind {
                self.acked.push((h.cum_ack, ctx.now));
            }
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes every data packet with an ACK carrying seq+1.
    struct Echo {
        peer: NodeId,
        received: Vec<u64>,
    }

    impl Agent for Echo {
        fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
            if let PacketKind::Data(h) = &packet.kind {
                self.received.push(h.seq);
                ctx.send(
                    self.peer,
                    40,
                    PacketKind::Ack(AckHeader {
                        cum_ack: h.seq + 1,
                        sack: Vec::new(),
                        dsack: None,
                        echo_timestamp: h.timestamp,
                        echo_tx_count: h.tx_count,
                        dup: false,
                    }),
                );
            }
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_sim(seed: u64) -> (Simulator, AgentId, AgentId, NodeId, NodeId) {
        let mut b = SimBuilder::new(seed);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 10, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        let tx = sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 5, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        (sim, tx, rx, a, c)
    }

    #[test]
    fn packets_flow_end_to_end_and_acks_return() {
        let (mut sim, tx, rx, _, _) = two_node_sim(1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let echo = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(echo.received, vec![0, 1, 2, 3, 4]);
        let blaster = sim.agent(tx).as_any().downcast_ref::<Blaster>().unwrap();
        assert_eq!(blaster.acked.len(), 5);
        // First packet: 0.8 ms serialization + 10 ms propagation, ACK back:
        // 0.032 ms + 10 ms. Total ≈ 20.832 ms.
        let first_ack = blaster.acked[0].1.as_secs_f64();
        assert!((first_ack - 0.020832).abs() < 1e-6, "got {first_ack}");
    }

    #[test]
    fn serialization_spaces_arrivals_by_transmission_time() {
        let (mut sim, tx, _, _, _) = two_node_sim(1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let blaster = sim.agent(tx).as_any().downcast_ref::<Blaster>().unwrap();
        // Data packets serialize back-to-back at 0.8 ms each; the 40-byte
        // ACKs serialize in 0.032 ms, so consecutive ACK arrivals are spaced
        // by the *data* serialization time.
        let gap = blaster.acked[1].1 - blaster.acked[0].1;
        assert_eq!(gap, SimDuration::from_micros(800));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let (mut s1, t1, _, _, _) = two_node_sim(7);
        let (mut s2, t2, _, _, _) = two_node_sim(7);
        s1.run_until(SimTime::from_secs_f64(0.5));
        s2.run_until(SimTime::from_secs_f64(0.5));
        let a1 = &s1.agent(t1).as_any().downcast_ref::<Blaster>().unwrap().acked;
        let a2 = &s2.agent(t2).as_any().downcast_ref::<Blaster>().unwrap().acked;
        assert_eq!(a1, a2);
        assert_eq!(s1.stats().events, s2.stats().events);
    }

    #[test]
    fn queue_overflow_drops_excess() {
        let mut b = SimBuilder::new(3);
        let a = b.add_node();
        let c = b.add_node();
        // Tiny queue: 2 packets. 50 packets blast in at t=0.
        b.add_duplex(a, c, LinkConfig::mbps_ms(1.0, 10, 2));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 50, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(5.0));
        let echo = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap();
        // 1 in flight + 2 queued survive the burst.
        assert_eq!(echo.received.len(), 3);
        assert_eq!(sim.stats().queue_drops, 47);
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut b = SimBuilder::new(11);
        let a = b.add_node();
        let c = b.add_node();
        b.add_link(a, c, LinkConfig::mbps_ms(100.0, 1, 1000).with_random_loss(0.5));
        b.add_link(c, a, LinkConfig::mbps_ms(100.0, 1, 1000));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 1000, acked: Vec::new() }));
        let rx = sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(5.0));
        let got = sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received.len();
        assert!((300..700).contains(&got), "≈50% of 1000 should survive, got {got}");
        assert_eq!(sim.stats().random_losses as usize + got, 1000);
    }

    #[test]
    fn multipath_routes_spread_packets() {
        // Diamond: a → {m1, m2} → d, equal delays; epsilon=0 splits evenly.
        let mut b = SimBuilder::new(5);
        let a = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let d = b.add_node();
        let cfg = LinkConfig::mbps_ms(100.0, 5, 4000);
        b.add_duplex(a, m1, cfg.clone());
        b.add_duplex(m1, d, cfg.clone());
        b.add_duplex(a, m2, cfg.clone());
        b.add_duplex(m2, d, cfg.clone());
        let mut sim = b.build();
        let n_paths = sim.install_multipath(a, d, 0.0, 4);
        assert_eq!(n_paths, 2);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: d, count: 2000, acked: Vec::new() }));
        let rx = sim.add_agent(d, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received.len(), 2000);
        // Both middle nodes should have forwarded a nontrivial share.
        let via_m1 = sim.link(LinkId::from_raw(2)).transmitted; // m1 → d
        let via_m2 = sim.link(LinkId::from_raw(6)).transmitted; // m2 → d
        assert!(via_m1 > 700 && via_m2 > 700, "m1={via_m1} m2={via_m2}");
        assert_eq!(via_m1 + via_m2, 2000);
    }

    #[test]
    fn unequal_path_delays_reorder_packets() {
        // Two paths with very different delays; uniform split must reorder.
        let mut b = SimBuilder::new(9);
        let a = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let d = b.add_node();
        b.add_duplex(a, m1, LinkConfig::mbps_ms(100.0, 1, 1000));
        b.add_duplex(m1, d, LinkConfig::mbps_ms(100.0, 1, 1000));
        b.add_duplex(a, m2, LinkConfig::mbps_ms(100.0, 30, 1000));
        b.add_duplex(m2, d, LinkConfig::mbps_ms(100.0, 30, 1000));
        let mut sim = b.build();
        sim.install_multipath(a, d, 0.0, 4);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: d, count: 200, acked: Vec::new() }));
        let rx = sim.add_agent(d, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(5.0));
        let received = &sim.agent(rx).as_any().downcast_ref::<Echo>().unwrap().received;
        assert_eq!(received.len(), 200);
        // Count late arrivals: packets whose seq is below the running max.
        let mut max_seen = 0u64;
        let mut late = 0usize;
        for &s in received {
            if s < max_seen {
                late += 1;
            } else {
                max_seen = s;
            }
        }
        assert!(late > 20, "expected heavy reordering, got {late} late arrivals");
    }

    #[test]
    fn timer_generations_suppress_stale_timers() {
        struct TimerAgent {
            fired: u32,
        }
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                // Arm, then immediately re-arm: only the second may fire.
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                ctx.set_timer(ctx.now + SimDuration::from_millis(20));
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {
                self.fired += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(TimerAgent { fired: 0 }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent(id).as_any().downcast_ref::<TimerAgent>().unwrap().fired, 1);
    }

    #[test]
    fn cancel_timer_suppresses_fire() {
        struct CancelAgent {
            fired: u32,
        }
        impl Agent for CancelAgent {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                ctx.cancel_timer();
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>) {
                self.fired += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id = sim.add_agent(a, FlowId::from_raw(0), Box::new(CancelAgent { fired: 0 }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent(id).as_any().downcast_ref::<CancelAgent>().unwrap().fired, 0);
    }

    #[test]
    fn aux_timer_is_independent_of_main_timer() {
        // One agent arms both timer slots; re-arming / cancelling one slot
        // must not disturb the other.
        struct DualTimer {
            fired: u32,
            aux_fired: u32,
        }
        impl Agent for DualTimer {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                // Arm, then re-arm the aux slot: only the second may fire.
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(5));
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(15));
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                self.fired += 1;
                // Cancelling the aux slot from the main callback works too —
                // but only after it already fired at 15 ms.
                if self.fired == 2 {
                    ctx.cancel_aux_timer();
                }
                if self.fired < 3 {
                    ctx.set_timer(ctx.now + SimDuration::from_millis(10));
                }
            }
            fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                self.aux_fired += 1;
                ctx.set_aux_timer(ctx.now + SimDuration::from_millis(30));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(0);
        let a = b.add_node();
        let mut sim = b.build();
        let id =
            sim.add_agent(a, FlowId::from_raw(0), Box::new(DualTimer { fired: 0, aux_fired: 0 }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let agent = sim.agent(id).as_any().downcast_ref::<DualTimer>().unwrap();
        // Main timer: 10, 20, 30 ms. Aux timer: 15 ms, then the 45 ms re-arm
        // is cancelled by the 20 ms main fire.
        assert_eq!(agent.fired, 3);
        assert_eq!(agent.aux_fired, 1);
    }

    #[test]
    fn scheduled_route_pin_switches_paths_mid_run() {
        // Diamond with two equal paths; pin to path 0, then flap to path 1
        // at t = 1 s. Packets sent before the flap use path 0, after it
        // path 1.
        let mut b = SimBuilder::new(5);
        let a = b.add_node();
        let m1 = b.add_node();
        let m2 = b.add_node();
        let d = b.add_node();
        let cfg = LinkConfig::mbps_ms(100.0, 5, 4000);
        b.add_duplex(a, m1, cfg.clone());
        b.add_duplex(m1, d, cfg.clone());
        b.add_duplex(a, m2, cfg.clone());
        b.add_duplex(m2, d, cfg.clone());
        let mut sim = b.build();
        sim.schedule_path_pin(SimTime::ZERO, a, d, 0, 4);
        sim.schedule_path_pin(SimTime::from_secs_f64(1.0), a, d, 1, 4);

        // A slow blaster: send one packet every 10 ms via a timer agent.
        struct Ticker {
            dst: NodeId,
            seq: u64,
        }
        impl Agent for Ticker {
            fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(ctx.now);
            }
            fn on_packet(&mut self, _p: Packet, _ctx: &mut AgentCtx<'_>) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.send(
                    self.dst,
                    1000,
                    PacketKind::Data(crate::packet::DataHeader {
                        seq: self.seq,
                        is_retransmit: false,
                        tx_count: 1,
                        timestamp: ctx.now,
                    }),
                );
                self.seq += 1;
                ctx.set_timer(ctx.now + SimDuration::from_millis(10));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Ticker { dst: d, seq: 0 }));
        sim.add_agent(d, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let via_m1 = sim.link(LinkId::from_raw(2)).transmitted; // m1 → d
        let via_m2 = sim.link(LinkId::from_raw(6)).transmitted; // m2 → d
                                                                // ~100 packets on each side of the flap.
        assert!((90..=110).contains(&via_m1), "via m1 = {via_m1}");
        assert!((90..=110).contains(&via_m2), "via m2 = {via_m2}");
    }

    #[test]
    fn trace_captures_full_packet_lifecycle() {
        use crate::trace::{analysis, TraceEventKind};
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(10.0, 10, 100));
        let mut sim = b.build();
        sim.enable_trace(&[], 10_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 3, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(1.0));

        let records = sim.trace_records();
        // 3 data + 3 ack packets, each: Injected, Enqueued, LinkTx, Delivered.
        assert_eq!(records.len(), 6 * 4, "got {} records", records.len());
        let delays = analysis::one_way_delays(&records);
        assert_eq!(delays.len(), 6);
        // First data packet: 0.8 ms serialization + 10 ms propagation.
        assert_eq!(delays[0].1, SimDuration::from_micros(10_800));
        // Each data packet traversed exactly the a→c link.
        let paths = analysis::paths(&records);
        assert_eq!(paths[&0], vec![LinkId::from_raw(0)]);
        assert_eq!(analysis::delivery_reorder_count(&records), 0);
        // Counting sanity: 6 Injected, 6 Delivered.
        let injected =
            records.iter().filter(|r| matches!(r.kind, TraceEventKind::Injected)).count();
        assert_eq!(injected, 6);
    }

    #[test]
    fn trace_records_queue_drops() {
        use crate::trace::{analysis, TraceEventKind};
        let mut b = SimBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.add_duplex(a, c, LinkConfig::mbps_ms(1.0, 10, 2));
        let mut sim = b.build();
        sim.enable_trace(&[], 10_000);
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 10, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let drops = analysis::drops_by_link(&sim.trace_records());
        assert_eq!(drops[&LinkId::from_raw(0)], 7, "10 sent, 1 in flight + 2 queued survive");
        let dropped_then_delivered = sim
            .trace_records()
            .iter()
            .filter(|r| matches!(r.kind, TraceEventKind::Delivered(_)) && !r.is_ack)
            .count();
        assert_eq!(dropped_then_delivered, 3);
    }

    #[test]
    fn queue_depths_reports_per_link() {
        let mut b = SimBuilder::new(3);
        let a = b.add_node();
        let c = b.add_node();
        // Slow link: a burst parks in the queue.
        b.add_duplex(a, c, LinkConfig::mbps_ms(0.1, 10, 100));
        let mut sim = b.build();
        let flow = FlowId::from_raw(0);
        sim.add_agent(a, flow, Box::new(Blaster { dst: c, count: 50, acked: Vec::new() }));
        sim.add_agent(c, flow, Box::new(Echo { peer: a, received: Vec::new() }));
        sim.run_until(SimTime::from_secs_f64(0.01));
        let depths = sim.queue_depths();
        assert_eq!(depths.len(), sim.link_count());
        assert!(depths[0] > 10, "burst should be queued, got {:?}", depths);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut b = SimBuilder::new(0);
        let _ = b.add_node();
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
    }

    #[test]
    fn profiler_hooks_record_when_enabled_and_stay_silent_when_disabled() {
        // Disabled (the default): a full run leaves the registry empty.
        let _ = obs::take();
        {
            let (mut sim, _, _, _, _) = two_node_sim(1);
            sim.run_until(SimTime::from_secs_f64(1.0));
        }
        assert!(obs::take().is_empty(), "disabled profiler must record nothing");

        // Enabled: the same run populates event counters, the heap-depth
        // histogram and the completion gauge. Other tests run concurrently
        // under the global flag but never read their thread-local registries,
        // so the enable/disable bracket is safe.
        obs::enable();
        {
            let (mut sim, _, _, _, _) = two_node_sim(1);
            sim.run_until(SimTime::from_secs_f64(1.0));
        }
        let report = obs::take();
        obs::disable();
        assert!(report.counters.get("event.arrive").copied().unwrap_or(0) > 0);
        assert_eq!(report.counters.get("sim.completed").copied(), Some(1));
        assert!(report.sim_histograms.get("event.heap_depth").map_or(0, |h| h.total()) > 0);
        assert!(report.gauges.get("event.heap_peak").copied().unwrap_or(0) > 0);
    }
}
