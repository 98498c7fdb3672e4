//! `perfbench`: host time of the simulator on one named workload.
//!
//! ```text
//! perfbench --workload <sweep|stress|scale> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-golden <path>
//! ```
//!
//! Every run first executes each scenario once through the repository's
//! own `experiments::sweep::execute` as the reference outcome, then:
//!
//! - `--trace 0` repeats untraced passes of the driver for `--seconds`,
//!   each over a fresh input set, and reports the end-to-end metrics;
//! - `--trace 1` makes one untraced pass, one traced pass (timing
//!   wrappers, spans written to `perfbench/out/`) and one counts pass (the
//!   program's `obs` profiler on), and reports the per-layer metrics.
//!
//! Every driver execution on the run's own seed must serialise
//! byte-identically to the reference and dispatch the same number of
//! events; every execution must pass the invariant oracle; under the
//! default seed the reference must also match the golden digests in
//! `golden.json`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod calib;
mod driver;
mod replay;
#[cfg(test)]
mod selftest;
mod spans;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use driver::{Mode, Plain, ScenarioRun, Traced};
use experiments::sweep::{execute, ExecCtx, ScenarioSpec};
use netsim::telemetry::session;
use serde::Value;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Reference-workload samples per checkpoint.
const CAL_SAMPLES: usize = 5;
/// Set-up-only repetitions of the grid per checkpoint.
const SETUP_REPS: usize = 15;
/// Hold operations of the event-queue replay.
const REPLAY_HOLDS: u64 = 2_000_000;
/// The golden outcome digests, written by `--write-golden`.
const GOLDEN: &str = include_str!("../golden.json");

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <sweep|stress|scale> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-golden <path>"
    );
    exit(2)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-golden") {
        let path = argv.get(1).unwrap_or_else(|| usage("--write-golden needs a path"));
        write_golden(Path::new(path));
        exit(0);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = parsed(flag, value),
            "--seconds" => seconds = parsed(flag, value),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args { workload, seed, seconds, trace }
}

/// FNV-1a 64 of an outcome's serialisation, as 16 hex digits.
fn digest(outcome: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in outcome.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The repository's own outcome for a scenario, and its event count.
struct Reference {
    outcome: Option<String>,
    events: u64,
}

fn reference(spec: &ScenarioSpec) -> Reference {
    session::take();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(spec, &ExecCtx::default())))
        .ok()
        .map(|v| serde_json::to_string(&v).expect("outcome serialises"));
    Reference { outcome, events: session::take().events_processed }
}

/// Correctness bookkeeping: every driver execution is one attempt.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks one driver execution: the invariant oracle always, and the
    /// outcome and event count against the reference when there is one.
    fn check(&mut self, label: &str, pass: &str, run: Option<&ScenarioRun>, r: Option<&Reference>) {
        self.attempted += 1;
        let expected = r.map(|r| (r.outcome.as_deref(), r.events));
        let problem = match (run, expected) {
            (None, _) => Some("the driver panicked".to_owned()),
            (_, Some((None, _))) => Some("execute(spec) panicked".to_owned()),
            (Some(run), Some((Some(outcome), _))) if run.outcome != outcome => {
                Some(format!("outcome differs from execute(spec): {}", run.outcome))
            }
            (Some(run), Some((_, events))) if run.events != events => {
                Some(format!("{} events, execute(spec) dispatched {events}", run.events))
            }
            (Some(run), _) if !run.violations.is_empty() => {
                Some(format!("oracle: {}", run.violations.join("; ")))
            }
            _ => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.fail(format!("{pass} pass, {label}: {p}"));
        }
    }
}

/// Runs every scenario once in mode `M`, checking each against its
/// reference, if given. `on_scenario` sees each scenario index after it ran.
fn pass<M: Mode>(
    name: &str,
    specs: &[ScenarioSpec],
    refs: Option<&[Reference]>,
    checks: &mut Checks,
    mut on_scenario: impl FnMut(usize),
) -> Vec<Option<ScenarioRun>> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let run = catch_unwind(AssertUnwindSafe(|| driver::run::<M>(spec))).ok();
            on_scenario(i);
            checks.check(&spec.label(), name, run.as_ref(), refs.map(|r| &r[i]));
            run
        })
        .collect()
}

/// The `q`-quantile of `v`, interpolating linearly between order statistics.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let x = (s.len() - 1) as f64 * q;
    let (i, frac) = (x.floor() as usize, x.fract());
    s[i] + (s[(i + 1).min(s.len() - 1)] - s[i]) * frac
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds of one pass: the sum of its scenario times.
fn pass_wall_s(runs: &[Option<ScenarioRun>]) -> f64 {
    runs.iter().flatten().map(|r| r.host_ns as f64 / 1e9).sum()
}

/// Printed metrics, in order, with their units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let m = vec![
                        ("value".to_owned(), Value::Float(*value)),
                        ("unit".to_owned(), Value::Str((*unit).to_owned())),
                    ];
                    (name.clone(), Value::Object(m))
                })
                .collect(),
        )
    }
}

/// Base seed of input set `k` of a run under `seed`. Set 0 is the run's
/// own seed, so under the default seed it keeps the repository's sim seeds.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k << 32)
}

/// A measuring checkpoint: the reference workload's time now, and
/// set-up-only repetitions of the whole grid (grid construction plus every
/// scenario's set-up up to its first `run_until`), both in host seconds.
struct Checkpoint {
    reference_s: f64,
    grid_s: Vec<f64>,
    setup_s: Vec<f64>,
}

fn checkpoint(r: &mut calib::Reference, w: &Workload, seed: u64) -> Checkpoint {
    let reference: Vec<f64> = (0..CAL_SAMPLES).map(|_| r.time_s()).collect();
    let (mut grid_s, mut setup_s) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let specs = w.specs(seed);
        let grid = t0.elapsed().as_secs_f64();
        let setups: u64 = specs.iter().map(driver::setup_only).sum();
        grid_s.push(grid);
        setup_s.push(grid + setups as f64 / 1e9);
    }
    Checkpoint { reference_s: median(&reference), grid_s, setup_s }
}

/// Untraced passes for `--seconds`, each over a fresh input set: pass `k`
/// runs the grid under [`sub_seed`]`(seed, k)`, pass 0 against the
/// reference outcomes. A checkpoint precedes the first pass and follows
/// each. Host times are converted to the reference machine speed: a
/// pass's times are scaled by `calib::REFERENCE_S` over the reference
/// workload's time at the checkpoints around it, so that other load on the
/// machine, which slows both alike, cancels. Each scenario's time is then
/// its median over the passes.
fn end_to_end(
    args: &Args,
    specs: &[ScenarioSpec],
    refs: &[Reference],
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let mut reference = calib::Reference::new();
    let mut points = vec![checkpoint(&mut reference, args.workload, args.seed)];
    let t0 = Instant::now();
    let mut passes: Vec<Vec<Option<ScenarioRun>>> = Vec::new();
    loop {
        let k = passes.len() as u64;
        passes.push(if k == 0 {
            pass::<Plain>("untraced", specs, Some(refs), checks, |_| {})
        } else {
            let specs_k = args.workload.specs(sub_seed(args.seed, k));
            pass::<Plain>("untraced", &specs_k, None, checks, |_| {})
        });
        points.push(checkpoint(&mut reference, args.workload, args.seed));
        // Stop before a pass that would end past the budget.
        let spent = t0.elapsed().as_secs_f64();
        if spent / passes.len() as f64 * (passes.len() + 1) as f64 > args.seconds {
            break;
        }
    }
    let to_reference = |reference_s: f64| calib::REFERENCE_S / reference_s;
    let pass_scale: Vec<f64> = points
        .windows(2)
        .map(|w| to_reference((w[0].reference_s + w[1].reference_s) / 2.0))
        .collect();
    let scaled = |point: &Checkpoint, v: &[f64]| -> Vec<f64> {
        v.iter().map(|s| s * to_reference(point.reference_s)).collect()
    };
    let setup_s = median(&points.iter().flat_map(|p| scaled(p, &p.setup_s)).collect::<Vec<_>>());
    let grid_s = median(&points.iter().flat_map(|p| scaled(p, &p.grid_s)).collect::<Vec<_>>());
    let per_scenario = |i: usize, scale: &dyn Fn(usize) -> f64| -> f64 {
        let ms: Vec<f64> = (0..passes.len())
            .filter_map(|k| passes[k][i].as_ref().map(|r| r.host_ns as f64 / 1e6 * scale(k)))
            .collect();
        median(&ms)
    };
    let per_scenario_ms: Vec<f64> =
        (0..specs.len()).map(|i| per_scenario(i, &|k| pass_scale[k])).collect();
    let raw_ms: Vec<f64> = (0..specs.len()).map(|i| per_scenario(i, &|_| 1.0)).collect();
    let median_of = |i: usize, f: fn(&ScenarioRun) -> u64| {
        median(
            &passes.iter().filter_map(|p| p[i].as_ref().map(|r| f(r) as f64)).collect::<Vec<_>>(),
        )
    };
    let delivered: f64 = (0..specs.len()).map(|i| median_of(i, |r| r.delivered)).sum();
    let wall_s = per_scenario_ms.iter().sum::<f64>() / 1e3 + grid_s;
    let p50 = median(&per_scenario_ms);
    let p90 = quantile(&per_scenario_ms, 0.9);
    let max = per_scenario_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "{} untraced passes over {:.1} s, one input set each (base seeds {}); pass walls (s): {}",
        passes.len(),
        t0.elapsed().as_secs_f64(),
        (0..passes.len() as u64)
            .map(|k| sub_seed(args.seed, k).to_string())
            .collect::<Vec<_>>()
            .join(", "),
        passes.iter().map(|p| format!("{:.3}", pass_wall_s(p))).collect::<Vec<_>>().join(" ")
    );
    println!(
        "reference workload (ms) at the {} checkpoints: {} (reference machine: {:.3})",
        points.len(),
        points.iter().map(|p| format!("{:.3}", p.reference_s * 1e3)).collect::<Vec<_>>().join(" "),
        calib::REFERENCE_S * 1e3
    );
    println!(
        "unscaled host times: wall {:.4} s, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
        raw_ms.iter().sum::<f64>() / 1e3,
        median(&raw_ms),
        quantile(&raw_ms, 0.9),
        raw_ms.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "scenario_ms_p50/p90 are over {} scenarios, each the median of its {} pass times; \
         the slowest scenario (scenario_ms_max, not gated: it swings with the input set) took {max:.2} ms",
        specs.len(),
        passes.len()
    );
    println!(
        "{:>3} {:<44} {:>11} {:>11} {:>11}",
        "id", "scenario", "median ms", "events", "delivered"
    );
    for (i, spec) in specs.iter().enumerate() {
        println!(
            "{i:>3} {:<44} {:>11.2} {:>11.0} {:>11.0}",
            spec.label(),
            per_scenario_ms[i],
            median_of(i, |r| r.events),
            median_of(i, |r| r.delivered)
        );
    }
    m.put("wall_s", wall_s, "s");
    m.put("delivered_pkts_per_s", delivered / wall_s, "1/s");
    m.put("scenario_ms_p50", p50, "ms");
    m.put("scenario_ms_p90", p90, "ms");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Timer events the simulator popped but delivered to no agent: every
/// timer and aux-timer dispatch the profiler counted, minus the timer
/// callbacks the wrapped agents received.
fn stale_timer_pops(report: &obs::ProfileReport, timer_callbacks: u64) -> u64 {
    let pops: u64 = ["event.timer", "event.aux_timer"]
        .iter()
        .map(|k| report.counters.get(*k).copied().unwrap_or(0))
        .sum();
    pops.saturating_sub(timer_callbacks)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(
    args: &Args,
    specs: &[ScenarioSpec],
    refs: &[Reference],
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let plain = pass::<Plain>("untraced", specs, Some(refs), checks, |_| {});
    let plain_s = pass_wall_s(&plain);

    // Traced pass: wrapped objects, spans folded per (scenario, layer).
    let mut records = Vec::new();
    let traced = pass::<Traced>("traced", specs, Some(refs), checks, |i| {
        records.extend(spans::records(i, &specs[i].label(), &trace::take_scenario()));
    });
    let traced_s = pass_wall_s(&traced);

    // Counts pass: the program's own profiler on, no wrappers.
    obs::take();
    obs::enable();
    let counted = pass::<Plain>("counts", specs, Some(refs), checks, |_| {});
    obs::disable();
    let report = obs::take();
    let counts_s = pass_wall_s(&counted);

    let path = PathBuf::from("perfbench/out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload.name, args.seed));
    if let Err(e) = spans::write(&path, &records) {
        checks.failed += 1;
        checks.fail(format!("cannot write {}: {e}", path.display()));
    }
    let back = spans::read(&path).unwrap_or_else(|e| {
        checks.failed += 1;
        checks.fail(format!("cannot read spans back: {e}"));
        Vec::new()
    });
    let t = spans::totals(&back);
    println!(
        "where a microsecond goes ({}, traced pass, from {}):",
        args.workload.name,
        path.display()
    );
    print!("{}", spans::self_time_table(&t));

    let layer = |name: &str| t.get(name).cloned().unwrap_or_default();
    let counter = |key: &str| report.counters.get(key).copied().unwrap_or(0);
    let events: u64 = traced.iter().flatten().map(|r| r.events).sum();
    let run = layer("netsim.run_until");
    let sender = layer("transport.sender");
    let receiver = layer("transport.receiver");
    let churn = layer("workload.churn");
    let algos: Vec<(experiments::Variant, spans::LayerTotal)> =
        experiments::Variant::ALL.iter().map(|&v| (v, layer(&format!("algo.{v:?}")))).collect();
    let algo_calls: u64 = algos.iter().map(|(_, l)| l.acc.calls).sum();
    let algo_ns: u64 = algos.iter().map(|(_, l)| l.acc.ns).sum();
    let algo_allocs: u64 = algos.iter().map(|(_, l)| l.acc.allocs).sum();
    let timer_callbacks: u64 = t.values().map(|l| l.acc.timer_calls).sum();
    let depth = report.sim_histograms.get("event.heap_depth");
    let depth_mean = depth.map_or(0.0, |h| h.mean());
    let events_f = events.max(1) as f64;

    m.put("netsim.self_ns_per_event", run.self_ns() as f64 / events_f, "ns/event");
    m.put("netsim.self_share", ratio(run.self_ns() as f64, run.acc.ns as f64), "frac");
    m.put("netsim.allocs_per_event", run.self_allocs() as f64 / events_f, "allocs/event");
    m.put("netsim.events", events as f64, "count");
    m.put("netsim.events_per_s", ratio(events as f64, plain_s), "1/s");
    m.put("netsim.events.arrive", counter("event.arrive") as f64, "count");
    m.put("netsim.events.link_ready", counter("event.link_ready") as f64, "count");
    m.put("netsim.events.timer", counter("event.timer") as f64, "count");
    m.put("netsim.events.aux_timer", counter("event.aux_timer") as f64, "count");
    m.put("netsim.heap_depth_mean", depth_mean, "count");
    m.put(
        "netsim.heap_peak",
        report.gauges.get("event.heap_peak").copied().unwrap_or(0) as f64,
        "count",
    );
    m.put("netsim.stale_timer_pops", stale_timer_pops(&report, timer_callbacks) as f64, "count");
    let mix = ["event.arrive", "event.link_ready", "event.timer", "event.aux_timer"].map(counter);
    let replay = replay::ns_per_op(depth_mean.round() as usize, mix, args.seed, REPLAY_HOLDS);
    m.put("event_queue.replay_ns_per_op", replay, "ns/op");

    let per_call = |ns: u64, calls: u64| ratio(ns as f64, calls as f64);
    m.put("algo.ns_per_call", per_call(algo_ns, algo_calls), "ns/call");
    m.put("algo.allocs_per_call", per_call(algo_allocs, algo_calls), "allocs/call");
    m.put("algo.calls", algo_calls as f64, "count");
    for (v, l) in &algos {
        if workloads::PER_VARIANT.contains(v) {
            m.put(format!("algo.{v:?}.ns_per_call"), per_call(l.acc.ns, l.acc.calls), "ns/call");
        }
    }
    m.put(
        "transport.sender.self_ns_per_call",
        per_call(sender.self_ns(), sender.acc.calls),
        "ns/call",
    );
    m.put(
        "transport.sender.allocs_per_call",
        per_call(sender.self_allocs(), sender.acc.calls),
        "allocs/call",
    );
    m.put(
        "transport.receiver.ns_per_packet",
        per_call(receiver.acc.ns, receiver.acc.packets),
        "ns/packet",
    );
    m.put(
        "transport.receiver.allocs_per_packet",
        per_call(receiver.acc.allocs, receiver.acc.packets),
        "allocs/packet",
    );
    m.put("transport.pacer_releases", counter("pacer.released") as f64, "count");
    m.put("workload.churn.ns_per_call", per_call(churn.acc.ns, churn.acc.calls), "ns/call");
    m.put("workload.churn.calls", churn.acc.calls as f64, "count");
    let bytes_per_flow = traced
        .iter()
        .flatten()
        .filter_map(|r| {
            match spans::field(&serde_json::from_str(&r.outcome).ok()?, "bytes_per_flow") {
                Some(Value::UInt(n)) => Some(*n),
                _ => None,
            }
        })
        .max()
        .unwrap_or(0);
    m.put("workload.bytes_per_flow", bytes_per_flow as f64, "B/flow");
    m.put("setup.topology_ms", layer("setup.topology").acc.ns as f64 / 1e6, "ms");
    m.put("setup.sim_build_ms", layer("setup.sim_build").acc.ns as f64 / 1e6, "ms");
    m.put("setup.attach_ms", layer("setup.attach").acc.ns as f64 / 1e6, "ms");
    m.put("obs.profiler_overhead_frac", ratio(counts_s, plain_s) - 1.0, "frac");
    m.put("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0, "frac");
    println!(
        "pass walls (s): untraced {plain_s:.3}, traced {traced_s:.3}, counts {counts_s:.3}; timer callbacks {timer_callbacks}"
    );
}

/// The golden digests and event total of `workload`, if recorded.
fn golden(workload: &str) -> Option<(u64, Vec<String>)> {
    let doc = serde_json::from_str(GOLDEN).ok()?;
    let w = spans::field(spans::field(&doc, "workloads")?, workload)?;
    let Some(Value::UInt(events)) = spans::field(w, "events") else { return None };
    let Some(Value::Array(digests)) = spans::field(w, "digests") else { return None };
    let digests = digests
        .iter()
        .map(|d| match d {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((*events, digests))
}

fn check_golden(w: &Workload, specs: &[ScenarioSpec], refs: &[Reference], checks: &mut Checks) {
    let Some((events, digests)) = golden(w.name) else {
        checks.failed += 1;
        checks.fail(format!("golden.json has no entry for {}", w.name));
        return;
    };
    let total: u64 = refs.iter().map(|r| r.events).sum();
    if total != events {
        checks.failed += 1;
        checks.fail(format!("{} events under the default seed, golden total is {events}", total));
    }
    if digests.len() != specs.len() {
        checks.failed += 1;
        checks.fail(format!("{} scenarios, golden.json lists {}", specs.len(), digests.len()));
    }
    for ((spec, r), want) in specs.iter().zip(refs).zip(&digests) {
        if r.outcome.as_deref().map(digest).as_ref() != Some(want) {
            checks.failed += 1;
            checks.fail(format!("{}: outcome digest differs from golden {want}", spec.label()));
        }
    }
}

fn write_golden(path: &Path) {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let specs = w.specs(DEFAULT_SEED);
        let refs: Vec<Reference> = specs.iter().map(reference).collect();
        let digests = refs
            .iter()
            .map(|r| {
                Value::Str(digest(
                    r.outcome.as_deref().expect("reference scenarios must not panic"),
                ))
            })
            .collect();
        let labels = specs.iter().map(|s| Value::Str(s.label())).collect();
        let events: u64 = refs.iter().map(|r| r.events).sum();
        eprintln!("{}: {} scenarios, {events} events", w.name, specs.len());
        let entry = vec![
            ("events".to_owned(), Value::UInt(events)),
            ("labels".to_owned(), Value::Array(labels)),
            ("digests".to_owned(), Value::Array(digests)),
        ];
        workloads.push((w.name.to_owned(), Value::Object(entry)));
    }
    let doc = Value::Object(vec![
        ("default_seed".to_owned(), Value::UInt(DEFAULT_SEED)),
        ("workloads".to_owned(), Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("total") + "\n";
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        exit(1);
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let specs = w.specs(args.seed);
    println!(
        "perfbench {} seed {} ({} scenarios, {}), trace {}",
        w.name,
        args.seed,
        specs.len(),
        w.artifacts.join(" + "),
        u8::from(args.trace)
    );
    let refs: Vec<Reference> = specs.iter().map(reference).collect();
    let mut checks = Checks::default();
    if args.seed == DEFAULT_SEED {
        check_golden(w, &specs, &refs, &mut checks);
    }
    let mut m = Metrics::default();
    if args.trace {
        per_layer(&args, &specs, &refs, &mut checks, &mut m);
    } else {
        end_to_end(&args, &specs, &refs, &mut checks, &mut m);
    }
    for (name, value, unit) in &m.0 {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "  failed_frac {:.6} ({} of {} scenario executions failed)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for p in &checks.problems {
        println!("  FAILED: {p}");
    }
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(checks.failed == 0)),
        ("attempted".to_owned(), Value::UInt(checks.attempted)),
        ("failed".to_owned(), Value::UInt(checks.failed)),
        ("metrics".to_owned(), m.json()),
    ]);
    println!("{}", serde_json::to_string(&result).expect("total"));
}
