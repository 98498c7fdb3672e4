//! The traced pass's spans on disk, and the layer self-time view built
//! from them.
//!
//! Each line of a spans file is one layer's folded spans within one
//! scenario: `{"scenario", "label", "layer", "parent", "calls", "ns",
//! "allocs", "timer_calls", "packets"}`. All lines of a scenario share its
//! id. A layer's self time is its duration minus the part its child layers
//! cover; layers nest strictly, so that part is the children's total.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;

use serde::Value;

use crate::trace::{self, Acc, N_LAYERS};

/// One layer's folded spans within one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Scenario id: its index in the workload grid.
    pub scenario: usize,
    /// Scenario label.
    pub label: String,
    /// Layer name.
    pub layer: String,
    /// Parent layer name (`None` for the scenario root).
    pub parent: Option<String>,
    /// Folded counters.
    pub acc: Acc,
}

/// The non-empty layers of one scenario's accumulators.
pub fn records(scenario: usize, label: &str, accs: &[Acc; N_LAYERS]) -> Vec<SpanRecord> {
    (0..N_LAYERS)
        .filter(|&slot| accs[slot].calls > 0)
        .map(|slot| SpanRecord {
            scenario,
            label: label.to_owned(),
            layer: trace::layer_name(slot),
            parent: trace::layer_parent(slot).map(trace::layer_name),
            acc: accs[slot],
        })
        .collect()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        let line = obj(vec![
            ("scenario", Value::UInt(s.scenario as u64)),
            ("label", Value::Str(s.label.clone())),
            ("layer", Value::Str(s.layer.clone())),
            ("parent", s.parent.clone().map_or(Value::Null, Value::Str)),
            ("calls", Value::UInt(s.acc.calls)),
            ("ns", Value::UInt(s.acc.ns)),
            ("allocs", Value::UInt(s.acc.allocs)),
            ("timer_calls", Value::UInt(s.acc.timer_calls)),
            ("packets", Value::UInt(s.acc.packets)),
        ]);
        writeln!(out, "{}", serde_json::to_string(&line).expect("total"))?;
    }
    out.flush()
}

/// The value under `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    match field(v, key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("span field {key}: expected an unsigned integer, got {other:?}")),
    }
}

fn string(v: &Value, key: &str) -> Result<Option<String>, String> {
    match field(v, key) {
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(Value::Null) => Ok(None),
        other => Err(format!("span field {key}: expected a string, got {other:?}")),
    }
}

/// Reads a spans file written by [`write`].
pub fn read(path: &Path) -> Result<Vec<SpanRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let v = serde_json::from_str(line).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(SpanRecord {
                scenario: uint(&v, "scenario")? as usize,
                label: string(&v, "label")?.unwrap_or_default(),
                layer: string(&v, "layer")?.ok_or("span without a layer")?,
                parent: string(&v, "parent")?,
                acc: Acc {
                    calls: uint(&v, "calls")?,
                    ns: uint(&v, "ns")?,
                    allocs: uint(&v, "allocs")?,
                    timer_calls: uint(&v, "timer_calls")?,
                    packets: uint(&v, "packets")?,
                },
            })
        })
        .collect()
}

/// One layer summed over every scenario, with its self share.
#[derive(Debug, Clone, Default)]
pub struct LayerTotal {
    /// Parent layer name.
    pub parent: Option<String>,
    /// Summed counters.
    pub acc: Acc,
    /// Nanoseconds covered by child layers.
    pub child_ns: u64,
    /// Allocations made inside child layers.
    pub child_allocs: u64,
}

impl LayerTotal {
    /// Duration minus child coverage.
    pub fn self_ns(&self) -> u64 {
        self.acc.ns.saturating_sub(self.child_ns)
    }

    /// Allocations minus those of child layers.
    pub fn self_allocs(&self) -> u64 {
        self.acc.allocs.saturating_sub(self.child_allocs)
    }
}

/// Sums spans per layer and charges each layer's total to its parent's
/// child coverage.
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<String, LayerTotal> {
    let mut t: BTreeMap<String, LayerTotal> = BTreeMap::new();
    for s in spans {
        let e = t.entry(s.layer.clone()).or_default();
        e.parent = s.parent.clone();
        e.acc.calls += s.acc.calls;
        e.acc.ns += s.acc.ns;
        e.acc.allocs += s.acc.allocs;
        e.acc.timer_calls += s.acc.timer_calls;
        e.acc.packets += s.acc.packets;
        if let Some(p) = &s.parent {
            let parent = t.entry(p.clone()).or_default();
            parent.child_ns += s.acc.ns;
            parent.child_allocs += s.acc.allocs;
        }
    }
    t
}

/// Layers in tree order (each parent before its children).
fn tree_order(t: &BTreeMap<String, LayerTotal>) -> Vec<(usize, String)> {
    fn visit(
        t: &BTreeMap<String, LayerTotal>,
        name: &str,
        depth: usize,
        out: &mut Vec<(usize, String)>,
    ) {
        out.push((depth, name.to_owned()));
        let mut kids: Vec<&String> =
            t.iter().filter(|(_, l)| l.parent.as_deref() == Some(name)).map(|(k, _)| k).collect();
        kids.sort_by_key(|k| (0..N_LAYERS).position(|s| trace::layer_name(s) == **k));
        for k in kids {
            visit(t, k, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    for (name, l) in t {
        if l.parent.is_none() {
            visit(t, name, 0, &mut out);
        }
    }
    out
}

/// The "where a microsecond goes" table: every layer's calls, total and
/// self time, its self share of all scenario time, and its allocations.
pub fn self_time_table(t: &BTreeMap<String, LayerTotal>) -> String {
    let root_ns = t.get("scenario").map_or(0, |l| l.acc.ns).max(1) as f64;
    let mut s = format!(
        "{:<26} {:>11} {:>11} {:>11} {:>7} {:>12} {:>11}\n",
        "layer (self)", "calls", "total ms", "self ms", "self %", "self ns/call", "self allocs"
    );
    for (depth, name) in tree_order(t) {
        let l = &t[&name];
        let shown = if name == "netsim.run_until" { "netsim (run_until)".to_owned() } else { name };
        s.push_str(&format!(
            "{:<26} {:>11} {:>11.2} {:>11.2} {:>6.1}% {:>12.1} {:>11}\n",
            format!("{}{}", "  ".repeat(depth), shown),
            l.acc.calls,
            l.acc.ns as f64 / 1e6,
            l.self_ns() as f64 / 1e6,
            100.0 * l.self_ns() as f64 / root_ns,
            l.self_ns() as f64 / l.acc.calls.max(1) as f64,
            l.self_allocs(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(calls: u64, ns: u64, allocs: u64) -> Acc {
        Acc { calls, ns, allocs, ..Acc::default() }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage_and_survives_the_file() {
        let mut accs = [Acc::default(); N_LAYERS];
        accs[trace::SCENARIO] = acc(1, 1000, 10);
        accs[trace::RUN] = acc(2, 800, 6);
        accs[trace::SENDER] = acc(5, 300, 4);
        accs[trace::algo_slot(experiments::Variant::Bbr)] = acc(5, 120, 1);
        let spans = records(3, "cell", &accs);
        assert_eq!(spans.len(), 4);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}.jsonl", std::process::id()));
        write(&path, &spans).expect("write spans");
        let back = read(&path).expect("read spans");
        fs::remove_file(&path).ok();
        assert_eq!(back, spans);
        let t = totals(&back);
        assert_eq!(t["netsim.run_until"].self_ns(), 500);
        assert_eq!(t["transport.sender"].self_ns(), 180);
        assert_eq!(t["transport.sender"].self_allocs(), 3);
        assert_eq!(t["scenario"].self_ns(), 200);
        let table = self_time_table(&t);
        assert!(table.contains("algo.Bbr") && table.contains("netsim (run_until)"), "{table}");
    }
}
