//! Content-addressed on-disk result cache.
//!
//! Each completed scenario is stored as `.sweep-cache/<hash>.json`, keyed
//! by [`ScenarioSpec::content_hash`] (which already folds in the
//! [`CODE_SALT`](crate::sweep::spec::CODE_SALT) code-version salt). An
//! entry carries the scenario's outcome value *and* its session work stats,
//! so a resumed sweep reproduces byte-identical artifacts — including the
//! deterministic parts of the run-health block — without re-executing
//! anything.
//!
//! Robustness policy: anything unreadable (missing file, parse error, salt
//! or hash mismatch from an older code version) is a cache miss, never an
//! error. Writes go through a temp file + rename so a crashed run cannot
//! leave a torn entry behind.

use std::fs;
use std::path::{Path, PathBuf};

use netsim::telemetry::SessionStats;
use serde::{Deserialize, Serialize, Value};

use crate::sweep::spec::{ScenarioSpec, CODE_SALT};

/// How a sweep interacts with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Never read or write (`--no-cache`).
    Off,
    /// Execute everything, record results for later resumption (the
    /// default: a plain run always re-measures but leaves a warm cache).
    WriteOnly,
    /// Skip scenarios with a cached outcome, record the rest (`--resume`).
    ReadWrite,
}

impl CachePolicy {
    /// Whether entries may satisfy scenarios without execution.
    pub fn reads(self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }

    /// Whether completed scenarios are recorded.
    pub fn writes(self) -> bool {
        matches!(self, CachePolicy::WriteOnly | CachePolicy::ReadWrite)
    }
}

/// One cached scenario: its outcome tree and the session stats of the run
/// that produced it.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The executor's serialized result.
    pub outcome: Value,
    /// Events / peak heap / dropped records of the original execution.
    pub work: SessionStats,
}

/// The on-disk form of one entry, `.sweep-cache/<spec_hash>.json`.
#[derive(Serialize, Deserialize)]
struct CacheEntry {
    /// [`CODE_SALT`] of the code that wrote the entry.
    salt: String,
    /// [`ScenarioSpec::hash_hex`] of the scenario.
    spec_hash: String,
    /// [`ScenarioSpec::label`], for people reading the directory.
    spec: String,
    /// The executor's serialized result.
    outcome: Value,
    /// Session stats of the run that produced it.
    work: SessionStats,
}

/// Handle on one cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

/// Default cache directory name, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".sweep-cache";

impl Cache {
    /// Opens (without creating) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Cache { dir: dir.into() }
    }

    /// The entry path for a spec.
    pub fn entry_path(&self, spec: &ScenarioSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.hash_hex()))
    }

    /// Loads the cached run for `spec`, or `None` on any kind of miss
    /// (absent, unparsable, wrong salt, wrong hash).
    ///
    /// Every field is required: entries written before a field existed are
    /// misses, so schema growth needs no salt bump — old entries simply
    /// re-execute once.
    pub fn load(&self, spec: &ScenarioSpec) -> Option<CachedRun> {
        let text = fs::read_to_string(self.entry_path(spec)).ok()?;
        let entry = CacheEntry::from_value(&serde_json::from_str(&text).ok()?)?;
        if entry.salt != CODE_SALT || entry.spec_hash != spec.hash_hex() {
            return None;
        }
        Some(CachedRun { outcome: entry.outcome, work: entry.work })
    }

    /// Records a completed scenario. Failures to persist are reported on
    /// stderr but never fail the sweep — the cache is an accelerator, not
    /// a correctness dependency.
    pub fn store(&self, spec: &ScenarioSpec, run: &CachedRun) {
        if let Err(e) = self.try_store(spec, run) {
            eprintln!(
                "warning: could not persist sweep-cache entry {}: {e}",
                self.entry_path(spec).display()
            );
        }
    }

    fn try_store(&self, spec: &ScenarioSpec, run: &CachedRun) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let entry = CacheEntry {
            salt: CODE_SALT.to_owned(),
            spec_hash: spec.hash_hex(),
            spec: spec.label(),
            outcome: run.outcome.clone(),
            work: run.work,
        };
        let text = serde_json::to_string_pretty(&entry).expect("shim serializer is total");
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{:?}",
            spec.hash_hex(),
            std::process::id(),
            std::thread::current().id(),
        ));
        fs::write(&tmp, text)?;
        let result = fs::rename(&tmp, self.entry_path(spec));
        if result.is_err() {
            fs::remove_file(&tmp).ok();
        }
        result
    }
}

/// Reports where the cache lives for a working directory (used in help
/// text and the sweep summary).
pub fn describe(dir: &Path) -> String {
    format!("{}/<spec-hash>.json", dir.display())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::{PlanSpec, ScenarioKind, TopologySpec};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-cache-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows: 4,
                alpha: 0.995,
                beta: 3.0,
                replicate: 1,
            },
            PlanSpec::Quick,
        )
    }

    fn run() -> CachedRun {
        CachedRun {
            outcome: Value::Object(vec![("mbps".to_owned(), Value::Float(12.5))]),
            work: SessionStats {
                sims: 1,
                events_processed: 12345,
                peak_event_heap: 67,
                dropped_trace_records: 0,
                traced_keep_first_sims: 1,
                traced_keep_latest_sims: 0,
                impair_drops: 3,
                impair_dups: 2,
                impair_reorders: 5,
                link_flaps: 1,
                workload_flows: 10_000,
                workload_bytes_per_flow: 96,
            },
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch("roundtrip");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        assert!(cache.load(&s).is_none(), "fresh cache is empty");
        cache.store(&s, &r);
        let loaded = cache.load(&s).expect("hit after store");
        assert_eq!(loaded.outcome, r.outcome);
        assert_eq!(loaded.work, r.work);
        fs::remove_dir_all(&dir).ok();
    }

    /// The entry for `spec()` and `run()`, byte for byte: the on-disk
    /// format is fixed, so entries written by earlier binaries with the same
    /// salt keep loading.
    const PINNED_ENTRY: &str = r#"{
  "salt": "tcp-pr-sweep-v1",
  "spec_hash": "eb3e5d5de30246ce",
  "spec": "fairness dumbbell n=4 α=0.995 β=3 rep=1",
  "outcome": {
    "mbps": 12.5
  },
  "work": {
    "sims": 1,
    "events_processed": 12345,
    "peak_event_heap": 67,
    "dropped_trace_records": 0,
    "traced_keep_first_sims": 1,
    "traced_keep_latest_sims": 0,
    "impair_drops": 3,
    "impair_dups": 2,
    "impair_reorders": 5,
    "link_flaps": 1,
    "workload_flows": 10000,
    "workload_bytes_per_flow": 96
  }
}"#;

    #[test]
    fn entry_text_is_pinned_and_loads() {
        let dir = scratch("pinned");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        cache.store(&s, &r);
        assert_eq!(fs::read_to_string(cache.entry_path(&s)).unwrap(), PINNED_ENTRY);
        let loaded = cache.load(&s).expect("pinned entry loads");
        assert_eq!(loaded.outcome, r.outcome);
        assert_eq!(loaded.work, r.work);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_salt_or_hash_is_a_miss() {
        let dir = scratch("salt");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        cache.store(&s, &r);
        let path = cache.entry_path(&s);
        let poisoned = fs::read_to_string(&path).unwrap().replace(CODE_SALT, "stale-salt");
        fs::write(&path, poisoned).unwrap();
        assert!(cache.load(&s).is_none(), "stale salt must miss");

        cache.store(&s, &r);
        let other = ScenarioSpec { base_seed: 9, ..s.clone() };
        assert!(cache.load(&other).is_none(), "different spec must miss");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = scratch("corrupt");
        let cache = Cache::new(&dir);
        let s = spec();
        fs::create_dir_all(&dir).unwrap();
        fs::write(cache.entry_path(&s), "{ not json").unwrap();
        assert!(cache.load(&s).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_flags() {
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        assert!(!CachePolicy::WriteOnly.reads() && CachePolicy::WriteOnly.writes());
        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
    }
}
