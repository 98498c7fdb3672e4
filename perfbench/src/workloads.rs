//! The benchmark workloads: fixed slices of the repository's own sweep
//! grids, re-seeded by the workload seed.

use experiments::sweep::{all_figures, ScenarioSpec};
use experiments::Variant;

/// The seed under which every scenario keeps the repository's own
/// `ScenarioSpec::sim_seed()`: the grids' base seed.
pub const DEFAULT_SEED: u64 = 0;

/// A named workload.
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// The sweep artifacts whose quick grids make up the workload, in order.
    pub artifacts: &'static [&'static str],
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 3] = [
    // The `repro bench-sweep` set: TCP-PR ablations on the congested
    // dumbbell and Figure 6 at 10 ms (6 variants × ε ∈ {0, 4, 500}).
    Workload { name: "sweep", artifacts: &["ablations", "fig6_10ms"] },
    // The quick stress grid: ten sender variants × four impairment
    // profiles on the 10 Mb/s dumbbell with on-off cross traffic.
    Workload { name: "stress", artifacts: &["stress"] },
    // The quick scale grid: four foreground variants × {200, 1000} churn
    // flows through a k = 4 fat-tree.
    Workload { name: "scale", artifacts: &["scale"] },
];

/// The sender variants the workloads run, each with its own
/// `algo.<Variant>.ns_per_call` metric.
pub const PER_VARIANT: [Variant; 12] = [
    Variant::TcpPr,
    Variant::TdFr,
    Variant::DsackNm,
    Variant::IncBy1,
    Variant::IncByN,
    Variant::Ewma,
    Variant::Sack,
    Variant::NewReno,
    Variant::Eifel,
    Variant::Door,
    Variant::Cubic,
    Variant::Bbr,
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's scenarios under `seed`: the quick grids of its
    /// artifacts with `seed` as their base seed, so each scenario's sim
    /// seed is `content_hash(spec) ^ seed`.
    pub fn specs(&self, seed: u64) -> Vec<ScenarioSpec> {
        all_figures(true, false)
            .into_iter()
            .filter(|g| self.artifacts.contains(&g.artifact))
            .flat_map(|g| g.specs)
            .map(|spec| ScenarioSpec { base_seed: seed, ..spec })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| w.specs(DEFAULT_SEED).len()).collect();
        assert_eq!(sizes, [22, 40, 8]);
    }

    #[test]
    fn default_seed_keeps_the_repository_seeds() {
        for w in &WORKLOADS {
            let grid: Vec<ScenarioSpec> = all_figures(true, false)
                .into_iter()
                .filter(|g| w.artifacts.contains(&g.artifact))
                .flat_map(|g| g.specs)
                .collect();
            let ours = w.specs(DEFAULT_SEED);
            let same = grid.iter().zip(&ours).all(|(a, b)| a.sim_seed() == b.sim_seed());
            assert!(same, "{}: default seed must not move any sim seed", w.name);
            let moved = w.specs(7);
            assert!(ours.iter().zip(&moved).all(|(a, b)| a.sim_seed() != b.sim_seed()));
        }
    }
}
