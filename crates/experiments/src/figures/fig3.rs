//! Figure 3: coefficient of variation of per-protocol throughput as a
//! function of the packet loss rate.
//!
//! The paper varies the loss probability by shrinking the bottleneck
//! bandwidth (32 TCP-PR + 32 TCP-SACK flows) and plots the CoV of each
//! protocol's normalized throughput for ten runs plus their means. The
//! reproduction criterion: TCP-PR's and TCP-SACK's CoV are of similar
//! magnitude at comparable loss rates.

/// One (loss rate, CoV) sample of Figure 3.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig3Point {
    /// Topology label.
    pub topology: String,
    /// Bottleneck scale applied (Mbps for the dumbbell, backbone Mbps for
    /// the parking lot).
    pub bandwidth_mbps: f64,
    /// Seed of this run.
    pub seed: u64,
    /// Measured loss rate (%) at the bottleneck(s).
    pub loss_rate_pct: f64,
    /// CoV of TCP-PR normalized throughput.
    pub cov_pr: f64,
    /// CoV of TCP-SACK normalized throughput.
    pub cov_sack: f64,
}

/// Renders the points as a text table sorted by loss rate.
pub fn format_table(points: &[Fig3Point]) -> String {
    let mut sorted: Vec<&Fig3Point> = points.iter().collect();
    sorted.sort_by(|a, b| a.loss_rate_pct.total_cmp(&b.loss_rate_pct));
    let mut s = String::from("Figure 3 — CoV vs loss rate\n");
    s.push_str("topology     | bw Mbps | loss % | CoV TCP-PR | CoV TCP-SACK\n");
    for p in sorted {
        s.push_str(&format!(
            "{:12} | {:7.2} | {:6.2} | {:10.3} | {:12.3}\n",
            p.topology, p.bandwidth_mbps, p.loss_rate_pct, p.cov_pr, p.cov_sack
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use serde::Value;

    use crate::sweep::grids::{assemble_fresh, fairness_spec};
    use crate::sweep::{PlanSpec, TopologySpec};

    /// Figure 3 on the dumbbell: 8 flows per bottleneck bandwidth and
    /// replicate, assembled as `repro fig3` assembles it.
    fn run(bandwidths: &[f64], replicates: &[u64]) -> (String, Vec<Value>) {
        let mut specs = Vec::new();
        for &bw in bandwidths {
            for &rep in replicates {
                let t = TopologySpec::Dumbbell { bottleneck_mbps: Some(bw) };
                specs.push(fairness_spec(t, 8, 0.995, 3.0, rep, PlanSpec::Quick));
            }
        }
        let (table, results) = assemble_fresh("fig3", &specs);
        let Value::Array(points) = results else { panic!("points array") };
        (table, points)
    }

    fn field(point: &Value, key: &str) -> f64 {
        point.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("numeric {key}"))
    }

    #[test]
    fn loss_increases_as_bandwidth_shrinks() {
        let (_, pts) = run(&[5.0, 1.0], &[3]);
        assert_eq!(pts.len(), 2);
        let (fast, slow) = (field(&pts[0], "loss_rate_pct"), field(&pts[1], "loss_rate_pct"));
        assert!(slow > fast, "1 Mbps ({slow}) must lose more than 5 Mbps ({fast})");
    }

    #[test]
    fn covs_are_finite_and_comparable() {
        let (table, pts) = run(&[2.0], &[3, 5]);
        for p in &pts {
            let (cov_pr, cov_sack) = (field(p, "cov_pr"), field(p, "cov_sack"));
            assert!(cov_pr.is_finite() && cov_sack.is_finite());
            assert!(cov_pr >= 0.0 && cov_sack >= 0.0);
        }
        assert!(table.contains("CoV"));
    }
}
