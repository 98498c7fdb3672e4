//! Factory for every TCP variant under test, so harnesses can sweep
//! protocols uniformly.

use baselines::door::{DoorConfig, DoorSender};
use baselines::dsack::{DsackSender, DupthreshResponse};
use baselines::eifel::EifelSender;
use baselines::reno::{RenoConfig, RenoSender};
use baselines::sack::{SackConfig, SackSender};
use baselines::tdfr::{TdFrConfig, TdFrSender};
use cc::bbr::{BbrConfig, BbrSender};
use cc::cubic::{CubicConfig, CubicSender};
use tcp_pr::{TcpPrConfig, TcpPrSender};
use transport::sender::TcpSenderAlgo;

/// Every sender variant exercised by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Variant {
    /// TCP-PR with paper-default parameters (α = 0.995, β = 3).
    TcpPr,
    /// Time-delayed fast recovery.
    TdFr,
    /// DSACK with congestion-state restoration only.
    DsackNm,
    /// DSACK, dupthresh += 1 per spurious retransmission.
    IncBy1,
    /// DSACK, dupthresh averaged with the episode's DUPACK count.
    IncByN,
    /// DSACK, EWMA of episode DUPACK counts.
    Ewma,
    /// TCP SACK.
    Sack,
    /// TCP NewReno.
    NewReno,
    /// TCP Reno.
    Reno,
    /// Eifel (timestamp-based spurious-retransmit undo) — extension.
    Eifel,
    /// TCP-DOOR (out-of-order detection and response) — extension.
    Door,
    /// CUBIC (RFC 8312) — modern comparator.
    Cubic,
    /// BBR v1 (rate-based model, paced) — modern comparator.
    Bbr,
}

impl Variant {
    /// The six protocols of the paper's Figure 6, in legend order.
    pub const FIGURE6: [Variant; 6] = [
        Variant::TcpPr,
        Variant::TdFr,
        Variant::DsackNm,
        Variant::IncBy1,
        Variant::IncByN,
        Variant::Ewma,
    ];

    /// All variants, including extensions and modern comparators.
    pub const ALL: [Variant; 13] = [
        Variant::TcpPr,
        Variant::TdFr,
        Variant::DsackNm,
        Variant::IncBy1,
        Variant::IncByN,
        Variant::Ewma,
        Variant::Sack,
        Variant::NewReno,
        Variant::Reno,
        Variant::Eifel,
        Variant::Door,
        Variant::Cubic,
        Variant::Bbr,
    ];

    /// The inverse of [`Variant::label`]: resolves a variant from its paper
    /// legend name (`"TCP-PR"`, `"BBR"`, …). Used by `repro explain` when
    /// rehydrating counterexample docs, which store labels.
    pub fn from_label(label: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.label() == label)
    }

    /// Display label (matches the paper's figure legends where applicable).
    pub fn label(self) -> &'static str {
        match self {
            Variant::TcpPr => "TCP-PR",
            Variant::TdFr => "TD-FR",
            Variant::DsackNm => "DSACK-NM",
            Variant::IncBy1 => "Inc by 1",
            Variant::IncByN => "Inc by N",
            Variant::Ewma => "EWMA",
            Variant::Sack => "TCP-SACK",
            Variant::NewReno => "TCP-NewReno",
            Variant::Reno => "TCP-Reno",
            Variant::Eifel => "Eifel",
            Variant::Door => "TCP-DOOR",
            Variant::Cubic => "CUBIC",
            Variant::Bbr => "BBR",
        }
    }

    /// Builds a sender for this variant with default parameters
    /// (effectively unbounded window).
    pub fn build(self) -> Box<dyn TcpSenderAlgo> {
        self.build_with(TcpPrConfig::default(), 10_000.0)
    }

    /// Builds a sender with an explicit receiver-window cap (ns-2's
    /// `window_`) and TCP-PR parameter overrides (used by the Figure 4 α/β
    /// sweep; other variants ignore the PR config).
    pub fn build_with(self, pr: TcpPrConfig, max_cwnd: f64) -> Box<dyn TcpSenderAlgo> {
        let pr = TcpPrConfig { max_cwnd, ..pr };
        let reno = RenoConfig { max_cwnd, ..RenoConfig::default() };
        match self {
            Variant::TcpPr => Box::new(TcpPrSender::new(pr)),
            Variant::TdFr => {
                Box::new(TdFrSender::new(TdFrConfig { max_cwnd, ..TdFrConfig::default() }))
            }
            Variant::DsackNm => Box::new(DsackSender::new(reno, DupthreshResponse::NoMovement)),
            Variant::IncBy1 => Box::new(DsackSender::new(reno, DupthreshResponse::IncrementBy(1))),
            Variant::IncByN => {
                Box::new(DsackSender::new(reno, DupthreshResponse::AverageWithEpisode))
            }
            Variant::Ewma => {
                Box::new(DsackSender::new(reno, DupthreshResponse::Ewma { gain: 0.25 }))
            }
            Variant::Sack => {
                Box::new(SackSender::new(SackConfig { max_cwnd, ..SackConfig::default() }))
            }
            Variant::NewReno => Box::new(RenoSender::new(reno)),
            Variant::Reno => Box::new(RenoSender::new(RenoConfig { newreno: false, ..reno })),
            Variant::Eifel => Box::new(EifelSender::new(reno)),
            Variant::Door => {
                Box::new(DoorSender::new(DoorConfig { base: reno, ..DoorConfig::default() }))
            }
            Variant::Cubic => {
                Box::new(CubicSender::new(CubicConfig { max_cwnd, ..CubicConfig::default() }))
            }
            Variant::Bbr => {
                Box::new(BbrSender::new(BbrConfig { max_cwnd, ..BbrConfig::default() }))
            }
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_builds() {
        for v in Variant::ALL {
            let s = v.build();
            // Loss-based variants start at cwnd = 1; BBR opens with its
            // 4-segment initial window.
            let expected = if v == Variant::Bbr { 4.0 } else { 1.0 };
            assert_eq!(s.cwnd(), expected, "{v} must start with cwnd = {expected}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Variant::ALL.iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Variant::ALL.len());
    }

    #[test]
    fn figure6_has_paper_legend() {
        let labels: Vec<&str> = Variant::FIGURE6.iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["TCP-PR", "TD-FR", "DSACK-NM", "Inc by 1", "Inc by N", "EWMA"]);
    }
}
