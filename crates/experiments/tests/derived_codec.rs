//! The derived `serde::Deserialize` of every type the sweep cache and the
//! figure assemblers read back: each must rebuild exactly what its
//! `Serialize` rendered, through the value tree and through JSON text (the
//! cache's on-disk trip, where integral floats come back as integers), and
//! must reject values of the wrong shape.

use experiments::ablations::{Ablation, AblationResult};
use experiments::figures::fairness::FairnessResult;
use experiments::figures::fig6::Fig6Point;
use experiments::hunt::HuntCellResult;
use experiments::manet::ChurnResult;
use experiments::routeflap::RouteFlapResult;
use experiments::scale::ScaleResult;
use experiments::stress::StressResult;
use experiments::Variant;
use netsim::telemetry::SessionStats;
use serde::{Deserialize, Serialize, Value};

/// Decodes `x`'s value tree and its JSON text, checks both re-render to the
/// same bytes, and returns the copy decoded from text.
fn roundtrip<T: Serialize + Deserialize>(x: &T) -> T {
    let v = x.to_value();
    let from_value = T::from_value(&v).expect("decodes from its own value tree");
    assert_eq!(from_value.to_value(), v);

    let text = serde_json::to_string_pretty(&v).unwrap();
    let reparsed = serde_json::from_str(&text).unwrap();
    let from_text = T::from_value(&reparsed).expect("decodes after a print-parse trip");
    assert_eq!(serde_json::to_string_pretty(&from_text).unwrap(), text);
    from_text
}

/// `x`'s value tree with field `key` replaced by `with` (or removed).
fn edited<T: Serialize>(x: &T, key: &str, with: Option<Value>) -> Value {
    let Value::Object(mut entries) = x.to_value() else { panic!("named-field struct") };
    let at = entries.iter().position(|(k, _)| k == key).expect("field exists");
    match with {
        Some(v) => entries[at].1 = v,
        None => {
            entries.remove(at);
        }
    }
    Value::Object(entries)
}

fn fairness() -> FairnessResult {
    FairnessResult {
        topology: "dumbbell".to_owned(),
        n_flows: 4,
        pr_normalized: vec![0.9, 1.0],
        sack_normalized: vec![1.1, 1.0],
        mean_pr: 0.95,
        mean_sack: 1.05,
        cov_pr: 0.05,
        cov_sack: 0.04,
        loss_rate_pct: 0.5,
    }
}

fn fig6_point() -> Fig6Point {
    Fig6Point {
        variant: Variant::TdFr,
        epsilon: 4.0,
        link_delay_ms: 60,
        mbps: 12.5,
        retransmits: 7,
        segments_sent: 1000,
        late_arrivals: 250,
        queue_drops: 3,
    }
}

#[test]
fn fairness_result_roundtrips_through_value_and_text() {
    let r = fairness();
    let decoded = roundtrip(&r);
    assert_eq!(decoded.pr_normalized, r.pr_normalized);
    assert_eq!(decoded.mean_sack, r.mean_sack);
    assert_eq!(decoded.n_flows, r.n_flows);
}

#[test]
fn fig6_point_roundtrips() {
    let decoded = roundtrip(&fig6_point());
    assert_eq!(decoded.variant, Variant::TdFr);
    // `4.0` prints as `4` and parses back as an integer.
    assert_eq!(decoded.epsilon, 4.0);
}

#[test]
fn routeflap_and_churn_results_roundtrip() {
    let r = RouteFlapResult {
        variant: Variant::Door,
        mbps: 3.5,
        late_arrivals: 42,
        mean_displacement: 1.25,
        retransmits: 9,
    };
    assert_eq!(roundtrip(&r).mean_displacement, r.mean_displacement);
    let c = ChurnResult {
        variant: Variant::Eifel,
        mbps: 2.0,
        route_changes: 17,
        late_arrivals: 5,
        retransmits: 11,
    };
    assert_eq!(roundtrip(&c).route_changes, c.route_changes);
}

#[test]
fn ablation_result_roundtrips_for_every_ablation() {
    for ablation in Ablation::ALL {
        let r = AblationResult {
            ablation,
            mbps: 10.0,
            window_halvings: 3,
            extreme_loss_events: 1,
            retransmits: 4,
        };
        assert_eq!(roundtrip(&r).ablation, ablation);
    }
}

#[test]
fn stress_result_roundtrips() {
    let r = StressResult {
        variant: Variant::Sack,
        profile: "burst-loss+jitter".to_owned(),
        mbps: 4.25,
        retransmits: 31,
        segments_sent: 9000,
        late_arrivals: 120,
        receiver_duplicates: 8,
        impair_drops: 77,
        impair_dups: 9,
        reorder_displacements: 210,
        link_flaps: 5,
    };
    let decoded = roundtrip(&r);
    assert_eq!(decoded.profile, r.profile);
    assert_eq!(decoded.impair_drops, r.impair_drops);
}

#[test]
fn hunt_cell_result_roundtrips() {
    let r = HuntCellResult {
        variant: Variant::TcpPr,
        profile: "burst-loss+down".to_owned(),
        mbps: 1.75,
        rival_mbps: 6.0,
        jain: 0.62,
        retransmits: 45,
        impair_drops: 112,
        link_flaps: 2,
        oracle_violations: 0,
        time_regressions: 0,
    };
    let decoded = roundtrip(&r);
    assert_eq!(decoded.profile, r.profile);
    assert_eq!(decoded.jain, r.jain);
}

#[test]
fn scale_result_roundtrips() {
    let r = ScaleResult {
        variant: Variant::Bbr,
        topology: "fat-tree-k4".to_owned(),
        target_flows: 10_000,
        peak_flows: 10_250,
        arrivals: 14_000,
        completions: 9_000,
        jain: 0.81,
        goodput_cov: 0.48,
        p99_fct_ms: 5_120.0,
        mean_fct_ms: 640.5,
        foreground_mbps: 3.25,
        delivered_mbps: 62.5,
        bytes_per_flow: 96,
    };
    let decoded = roundtrip(&r);
    assert_eq!(decoded.topology, r.topology);
    assert_eq!(decoded.bytes_per_flow, r.bytes_per_flow);
    assert_eq!(decoded.jain, r.jain);
}

#[test]
fn session_stats_roundtrip() {
    let s = SessionStats {
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
    };
    assert_eq!(roundtrip(&s), s);
}

#[test]
fn unit_enums_decode_every_variant_by_name() {
    for v in Variant::ALL {
        assert_eq!(roundtrip(&v), v);
        assert_eq!(Variant::from_value(&Value::Str(format!("{v:?}"))), Some(v));
    }
    for a in Ablation::ALL {
        assert_eq!(roundtrip(&a), a);
    }
}

#[test]
fn decoders_reject_wrong_shapes() {
    assert!(FairnessResult::from_value(&Value::Null).is_none());
    assert!(Fig6Point::from_value(&Value::Object(vec![(
        "variant".into(),
        Value::Str("NotAVariant".into())
    )]))
    .is_none());
    assert!(Value::Int(-1).as_u64().is_none());
}

#[test]
fn a_missing_field_is_rejected() {
    let v = edited(&fig6_point(), "queue_drops", None);
    assert!(Fig6Point::from_value(&v).is_none());
}

#[test]
fn a_negative_integer_is_rejected_for_an_unsigned_field() {
    let v = edited(&fig6_point(), "retransmits", Some(Value::Int(-1)));
    assert!(Fig6Point::from_value(&v).is_none());
    assert_eq!(u64::from_value(&Value::Int(-1)), None);
    assert_eq!(u32::from_value(&Value::UInt(u64::from(u32::MAX) + 1)), None);
}

#[test]
fn an_unknown_variant_name_is_rejected() {
    let v = edited(&fig6_point(), "variant", Some(Value::Str("TcpPR".into())));
    assert!(Fig6Point::from_value(&v).is_none());
    assert_eq!(Variant::from_value(&Value::Str("NotAVariant".into())), None);
    assert_eq!(Ablation::from_value(&Value::Str("NoSuchAblation".into())), None);
    // The paper-legend label is not the serialized name.
    assert_eq!(Variant::from_value(&Value::Str("TCP-PR".into())), None);
}

#[test]
fn null_is_rejected_for_a_float_field() {
    // A non-finite float prints as `null`; it must not decode as a number.
    let v = edited(&fig6_point(), "mbps", Some(Value::Null));
    assert!(Fig6Point::from_value(&v).is_none());
    let text = serde_json::to_string(&edited(&fairness(), "mean_pr", Some(Value::Float(f64::NAN))))
        .unwrap();
    assert!(FairnessResult::from_value(&serde_json::from_str(&text).unwrap()).is_none());
}
