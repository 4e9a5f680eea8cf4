//! The Chrome `trace_event` export must be real JSON — not merely
//! Perfetto-tolerated JSON — so these tests round-trip
//! [`SpanTree::to_chrome_trace`] through [`Json::parse`], the strict
//! parser of the same codec that encodes the export.

use fastsc_telemetry::{AttrValue, Json, Tracer};
use proptest::prelude::*;

/// Characters chosen to stress the escaper: every mandatory JSON
/// escape, a raw control character, and multi-byte unicode.
const NASTY: [char; 12] =
    ['a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'µ', '→', '😀'];

fn nasty_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(NASTY.to_vec()), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Parses a Chrome export and returns its `traceEvents` array.
fn events(chrome: &str) -> Vec<Json> {
    let parsed = Json::parse(chrome).expect("chrome export is valid JSON");
    match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => events.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    }
}

proptest! {
    #[test]
    fn exports_round_trip_through_the_wire_parser(
        label in nasty_string(),
        count in 1usize..6,
        flag in proptest::arbitrary::any::<bool>(),
        // JSON numbers are f64: only integers up to 2^53 round-trip
        // exactly (the parser refuses to lie about bigger ones).
        value in 0u64..(1 << 53),
    ) {
        let tracer = Tracer::new();
        let mut root = tracer.span("job", None);
        // Span names are static, so adversarial text enters through
        // string attributes — the only user-influenced strings.
        root.attr("label", label.clone());
        root.attr("ok", flag);
        root.attr("count", value);
        for _ in 0..count {
            let mut child = tracer.span("attempt", Some(root.id()));
            child.attr("note", label.clone());
        }
        drop(root);
        let tree = tracer.finish();

        let events = events(&tree.to_chrome_trace());
        prop_assert_eq!(events.len(), tree.span_count());
        for event in &events {
            // Complete events with the mandatory trace_event fields.
            prop_assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            prop_assert!(event.get("name").and_then(Json::as_str).is_some());
            prop_assert!(event.get("ts").and_then(Json::as_f64).is_some());
            prop_assert!(event.get("dur").and_then(Json::as_f64).is_some());
        }
        // The adversarial attribute survives escaping byte-for-byte.
        let root_event = &events[0];
        let args = root_event.get("args").expect("root args");
        prop_assert_eq!(args.get("label").and_then(Json::as_str), Some(label.as_str()));
        prop_assert_eq!(args.get("ok").and_then(Json::as_bool), Some(flag));
        prop_assert_eq!(args.get("count").and_then(Json::as_u64), Some(value));
    }
}

#[test]
fn non_finite_floats_export_as_null() {
    let tracer = Tracer::new();
    let mut root = tracer.span("job", None);
    root.attr("backoff_ms", f64::NAN);
    root.attr("ratio", f64::INFINITY);
    root.attr("fine", 0.25f64);
    drop(root);
    let tree = tracer.finish();

    let events = events(&tree.to_chrome_trace());
    let args = events[0].get("args").expect("args");
    assert!(matches!(args.get("backoff_ms"), Some(Json::Null)));
    assert!(matches!(args.get("ratio"), Some(Json::Null)));
    assert_eq!(args.get("fine").and_then(Json::as_f64), Some(0.25));
}

#[test]
fn empty_trees_export_as_an_empty_event_array() {
    let tracer = Tracer::new();
    let tree = tracer.finish();
    assert!(events(&tree.to_chrome_trace()).is_empty());
}

#[test]
fn attr_value_kinds_map_to_their_json_counterparts() {
    let tracer = Tracer::new();
    let mut root = tracer.span("job", None);
    root.attr("policy", "capacity_aware");
    root.attr("shard", 3usize);
    root.attr("cache_hit", true);
    root.attr("backoff_ms", 1.5f64);
    drop(root);
    let tree = tracer.finish();

    let events = events(&tree.to_chrome_trace());
    let args = events[0].get("args").expect("args");
    assert_eq!(args.get("policy").and_then(Json::as_str), Some("capacity_aware"));
    assert_eq!(args.get("shard").and_then(Json::as_u64), Some(3));
    assert_eq!(args.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(args.get("backoff_ms").and_then(Json::as_f64), Some(1.5));
    // AttrValue's own accessors agree with what went over the wire.
    let root = tree.root().expect("root");
    assert!(matches!(root.attr("policy"), Some(AttrValue::Str(s)) if s == "capacity_aware"));
}
