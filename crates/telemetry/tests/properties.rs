//! Property-based tests for span-tree well-formedness.
//!
//! A finished trace must be consumable by exporters without any
//! defensive checks, so the assembled [`SpanTree`] carries structural
//! guarantees: exactly one root when all spans attach under one job
//! span, children properly nested inside their parent's interval,
//! siblings non-overlapping in start order, and every interval
//! monotone (`start_ns <= end_ns`). These tests drive the real RAII /
//! retroactive recording API with randomized nesting scripts — not
//! hand-assembled records — so the guarantees hold for the API as the
//! queue, router, and engine actually use it.
//!
//! The JSON codec both span exports encode through is checked here too:
//! every value it can build survives `encode` then `parse`.

use std::time::Instant;

use fastsc_telemetry::json::{self, Json};
use fastsc_telemetry::{AttrValue, SpanId, SpanNode, Tracer};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Phase names drawn from the real span vocabulary (span names are
/// `&'static str` by design, so scripts pick from a fixed pool).
const NAMES: [&str; 5] = ["compile", "smt", "coloring", "partition", "respond"];

const MAX_DEPTH: usize = 5;

/// Interprets a nesting script under `parent`, driving the tracer the
/// way real call sites do: RAII guards for in-scope phases, with the
/// guard dropped before the next sibling opens, plus retroactive
/// [`Tracer::record`] calls for after-the-fact intervals. Returns the
/// number of spans created.
fn run_script(
    tracer: &Tracer,
    parent: SpanId,
    ops: &mut std::slice::Iter<'_, u8>,
    depth: usize,
) -> usize {
    let mut created = 0;
    while let Some(&op) = ops.next() {
        match op {
            // Open a nested child and hand the rest of the script to it.
            0 if depth < MAX_DEPTH => {
                let guard = tracer.span(NAMES[depth % NAMES.len()], Some(parent));
                created += 1 + run_script(tracer, guard.id(), ops, depth + 1);
            }
            // Close the current level.
            1 => return created,
            // Record a retroactive leaf (the queue-wait pattern).
            2 => {
                let start = Instant::now();
                tracer.record(
                    "queue_wait",
                    Some(parent),
                    start,
                    Instant::now(),
                    vec![("depth", AttrValue::U64(depth as u64))],
                );
                created += 1;
            }
            // An attributed RAII leaf, closed immediately.
            _ => {
                let mut leaf = tracer.span("leaf", Some(parent));
                leaf.attr("depth", depth);
                created += 1;
            }
        }
    }
    created
}

/// Recursive well-formedness: monotone intervals, children inside the
/// parent, siblings ordered by start and non-overlapping.
fn assert_well_formed(node: &SpanNode) {
    assert!(node.start_ns <= node.end_ns, "{}: interval runs backwards", node.name);
    let mut prev_end = node.start_ns;
    for child in &node.children {
        assert!(
            child.start_ns >= node.start_ns && child.end_ns <= node.end_ns,
            "child {} escapes parent {}",
            child.name,
            node.name
        );
        assert!(child.start_ns >= prev_end, "siblings overlap before {}", child.name);
        prev_end = child.end_ns;
        assert_well_formed(child);
    }
}

proptest! {
    #[test]
    fn random_nesting_scripts_build_well_formed_trees(
        ops in proptest::collection::vec(0u8..4, 0..60),
    ) {
        let tracer = Tracer::new();
        let mut root = tracer.span("job", None);
        root.attr("qubits", 4usize);
        let created = run_script(&tracer, root.id(), &mut ops.iter(), 1);
        drop(root);
        let tree = tracer.finish();

        // Exactly one root: everything attached under the job span.
        prop_assert_eq!(tree.roots.len(), 1);
        let root = tree.root().expect("one root");
        prop_assert_eq!(root.name, "job");
        // Nothing recorded is lost and nothing is invented.
        prop_assert_eq!(tree.span_count(), created + 1);
        assert_well_formed(root);
    }

    #[test]
    fn chrome_export_emits_one_complete_event_per_span(
        ops in proptest::collection::vec(0u8..4, 0..40),
    ) {
        let tracer = Tracer::new();
        let root = tracer.span("job", None);
        run_script(&tracer, root.id(), &mut ops.iter(), 1);
        drop(root);
        let tree = tracer.finish();

        let chrome = tree.to_chrome_trace();
        prop_assert!(chrome.starts_with("{\"traceEvents\":["));
        prop_assert!(chrome.ends_with("]}"));
        // Every span becomes exactly one complete ("X") event.
        let events = chrome.matches("\"ph\":\"X\"").count();
        prop_assert_eq!(events, tree.span_count());

        // The export parses, and its pre-order events agree with the
        // wire tree node for node on name, duration and attributes.
        let parsed = Json::parse(&chrome).expect("chrome export is valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let wire = tree.to_json();
        let mut nodes = Vec::new();
        preorder(&wire, &mut nodes);
        prop_assert_eq!(events.len(), nodes.len());
        for (event, node) in events.iter().zip(nodes) {
            prop_assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            prop_assert_eq!(event.get("name"), node.get("name"));
            let dur_ns = node.get("dur_ns").and_then(Json::as_f64).expect("dur_ns");
            prop_assert_eq!(event.get("dur").and_then(Json::as_f64), Some(dur_ns / 1_000.0));
            prop_assert_eq!(event.get("args"), node.get("attrs"));
        }
    }

    #[test]
    fn json_values_round_trip_through_encode_and_parse(
        value in (0..=json::MAX_DEPTH).prop_flat_map(|depth| Nested { depth }),
        deepest in Nested { depth: json::MAX_DEPTH },
        too_deep in Nested { depth: json::MAX_DEPTH + 1 },
    ) {
        for v in [value, deepest] {
            prop_assert_eq!(Json::parse(&v.encode()), Ok(v.clone()));
        }
        let err = Json::parse(&too_deep.encode()).expect_err("one level past MAX_DEPTH");
        prop_assert!(err.message.contains("nesting"), "{}", err);
    }
}

/// The wire tree's nodes in pre-order (each node, then its children).
fn preorder<'a>(node: &'a Json, out: &mut Vec<&'a Json>) {
    out.push(node);
    for child in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        preorder(child, out);
    }
}

/// A JSON value whose innermost scalar sits inside exactly `depth`
/// arrays and objects, each level holding a few shallow siblings
/// (scalars and empty containers, which nest no deeper).
struct Nested {
    depth: usize,
}

impl Strategy for Nested {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let mut value = scalar(rng);
        for _ in 0..self.depth {
            let mut items: Vec<Json> = (0..(0usize..3).generate(rng))
                .map(|_| match (0u8..6).generate(rng) {
                    0 => Json::Arr(Vec::new()),
                    1 => Json::Obj(Vec::new()),
                    _ => scalar(rng),
                })
                .collect();
            items.insert((0..=items.len()).generate(rng), value);
            value = if any::<bool>().generate(rng) {
                Json::Arr(items)
            } else {
                Json::Obj(items.into_iter().map(|v| (string(rng), v)).collect())
            };
        }
        value
    }
}

fn scalar(rng: &mut TestRng) -> Json {
    match (0u8..5).generate(rng) {
        0 => Json::Null,
        1 => Json::Bool(any::<bool>().generate(rng)),
        // Any finite double, from raw bits: subnormals, huge exponents,
        // negative zero.
        2 => Json::Num(
            Some(f64::from_bits(any::<u64>().generate(rng)))
                .filter(|x| x.is_finite())
                .unwrap_or(0.0),
        ),
        3 => Json::Num((-1_000i64..1_000).generate(rng) as f64),
        _ => Json::Str(string(rng)),
    }
}

/// Up to a dozen characters, drawn to stress the escaper: quotes,
/// backslashes, every control character, BMP and non-BMP code points.
fn string(rng: &mut TestRng) -> String {
    (0..(0usize..12).generate(rng))
        .map(|_| {
            let code = match (0u8..5).generate(rng) {
                0 => (0x20u32..0x7f).generate(rng),
                1 => (0u32..0x20).generate(rng),
                2 => {
                    [u32::from('"'), u32::from('\\'), u32::from('/')][(0usize..3).generate(rng)]
                }
                3 => (0x80u32..0xd800).generate(rng),
                _ => (0x1_0000u32..0x11_0000).generate(rng),
            };
            char::from_u32(code).expect("ranges exclude surrogates")
        })
        .collect()
}

#[test]
fn retroactive_spans_clamp_to_a_monotone_interval() {
    let tracer = Tracer::new();
    let late = Instant::now();
    let root = tracer.span("job", None);
    // end < start: the record clamps rather than going backwards.
    tracer.record("queue_wait", Some(root.id()), Instant::now(), late, Vec::new());
    drop(root);
    let tree = tracer.finish();
    assert_well_formed(tree.root().expect("root"));
}
