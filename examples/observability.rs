//! Observability demo: per-job span trees and a Prometheus metrics
//! scrape, in-process and over the wire.
//!
//! Runs the full loop twice. In-process: a traced [`Submission`]
//! through the async queue, walking the finished [`SpanTree`] and
//! writing a Chrome `trace_event` export (open it in
//! `chrome://tracing` or Perfetto). Over the wire: `submit` with
//! `trace: true` against a loopback TCP server, printing the span tree
//! that rides the result frame, then a `metrics` scrape — the server's
//! queue families, then its compile service's (one series per shard),
//! then the server's own — in Prometheus text exposition format. The
//! scrape is checked, not only printed: every line must be a comment or
//! `name value`, each family must be declared once, all three parts
//! must be present and the compile must show up on its shard, so the
//! example fails if the renderers stop merging cleanly.
//!
//! ```console
//! $ cargo run --release --example observability
//! ```

use fastsc::compiler::batch::CompileJob;
use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::ir::qasm::to_qasm;
use fastsc::queue::{Priority, QueueService, Submission};
use fastsc::server::{Client, Json, Server, TenantConfig};
use fastsc::service::{CompileService, Composite, ShardSpec};
use fastsc::telemetry::SpanNode;
use fastsc::workloads::Benchmark;

/// Prints one span and its children as an indented tree with durations
/// and attributes.
fn print_span(node: &SpanNode, depth: usize) {
    let micros = node.duration().as_nanos() as f64 / 1_000.0;
    let attrs: Vec<String> = node.attrs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!(
        "{:indent$}{:<12} {micros:>9.1} µs  {}",
        "",
        node.name,
        attrs.join(" "),
        indent = depth * 2
    );
    for child in &node.children {
        print_span(child, depth + 1);
    }
}

/// Prints a wire-format span tree (nested JSON objects).
fn print_wire_span(node: &Json, depth: usize) {
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let dur = node.get("dur_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1_000.0;
    println!("{:indent$}{name:<12} {dur:>9.1} µs", "", indent = depth * 2);
    if let Some(Json::Arr(children)) = node.get("children") {
        for child in children {
            print_wire_span(child, depth + 1);
        }
    }
}

fn fleet() -> CompileService {
    let service = CompileService::new(Composite::capacity_aware());
    for device in [Device::grid(3, 3, 7), Device::grid(4, 4, 23)] {
        service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("device frequency plan solves");
    }
    service
}

fn main() {
    // ---- In-process: a traced submission through the queue. ----
    let queue = QueueService::with_defaults(fleet());
    let program = Benchmark::Xeb(9, 4).build(42);
    let submission = Submission::new(CompileJob::new(program, Strategy::ColorDynamic))
        .priority(Priority::Interactive)
        .traced();
    let handle = queue.submit(submission).expect("admitted");
    let id = handle.id();
    handle.wait().expect("compiles");
    let tree = queue.take_trace(id).expect("traced job parks its tree");

    println!("== span tree (in-process) ==");
    print_span(tree.root().expect("one root"), 0);

    // The same tree as Chrome trace_event JSON: save it and load the
    // file in chrome://tracing or ui.perfetto.dev for a flame chart.
    let chrome = tree.to_chrome_trace();
    let out = std::env::temp_dir().join("fastsc_trace.json");
    std::fs::write(&out, &chrome).expect("trace file writes");
    println!("\nchrome trace ({} bytes) -> {}", chrome.len(), out.display());
    drop(queue);

    // ---- Over the wire: trace + metrics against a TCP server. ----
    let tenants = vec![TenantConfig::generous("ops-token", "ops", 1)];
    let mut server =
        Server::start(QueueService::with_defaults(fleet()), tenants).expect("loopback bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.hello("ops-token").expect("token authenticates");

    let qasm = to_qasm(&Benchmark::Qaoa(8).build(7));
    let job =
        client.submit_traced(&qasm, "ColorDynamic", "interactive", None).expect("submits");
    let outcome = client.wait(job, 30_000).expect("wait").expect("finishes");
    println!("\n== span tree (over the wire, job {job}) ==");
    print_wire_span(outcome.trace.as_ref().expect("traced frame carries the tree"), 0);

    // One Prometheus scrape: this server's queue, its fleet, itself.
    let text = client.metrics_text().expect("metrics scrape");
    let mut families = Vec::new();
    for line in text.lines() {
        assert!(line.starts_with('#') || line.split(' ').count() == 2, "bad line: {line}");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().expect("a TYPE line names its family");
            assert!(!families.contains(&name), "family {name} declared twice");
            families.push(name);
        }
    }
    for family in [
        "fastsc_queue_depth",
        "fastsc_queue_jobs_total",
        "fastsc_queue_wait_seconds",
        "fastsc_compile_duration_seconds",
        "fastsc_server_connections_total",
    ] {
        assert!(families.contains(&family), "scrape is missing {family}");
    }
    assert!(
        text.lines().any(|line| {
            line.starts_with("fastsc_compile_duration_seconds_count{shard=\"")
                && line.contains("strategy=\"color_dynamic\"")
        }),
        "the compile is missing from its shard's series"
    );
    println!("\n== prometheus exposition ({} lines) ==", text.lines().count());
    for family in &families {
        println!("{family}");
    }
    server.shutdown();
}
