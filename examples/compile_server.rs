//! Network serving demo: a loopback TCP compile server and two tenant
//! clients in one process. One tenant submits QASM programs (including
//! a malformed one, to show the structured error frames), subscribes to
//! its completion stream, and pulls a telemetry snapshot; a second
//! tenant with a deliberately tiny quota shows admission control.
//!
//! ```console
//! $ cargo run --release --example compile_server
//! ```

use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::ir::qasm::to_qasm;
use fastsc::queue::QueueService;
use fastsc::server::{Client, ClientError, Server, TenantConfig};
use fastsc::service::{CompileService, Composite, ShardSpec};
use fastsc::workloads::Benchmark;
use std::time::Duration;

fn main() {
    // A two-device fleet behind the async queue — exactly the stack the
    // earlier examples build — now fronted by a TCP wire protocol.
    let service = CompileService::new(Composite::capacity_aware());
    for device in [Device::grid(3, 3, 7), Device::grid(4, 4, 23)] {
        service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("device frequency plan solves");
    }
    let tenants = vec![
        TenantConfig::generous("alice-token", "alice", 1),
        // Bob gets one in-flight job and no refill: the second submit
        // in a burst bounces with a structured error.
        TenantConfig {
            token: "bob-token".to_owned(),
            name: "bob".to_owned(),
            client: 2,
            max_inflight: 1,
            rate_per_sec: 0.0,
            burst: 2,
        },
    ];
    let mut server =
        Server::start(QueueService::with_defaults(service), tenants).expect("loopback bind");
    println!("serving on {}", server.addr());

    // Alice: authenticate, subscribe to completions, submit real work.
    let mut alice = Client::connect(server.addr()).expect("connect");
    let name = alice.hello("alice-token").expect("token authenticates");
    println!("authenticated as {name}");
    alice.subscribe().expect("subscription registers");

    let programs = [
        Benchmark::Xeb(9, 4).build(42),
        Benchmark::Qaoa(8).build(7),
        Benchmark::Bv(6).build(1),
    ];
    for (program, strategy) in programs.iter().zip(Strategy::all()) {
        let qasm = to_qasm(program);
        let job = alice
            .submit(&qasm, &strategy.to_string(), "interactive", Some(30_000))
            .expect("submission admitted");
        let outcome = alice.wait(job, 60_000).expect("wait answers").expect("job resolves");
        println!(
            "job {job} ({strategy}): shard {} depth {} schedule hash {:016x}",
            outcome.shard.expect("compiled jobs carry a shard"),
            outcome.depth.expect("compiled jobs carry a depth"),
            outcome.schedule_hash.expect("compiled jobs carry a hash"),
        );
    }

    // Malformed QASM: the server answers with a typed, located error
    // frame and the connection stays usable.
    let bad = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nwarp q[0];\n";
    match alice.submit(bad, "ColorDynamic", "batch", None) {
        Err(ClientError::Server { code, message, line, column, token, .. }) => println!(
            "malformed submit rejected [{code}] line {:?} column {:?} token {:?}: {message}",
            line, column, token
        ),
        other => println!("unexpected reply to malformed submit: {other:?}"),
    }
    alice.ping().expect("connection survived the bad program");

    // The subscription streamed every completion while we waited.
    let mut streamed = 0;
    while let Ok(Some(event)) = alice.next_event(Duration::from_millis(200)) {
        if event.get("type").and_then(fastsc::server::Json::as_str) == Some("completion") {
            streamed += 1;
        }
    }
    println!("subscription streamed {streamed} completion frames");

    // One telemetry snapshot: per-shard state plus queue counters.
    let frames = alice.telemetry(1, 100).expect("telemetry streams");
    for frame in &frames {
        if let Some(shards) = frame.get("shards").and_then(fastsc::server::Json::as_array) {
            println!("telemetry: {} shards reporting", shards.len());
        }
    }

    // Bob: quota of one in-flight job, so a two-submit burst loses the
    // second to admission control with a retryable error. Pausing the
    // dispatcher keeps the first job in flight for the demo.
    let mut bob = Client::connect(server.addr()).expect("connect");
    bob.hello("bob-token").expect("token authenticates");
    let qasm = to_qasm(&Benchmark::Xeb(9, 6).build(3));
    server.queue().pause();
    let first = bob.submit(&qasm, "BaselineN", "batch", None).expect("first fits the quota");
    match bob.submit(&qasm, "BaselineN", "batch", None) {
        Err(ClientError::Server { code, .. }) => {
            println!("bob's second submit rejected [{code}] while job {first} is in flight")
        }
        Ok(job) => println!("bob's second submit landed as job {job} (first already done)"),
        Err(other) => println!("unexpected: {other}"),
    }
    server.queue().resume();
    bob.wait(first, 60_000).expect("wait answers");

    // Graceful shutdown drains in-flight work and notifies connections.
    drop(alice);
    drop(bob);
    server.shutdown();
    println!("server drained and stopped");
}
