//! Loopback integration tests: a real `Server` on an ephemeral port,
//! driven by the crate's blocking `Client` over actual TCP.

use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::qasm::{from_qasm, malformed_corpus};
use fastsc_queue::QueueService;
use fastsc_server::{Client, ClientError, Json, Server, TenantConfig};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_store::ArtifactStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The sample program the tests submit: well-formed OpenQASM 2.0 using
/// two qubits of the 2x2 test device.
const DEMO_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\nrz(0.25) q[1];\n";

const DEVICE_SEED: u64 = 7;

fn test_device() -> Device {
    Device::grid(2, 2, DEVICE_SEED)
}

fn start_server(tenants: Vec<TenantConfig>) -> Server {
    let service = CompileService::new(Composite::capacity_aware());
    service
        .add_shard(ShardSpec::new(test_device(), CompilerConfig::default()))
        .expect("register");
    let queue = QueueService::with_defaults(service);
    Server::start(queue, tenants).expect("server starts")
}

fn one_tenant() -> Vec<TenantConfig> {
    vec![TenantConfig::generous("alpha-token", "alpha", 1)]
}

fn connect(server: &Server, token: &str) -> Client {
    let mut client = Client::connect(server.addr()).expect("connect");
    client.hello(token).expect("authenticate");
    client
}

#[test]
fn submit_wait_compiles_bit_identical_to_a_fresh_local_compile() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");

    let job = client.submit(DEMO_QASM, "ColorDynamic", "interactive", None).expect("submit");
    let outcome = client.wait(job, 30_000).expect("wait").expect("job finishes");
    assert!(outcome.ok, "compile failed: {:?}", outcome.message);
    assert_eq!(outcome.job, job);

    // The acceptance bar: the digest returned over the socket equals a
    // fresh, sequential, single-device compile of the same source.
    let circuit = from_qasm(DEMO_QASM).expect("demo parses");
    let fresh = Compiler::new(test_device(), CompilerConfig::default())
        .compile(&circuit, Strategy::ColorDynamic)
        .expect("local compile");
    assert_eq!(
        outcome.schedule_hash,
        Some(fresh.schedule.stable_hash()),
        "socket compile diverged from the local sequential compile"
    );
    assert_eq!(outcome.depth, Some(fresh.schedule.depth() as u64));
    server.shutdown();
}

#[test]
fn every_malformed_corpus_entry_returns_a_structured_frame_and_the_connection_survives() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");

    for (name, source) in malformed_corpus() {
        let err = client
            .submit(source, "ColorDynamic", "batch", None)
            .expect_err(&format!("corpus entry {name:?} must be refused"));
        let ClientError::Server { code, line, column, message, .. } = err else {
            panic!("{name}: expected a structured server error, got {err:?}");
        };
        assert_eq!(code, "qasm", "{name}: wrong code ({message})");
        if line.is_some() {
            assert!(column.is_some(), "{name}: line without column");
        }
        // The connection must survive every rejection.
        client.ping().unwrap_or_else(|e| panic!("{name}: connection died: {e}"));
    }

    // At least the located families must actually carry line numbers on
    // the wire ("with line number").
    let err = client
        .submit("OPENQASM 2.0;\nqreg q[2];\nwarp q[0];", "ColorDynamic", "batch", None)
        .expect_err("unknown gate");
    let ClientError::Server { line, column, token, .. } = err else { panic!("structured") };
    assert_eq!(line, Some(3));
    assert_eq!(column, Some(1));
    assert_eq!(token.as_deref(), Some("warp"));

    // And a healthy submit still works afterwards.
    let job = client.submit(DEMO_QASM, "BaselineN", "batch", None).expect("healthy submit");
    assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);
    server.shutdown();
}

#[test]
fn authentication_gates_everything_but_ping() {
    let mut server = start_server(one_tenant());

    // Ping needs no session.
    let mut fresh = Client::connect(server.addr()).expect("connect");
    fresh.ping().expect("ping before hello");

    // Any other request before hello is refused and the connection drops.
    let err = fresh.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect_err("no session");
    assert!(matches!(&err, ClientError::Server { code, .. } if code == "auth"), "{err:?}");
    assert!(fresh.ping().is_err(), "server hangs up after an unauthenticated request");

    // A bad token is refused and the connection drops.
    let mut thief = Client::connect(server.addr()).expect("connect");
    let err = thief.hello("stolen-token").expect_err("bad token");
    assert!(matches!(&err, ClientError::Server { code, .. } if code == "auth"), "{err:?}");
    assert!(thief.ping().is_err(), "server hangs up after a bad token");

    // The real token still works.
    let mut client = connect(&server, "alpha-token");
    client.ping().expect("authenticated ping");
    server.shutdown();
}

#[test]
fn rate_limit_and_quota_are_enforced_per_tenant() {
    let mut server = start_server(vec![
        // Two burst tokens, no refill: the third submit is rate-limited.
        TenantConfig {
            token: "limited".into(),
            name: "limited".into(),
            client: 1,
            max_inflight: 1,
            rate_per_sec: 0.0,
            burst: 2,
        },
        TenantConfig::generous("roomy", "roomy", 2),
    ]);
    // Hold the dispatcher so submitted jobs stay in flight.
    server.queue().pause();

    let mut client = connect(&server, "limited");
    let first = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("first submit");

    // Quota: one job in flight is the cap.
    let err = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect_err("over quota");
    assert!(matches!(&err, ClientError::Server { code, .. } if code == "quota"), "{err:?}");

    // Rate: the quota probe spent the second burst token.
    let err =
        client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect_err("rate limited");
    let ClientError::Server { code, retry_after_ms, .. } = &err else { panic!("{err:?}") };
    assert_eq!(code, "rate_limited");
    assert!(retry_after_ms.is_some(), "rate_limited must carry a retry hint");

    // Another tenant is unaffected.
    let mut other = connect(&server, "roomy");
    other.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("other tenant submits");

    server.queue().resume();
    assert!(client.wait(first, 30_000).expect("wait").expect("finishes").ok);
    server.shutdown();
}

#[test]
fn cancel_deadline_poll_and_unknown_job_behave() {
    let mut server = start_server(one_tenant());
    server.queue().pause();
    let mut client = connect(&server, "alpha-token");

    // Cancel a queued job; its result is still deliverable afterwards.
    let doomed = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.poll(doomed).expect("poll").is_none(), "paused queue: still pending");
    assert!(client.cancel(doomed).expect("cancel"), "queued job cancels");
    let outcome = client.poll(doomed).expect("poll").expect("cancelled result is terminal");
    assert!(!outcome.ok);
    assert_eq!(outcome.code.as_deref(), Some("cancelled"));

    // The terminal result was delivered: the job id is now unknown.
    let err = client.poll(doomed).expect_err("already delivered");
    assert!(
        matches!(&err, ClientError::Server { code, .. } if code == "unknown_job"),
        "{err:?}"
    );
    let err = client.cancel(9_999).expect_err("never submitted");
    assert!(
        matches!(&err, ClientError::Server { code, .. } if code == "unknown_job"),
        "{err:?}"
    );

    // A deadline expires promptly even though the dispatcher is paused.
    let hopeless = client
        .submit(DEMO_QASM, "ColorDynamic", "interactive", Some(30))
        .expect("submit with deadline");
    let outcome =
        client.wait(hopeless, 5_000).expect("wait").expect("resolves at the deadline");
    assert!(!outcome.ok);
    assert_eq!(outcome.code.as_deref(), Some("deadline"));

    // A bounded wait on a stuck job answers `pending`, not an error.
    let stuck = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.wait(stuck, 150).expect("bounded wait").is_none());

    server.queue().resume();
    assert!(client.wait(stuck, 30_000).expect("wait").expect("finishes").ok);
    server.shutdown();
}

#[test]
fn subscriptions_are_tenant_scoped() {
    let mut server = start_server(vec![
        TenantConfig::generous("alpha-token", "alpha", 1),
        TenantConfig::generous("beta-token", "beta", 2),
    ]);
    let mut alpha = connect(&server, "alpha-token");
    let mut beta = connect(&server, "beta-token");
    alpha.subscribe().expect("subscribe");

    let alpha_job = alpha.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    let beta_job = beta.submit(DEMO_QASM, "BaselineS", "batch", None).expect("submit");
    assert!(alpha.wait(alpha_job, 30_000).expect("wait").expect("finishes").ok);
    assert!(beta.wait(beta_job, 30_000).expect("wait").expect("finishes").ok);

    // Alpha's stream carries alpha's completion and never beta's.
    let mut seen = Vec::new();
    while let Some(event) = alpha.next_event(Duration::from_millis(300)).expect("events") {
        if event.get("type").and_then(Json::as_str) == Some("completion") {
            seen.push(event.get("job").and_then(Json::as_u64).expect("job id"));
        }
    }
    assert_eq!(seen, vec![alpha_job], "expected exactly alpha's completion, got {seen:?}");
    server.shutdown();
}

#[test]
fn telemetry_streams_fleet_snapshots() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");
    let job = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);

    let frames = client.telemetry(2, 10).expect("telemetry");
    assert_eq!(frames.len(), 2);
    let first = &frames[0];
    let shards = first.get("shards").and_then(Json::as_array).expect("shards");
    assert_eq!(shards.len(), 1, "one registered device");
    assert_eq!(shards[0].get("state").and_then(Json::as_str), Some("active"));
    assert_eq!(shards[0].get("qubits").and_then(Json::as_u64), Some(4));
    let stats = first.get("stats").expect("stats");
    assert!(stats.get("completed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(stats.get("latency").and_then(Json::as_array).is_some());
    assert!(first.get("delta").is_some());
    server.shutdown();
}

/// Depth-first search for a span named `name` in a wire-format trace.
fn find_span<'a>(node: &'a Json, name: &str) -> Option<&'a Json> {
    if node.get("name").and_then(Json::as_str) == Some(name) {
        return Some(node);
    }
    node.get("children")?.as_array()?.iter().find_map(|c| find_span(c, name))
}

#[test]
fn traced_submit_returns_the_span_tree_over_the_wire() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");

    let job = client
        .submit_traced(DEMO_QASM, "ColorDynamic", "interactive", None)
        .expect("traced submit");
    let outcome = client.wait(job, 30_000).expect("wait").expect("finishes");
    assert!(outcome.ok);
    let trace = outcome.trace.as_ref().expect("traced job returns its span tree");

    // The root names the job's full lifecycle...
    assert_eq!(trace.get("name").and_then(Json::as_str), Some("job"));
    for name in ["admission", "queue_wait", "route", "attempt", "respond"] {
        assert!(find_span(trace, name).is_some(), "missing {name:?} span in {trace:?}");
    }
    // ...the routing decision carries its policy and chosen shard...
    let route = find_span(trace, "route").expect("route span");
    let route_attrs = route.get("attrs").expect("route attrs");
    assert_eq!(route_attrs.get("policy").and_then(Json::as_str), Some("capacity_aware"));
    assert_eq!(route_attrs.get("shard").and_then(Json::as_u64), Some(0));
    // ...and the engine's internal phases nest under the attempt.
    // (`context_build` is absent by design: shard contexts are built
    // eagerly at registration, before any routed job compiles.)
    let attempt = find_span(trace, "attempt").expect("attempt span");
    for name in ["compile", "smt", "coloring"] {
        assert!(find_span(attempt, name).is_some(), "missing engine phase {name:?}");
    }
    // The compile's front end (qubit mapping, then lowering) nests under
    // it, named apart from the shard-routing span above.
    let compile = find_span(attempt, "compile").expect("compile phase");
    for name in ["qubit_map", "lower"] {
        assert!(find_span(compile, name).is_some(), "missing front-end phase {name:?}");
    }
    assert!(find_span(compile, "route").is_none(), "only the shard decision is `route`");
    let attempt_attrs = attempt.get("attrs").expect("attempt attrs");
    assert_eq!(attempt_attrs.get("ok").and_then(Json::as_bool), Some(true));
    assert!(attempt_attrs.get("cache_hit").and_then(Json::as_bool).is_some());

    // Trace delivery is take-once; an untraced job carries nothing.
    let plain = client.submit(DEMO_QASM, "BaselineN", "batch", None).expect("submit");
    let outcome = client.wait(plain, 30_000).expect("wait").expect("finishes");
    assert!(outcome.ok);
    assert!(outcome.trace.is_none(), "untraced job must not carry a trace");
    server.shutdown();
}

#[test]
fn metrics_request_returns_prometheus_exposition() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");
    let job = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);

    let text = client.metrics_text().expect("metrics scrape");
    for family in [
        "# TYPE fastsc_queue_wait_seconds summary",
        "# TYPE fastsc_queue_jobs_total counter",
        "fastsc_queue_jobs_total{event=\"admitted\"}",
        "# TYPE fastsc_compile_duration_seconds histogram",
        "# TYPE fastsc_server_connections_total counter",
        "# TYPE fastsc_server_bytes_total counter",
    ] {
        assert!(text.contains(family), "missing {family:?} in scrape:\n{text}");
    }
    // Valid exposition shape (the queue, service and server parts
    // declare each family once), and the compile landed on its shard.
    let scrape = parse_scrape(&text);
    let compiled =
        "fastsc_compile_duration_seconds_count{shard=\"0\",strategy=\"color_dynamic\"}";
    assert_eq!(scrape.get(compiled), Some(&1.0), "{text}");
    server.shutdown();
}

/// A scrape's samples keyed by `name{labels}`, after checking that every
/// line is a comment or `name value` and each family is declared once.
fn parse_scrape(text: &str) -> HashMap<String, f64> {
    let mut declared = std::collections::HashSet::new();
    let mut samples = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().expect("TYPE names a family");
            assert!(declared.insert(name), "family {name} declared twice:\n{text}");
        } else if !line.starts_with('#') {
            let (key, value) = line.rsplit_once(' ').expect("`name value`");
            assert!(!key.contains(' '), "bad line: {line}");
            samples.insert(key.to_string(), value.parse().expect("numeric sample"));
        }
    }
    samples
}

#[test]
fn each_server_scrapes_only_its_own_queue_and_fleet() {
    // Two fleets in one process. A: a store-backed shard that an
    // operator quarantined and restored, three jobs. B: a plain shard,
    // five jobs.
    let path = std::env::temp_dir()
        .join(format!("fastsc-loopback-scrape-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(ArtifactStore::open(&path).expect("store opens"));
    let service = CompileService::new(Composite::capacity_aware());
    let spec = ShardSpec::new(test_device(), CompilerConfig::default());
    service.add_shard(ShardSpec { store: Some(Arc::clone(&store)), ..spec }).expect("register");
    assert!(service.quarantine_shard(0) && service.restore_shard(0));
    let mut a =
        Server::start(QueueService::with_defaults(service), one_tenant()).expect("starts");
    let mut b = start_server(one_tenant());
    let run = |server: &Server, strategies: &[&str]| {
        let mut client = connect(server, "alpha-token");
        for strategy in strategies {
            let job = client.submit(DEMO_QASM, strategy, "batch", None).expect("submit");
            assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);
        }
        client
    };
    let client_a = run(&a, &["ColorDynamic", "BaselineS", "ColorDynamic"]);
    let client_b = run(&b, &["BaselineN"; 5]);
    // Draining flushes A's shard to its store, so its bytes series moves.
    a.queue().service().drain_shard(0);

    for (server, mut client, jobs, breaker, store) in
        [(&a, client_a, 3.0, 1.0, Some(&store)), (&b, client_b, 5.0, 0.0, None)]
    {
        let text = client.metrics_text().expect("scrape");
        let scrape = parse_scrape(&text);
        let at = |key: &str| *scrape.get(key).unwrap_or_else(|| panic!("no {key}:\n{text}"));
        assert_eq!(at("fastsc_queue_jobs_total{event=\"admitted\"}"), jobs);
        assert_eq!(at("fastsc_queue_jobs_total{event=\"completed\"}"), jobs);
        assert_eq!(at("fastsc_server_connections_total"), 1.0);

        let views = server.queue().service().shard_views();
        assert_eq!(views.len(), 1);
        let view = &views[0];
        let compiles: f64 = scrape
            .iter()
            .filter(|(key, _)| {
                key.starts_with("fastsc_compile_duration_seconds_count{shard=\"0\",")
            })
            .map(|(_, count)| count)
            .sum();
        assert_eq!(compiles, view.health.attempts as f64, "{text}");
        let (hits, misses) = (
            at("fastsc_cache_requests_total{shard=\"0\",result=\"hit\"}"),
            at("fastsc_cache_requests_total{shard=\"0\",result=\"miss\"}"),
        );
        assert_eq!(misses, view.cache.misses as f64);
        assert!(hits >= view.cache.hits as f64, "coalesced hits only add");
        assert_eq!(hits + misses, jobs, "every job is one hit or one miss");
        assert_eq!(misses, compiles);

        assert_eq!(at("fastsc_breaker_transitions_total{shard=\"0\",to=\"open\"}"), breaker);
        assert_eq!(at("fastsc_breaker_transitions_total{shard=\"0\",to=\"closed\"}"), breaker);
        assert_eq!(at("fastsc_breaker_transitions_total{shard=\"0\",to=\"half_open\"}"), 0.0);

        // A fresh store holds no statics: one miss at hydrate, no hits.
        let written = store.map_or(0, |store| store.stats().bytes_written);
        assert_eq!(at("fastsc_store_requests_total{shard=\"0\",result=\"hit\"}"), 0.0);
        assert_eq!(
            at("fastsc_store_requests_total{shard=\"0\",result=\"miss\"}"),
            if store.is_some() { 1.0 } else { 0.0 }
        );
        assert_eq!(at("fastsc_store_bytes_written_total{shard=\"0\"}"), written as f64);
        assert_eq!(written > 0, store.is_some());
    }
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn undecodable_frames_get_an_error_then_the_connection_closes() {
    let mut server = start_server(one_tenant());

    // Not JSON at all.
    let mut client = connect(&server, "alpha-token");
    let payload = b"not json at all";
    let mut raw = (payload.len() as u32).to_be_bytes().to_vec();
    raw.extend_from_slice(payload);
    client.send_raw(&raw).expect("send garbage");
    let event = client
        .next_event(Duration::from_secs(5))
        .expect("read")
        .expect("error frame before close");
    assert_eq!(event.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(event.get("code").and_then(Json::as_str), Some("bad_frame"));
    assert!(client.ping().is_err(), "connection is closed after garbage");

    // A frame claiming to be larger than the protocol limit.
    let mut client = connect(&server, "alpha-token");
    client.send_raw(&u32::MAX.to_be_bytes()).expect("send oversize prefix");
    let event = client
        .next_event(Duration::from_secs(5))
        .expect("read")
        .expect("error frame before close");
    assert_eq!(event.get("code").and_then(Json::as_str), Some("bad_frame"));
    assert!(client.ping().is_err());

    // Well-formed JSON with an invalid request keeps the session alive.
    let mut client = connect(&server, "alpha-token");
    let err = client.call(vec![("type", Json::str("warp"))]).expect_err("unknown type");
    assert!(
        matches!(&err, ClientError::Server { code, .. } if code == "bad_request"),
        "{err:?}"
    );
    client.ping().expect("still serving");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_notifies_connections() {
    let mut server = start_server(one_tenant());
    server.queue().pause();
    let mut client = connect(&server, "alpha-token");
    client.subscribe().expect("subscribe");
    let job = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");

    // Shut down with the job still queued behind a paused dispatcher:
    // drain must override the pause and the subscriber must see the
    // completion before the stream ends.
    server.shutdown();

    let mut got_shutdown = false;
    let mut completed = Vec::new();
    while let Some(event) = client.next_event(Duration::from_secs(5)).expect("read") {
        match event.get("type").and_then(Json::as_str) {
            Some("shutdown") => got_shutdown = true,
            Some("completion") => {
                assert_eq!(event.get("ok").and_then(Json::as_bool), Some(true));
                completed.push(event.get("job").and_then(Json::as_u64).expect("job"));
            }
            other => panic!("unexpected frame during shutdown: {other:?}"),
        }
    }
    assert!(got_shutdown, "every connection gets a shutdown frame");
    assert_eq!(completed, vec![job], "the queued job drained to completion");
}

#[test]
fn injected_connection_drops_are_deterministic_and_survivable() {
    use fastsc_service::{FaultInjector, FaultKind, FaultPlan, FaultRule, ShardSpec};
    use std::sync::Arc;

    // The first two accepted connections are severed before a single
    // frame; the third serves normally.
    let plan =
        FaultPlan::new(9).rule(FaultRule::new(FaultKind::DropConnection).for_attempts(0..2));
    let service = CompileService::new(Composite::capacity_aware());
    service
        .add_shard(ShardSpec::new(test_device(), CompilerConfig::default()))
        .expect("register");
    let queue = QueueService::with_defaults(service);
    let injector = Arc::new(FaultInjector::new(plan));
    let mut server =
        Server::start_with_faults(queue, one_tenant(), Some(Arc::clone(&injector)))
            .expect("server starts");

    for connection in 0..2 {
        let mut doomed = Client::connect(server.addr()).expect("tcp connect succeeds");
        assert!(
            doomed.ping().is_err(),
            "connection {connection} must be dropped before serving"
        );
    }
    assert_eq!(injector.injected(), 2, "both drops were injected");

    // Past the fault window the server serves normally, end to end.
    let mut client = connect(&server, "alpha-token");
    let job = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);
    server.shutdown();
}

#[test]
fn quarantined_fleet_refuses_submissions_with_a_retry_hint() {
    let mut server = start_server(one_tenant());
    let mut client = connect(&server, "alpha-token");

    // Trip the whole (single-shard) fleet into quarantine.
    assert!(server.queue().service().quarantine_shard(0));
    let err = client
        .submit(DEMO_QASM, "ColorDynamic", "batch", None)
        .expect_err("unhealthy fleet refuses work");
    let ClientError::Server { code, retry_after_ms, .. } = &err else {
        panic!("expected a structured refusal, got {err:?}");
    };
    assert_eq!(code, "fleet_unhealthy");
    assert!(retry_after_ms.is_some(), "the refusal must carry a retry hint");
    // The refusal is per-request, not per-connection.
    client.ping().expect("connection survives the refusal");

    // An operator restoring the shard reopens admission on the spot.
    assert!(server.queue().service().restore_shard(0));
    let job = client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    assert!(client.wait(job, 30_000).expect("wait").expect("finishes").ok);
    server.shutdown();
}

#[test]
fn cache_export_import_prewarms_a_peer_server() {
    // Donor fleet: compile once so its cache holds a schedule.
    let mut donor = start_server(one_tenant());
    let mut donor_client = connect(&donor, "alpha-token");
    let job = donor_client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    let warm = donor_client.wait(job, 30_000).expect("wait").expect("finishes");
    assert!(warm.ok);
    let bundle = donor_client.cache_export().expect("export");
    assert!(!bundle.is_empty(), "a warmed fleet exports a non-empty bundle");
    donor.shutdown();

    // Peer fleet (same device/config): import, then the same submission
    // is served from the imported cache, bit-identical over the wire.
    let mut peer = start_server(one_tenant());
    let mut peer_client = connect(&peer, "alpha-token");
    let (_, _, schedules, _) = peer_client.cache_import(&bundle).expect("import");
    assert!(schedules >= 1, "the donor's schedule is adopted");
    let job = peer_client.submit(DEMO_QASM, "ColorDynamic", "batch", None).expect("submit");
    let outcome = peer_client.wait(job, 30_000).expect("wait").expect("finishes");
    assert!(outcome.ok);
    assert_eq!(outcome.cache_hit, Some(true), "served from the imported cache");
    assert_eq!(outcome.schedule_hash, warm.schedule_hash, "diverged across the fleet");

    // Garbage bundles are refused at the protocol layer; damaged but
    // well-hexed bundles import as all-skipped. Neither costs the
    // connection.
    assert!(peer_client.cache_import(&[0xde, 0xad, 0xbe, 0xef]).is_ok());
    peer_client.ping().expect("connection survives");
    peer.shutdown();
}
