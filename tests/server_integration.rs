//! End-to-end integration tests for the simulation service: concurrent
//! load against a bounded queue, cancellation over the wire, metrics
//! reconciliation, and graceful shutdown.

use powerbalance::experiments;
use powerbalance_harness::CampaignSpec;
use powerbalance_server::client::Client;
use powerbalance_server::service::ServiceConfig;
use powerbalance_server::{Server, ServerConfig, ServerHandle};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn start_server(service: ServiceConfig) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_connections: 64,
        ..ServerConfig::default()
    })
    .expect("server binds on an ephemeral port")
}

fn spec_json(name: &str, cycles: u64) -> String {
    let spec = CampaignSpec::new(name)
        .config("base", experiments::issue_queue(false))
        .benchmark("gzip")
        .cycles(cycles)
        .seed(11);
    serde::json::to_string(&spec)
}

/// Extracts `"id":N` from a submit response body.
fn extract_id(body: &str) -> u64 {
    body.split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no id in submit response: {body}"))
}

fn poll_terminal(client: &mut Client, id: u64) -> String {
    for _ in 0..4_000 {
        let response = client
            .request("GET", &format!("/v1/campaigns/{id}"), None)
            .expect("status endpoint answers");
        assert_eq!(response.status, 200, "status for a known id is always 200");
        let body = response.text();
        for state in ["\"Completed\"", "\"Failed\"", "\"Cancelled\""] {
            if body.contains(state) {
                return state.trim_matches('"').to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("campaign {id} never reached a terminal state");
}

/// The acceptance-criteria scenario: 32 concurrent connections hammer a
/// server whose submission queue holds only 8 campaigns. Every request
/// must get a well-formed response — an id or a 429 — nothing may
/// deadlock, no accepted job may be lost, and afterwards the metrics
/// must reconcile exactly: submitted = completed + failed + cancelled +
/// rejected.
#[test]
fn thirty_two_connections_against_a_depth_8_queue() {
    let server = start_server(ServiceConfig {
        queue_depth: 8,
        workers: 2,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let addr = server.addr();

    const CONNECTIONS: usize = 32;
    const SUBMISSIONS_PER_CONNECTION: usize = 2;

    let results: Vec<(u64, u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, Duration::from_secs(30));
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    let mut states = Vec::new();
                    for i in 0..SUBMISSIONS_PER_CONNECTION {
                        let body = spec_json(&format!("load-c{conn}-i{i}"), 5_000);
                        let response = client
                            .request("POST", "/v1/campaigns", Some(&body))
                            .expect("submit gets a response");
                        match response.status {
                            202 => {
                                accepted += 1;
                                let id = extract_id(&response.text());
                                states.push(poll_terminal(&mut client, id));
                            }
                            429 => {
                                rejected += 1;
                                let hint: u64 = response
                                    .header("retry-after")
                                    .expect("429 must carry Retry-After")
                                    .parse()
                                    .expect("Retry-After is an integer second count");
                                assert!(
                                    (1..=3).contains(&hint),
                                    "Retry-After jitter stays in 1..=3, got {hint}"
                                );
                            }
                            other => panic!("submission got unexpected status {other}"),
                        }
                    }
                    (accepted, rejected, states.join(","))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no client thread panics")).collect()
    });

    let accepted: u64 = results.iter().map(|(a, _, _)| a).sum();
    let rejected: u64 = results.iter().map(|(_, r, _)| r).sum();
    assert_eq!(
        accepted + rejected,
        (CONNECTIONS * SUBMISSIONS_PER_CONNECTION) as u64,
        "every submission got a definitive answer"
    );
    assert!(accepted > 0, "some submissions must make it through");
    for (_, _, states) in &results {
        for state in states.split(',').filter(|s| !s.is_empty()) {
            assert_eq!(state, "Completed", "accepted campaigns must complete, not be lost");
        }
    }

    // Metrics reconciliation at quiescence.
    let m = server.service().metrics();
    let submitted = m.campaigns_submitted.load(Ordering::Relaxed);
    let completed = m.campaigns_completed.load(Ordering::Relaxed);
    let failed = m.campaigns_failed.load(Ordering::Relaxed);
    let cancelled = m.campaigns_cancelled.load(Ordering::Relaxed);
    let rejected_metric = m.campaigns_rejected.load(Ordering::Relaxed);
    assert_eq!(submitted, (CONNECTIONS * SUBMISSIONS_PER_CONNECTION) as u64);
    assert_eq!(rejected_metric, rejected);
    assert_eq!(completed, accepted);
    assert_eq!(
        submitted,
        completed + failed + cancelled + rejected_metric,
        "submitted must reconcile against terminal counters"
    );

    // Per-fidelity counters partition submissions; this test only ever
    // submitted Exact-fidelity specs.
    let exact = m.campaigns_submitted_exact.load(Ordering::Relaxed);
    let fast = m.campaigns_submitted_fast.load(Ordering::Relaxed);
    assert_eq!(submitted, exact + fast, "submitted must equal exact + fast");
    assert_eq!(fast, 0, "no fast-fidelity specs were submitted");

    // The same numbers must appear in the Prometheus rendering.
    let mut client = Client::new(addr, Duration::from_secs(5));
    let text = client.request("GET", "/metrics", None).expect("metrics answers").text();
    assert!(text.contains(&format!("powerbalance_campaigns_submitted_total {submitted}")));
    assert!(text.contains(&format!("powerbalance_campaigns_completed_total {completed}")));
    assert!(text.contains(&format!("powerbalance_campaigns_rejected_total {rejected_metric}")));
    assert!(text.contains("powerbalance_http_request_duration_seconds_bucket"));
}

#[test]
fn submit_status_result_round_trip() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(10));

    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("round-trip", 20_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let body = response.text();
    let id = extract_id(&body);
    assert!(body.contains(&format!("/v1/campaigns/{id}")), "submit echoes the status URL");

    assert_eq!(poll_terminal(&mut client, id), "Completed");

    let result =
        client.request("GET", &format!("/v1/campaigns/{id}/result"), None).expect("result answers");
    assert_eq!(result.status, 200);
    let text = result.text();
    // The body is the full CampaignResult document, parseable by the same
    // vendored serde the rest of the workspace uses.
    let parsed: powerbalance_harness::CampaignResult =
        serde::json::from_str(&text).expect("result body is a CampaignResult");
    assert_eq!(parsed.spec.name, "round-trip");
    assert_eq!(parsed.jobs.len(), 1);
    assert!(parsed.jobs[0].result.ipc > 0.0);
}

#[test]
fn multicore_specs_ride_the_wire_and_run_the_multicore_engine() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(30));

    let spec = CampaignSpec::new("multicore")
        .config(
            "2core",
            powerbalance::SimConfig {
                cores: 2,
                scheduler: powerbalance::SchedulerKind::CoolestFirst,
                ..powerbalance::SimConfig::default()
            },
        )
        .benchmark("gzip")
        .cycles(20_000)
        .seed(11);
    let response = client
        .request("POST", "/v1/campaigns", Some(&serde::json::to_string(&spec)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    assert_eq!(poll_terminal(&mut client, id), "Completed");

    let text = client
        .request("GET", &format!("/v1/campaigns/{id}/result"), None)
        .expect("result answers")
        .text();
    let parsed: powerbalance_harness::CampaignResult =
        serde::json::from_str(&text).expect("result body is a CampaignResult");
    // The archived spec keeps the multi-core shape, and the merged result
    // carries the second lane's `C1.`-prefixed block temperatures — proof
    // the multi-core engine, not a scalar fallback, served the campaign.
    assert_eq!(parsed.spec.configs[0].config.cores, 2);
    assert_eq!(parsed.spec.configs[0].config.scheduler, powerbalance::SchedulerKind::CoolestFirst);
    assert!(parsed.jobs[0].result.temperatures.iter().any(|t| t.name.starts_with("C1.")));
    assert!(parsed.jobs[0].result.ipc > 0.0);
}

#[test]
fn fidelity_query_overrides_the_spec_and_is_metered() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(30));

    // The spec itself says Exact (the default); the query flips it.
    let response = client
        .request("POST", "/v1/campaigns?fidelity=fast", Some(&spec_json("fast-run", 300_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let fast_id = extract_id(&response.text());

    // A second campaign with no query keeps the spec's own fidelity.
    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("exact-run", 20_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let exact_id = extract_id(&response.text());

    assert_eq!(poll_terminal(&mut client, fast_id), "Completed");
    assert_eq!(poll_terminal(&mut client, exact_id), "Completed");

    // The result artifact records the overridden config, so a reader of
    // the archive sees what actually ran.
    let fetch = |client: &mut Client, id: u64| {
        let text = client
            .request("GET", &format!("/v1/campaigns/{id}/result"), None)
            .expect("result answers")
            .text();
        serde::json::from_str::<powerbalance_harness::CampaignResult>(&text)
            .expect("result body is a CampaignResult")
    };
    let fast_result = fetch(&mut client, fast_id);
    assert_eq!(fast_result.spec.configs[0].config.fidelity, powerbalance::Fidelity::Fast);
    assert!(fast_result.jobs[0].result.ipc > 0.0);
    let exact_result = fetch(&mut client, exact_id);
    assert_eq!(exact_result.spec.configs[0].config.fidelity, powerbalance::Fidelity::Exact);

    // Mixed-fidelity traffic reconciles: submitted = exact + fast, and
    // both counters surface in the Prometheus rendering.
    let m = server.service().metrics();
    assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), 2);
    assert_eq!(m.campaigns_submitted_fast.load(Ordering::Relaxed), 1);
    assert_eq!(m.campaigns_submitted_exact.load(Ordering::Relaxed), 1);
    let text = client.request("GET", "/metrics", None).expect("metrics answers").text();
    assert!(text.contains("powerbalance_campaigns_submitted_exact_total 1"));
    assert!(text.contains("powerbalance_campaigns_submitted_fast_total 1"));
}

#[test]
fn cancellation_over_the_wire() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(10));

    // A long campaign to cancel mid-flight, behind nothing.
    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("cancel-me", 50_000_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    let cancel =
        client.request("DELETE", &format!("/v1/campaigns/{id}"), None).expect("cancel answers");
    assert_eq!(cancel.status, 202);

    assert_eq!(poll_terminal(&mut client, id), "Cancelled");

    // The result of a cancelled campaign is a 409, not a hang or a 500.
    let result =
        client.request("GET", &format!("/v1/campaigns/{id}/result"), None).expect("result answers");
    assert_eq!(result.status, 409);

    // Cancelling a terminal campaign is accepted but a no-op.
    let again =
        client.request("DELETE", &format!("/v1/campaigns/{id}"), None).expect("cancel answers");
    assert_eq!(again.status, 202);
    assert_eq!(
        server.service().metrics().campaigns_cancelled.load(Ordering::Relaxed),
        1,
        "double-cancel must not double-count"
    );
}

#[test]
fn graceful_shutdown_drains_and_refuses() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let mut client = Client::new(addr, Duration::from_secs(10));

    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("drain-me", 200_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    // Ask for shutdown over the wire, as an operator would.
    let shutdown = client.request("POST", "/v1/shutdown", None).expect("shutdown answers");
    assert_eq!(shutdown.status, 202);
    assert!(server.shutdown_requested(), "the handle owner sees the request");

    // Graceful: the in-flight campaign still completes.
    let service = std::sync::Arc::clone(server.service());
    server.shutdown();
    let status = service.status(id).expect("the record survives shutdown");
    assert_eq!(
        status.state,
        powerbalance_server::service::JobState::Completed,
        "graceful shutdown waits for in-flight campaigns"
    );
    assert!(service.is_draining());
    // The listener is gone: new connections are refused.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the listener must be closed after shutdown"
    );
}

#[test]
fn over_wide_issue_queue_is_a_400() {
    let server = start_server(ServiceConfig::default());
    let mut client = Client::new(server.addr(), Duration::from_secs(10));
    let mut config = experiments::issue_queue(false);
    config.core.iq_size = 66;
    let spec =
        CampaignSpec::new("wide-queue").config("wide", config).benchmark("gzip").cycles(1_000);
    let response = client
        .request("POST", "/v1/campaigns", Some(&serde::json::to_string(&spec)))
        .expect("submit answers");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(response.text().contains("issue queue size"), "{}", response.text());
    assert_eq!(server.service().metrics().campaigns_invalid.load(Ordering::Relaxed), 1);
    // The server is unharmed: a valid submission still goes through.
    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("after-wide", 1_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
}

/// Delivered results are retained only up to a bound: the 300th delivery
/// releases the first ones, which then answer `410` while their status
/// stays `Completed`. Recent and never-fetched results stay available.
#[test]
fn delivered_results_beyond_the_retention_bound_are_gone() {
    use powerbalance_server::service::RETAINED_DELIVERED_RESULTS;
    const DELIVERED: usize = 300;
    const { assert!(DELIVERED > RETAINED_DELIVERED_RESULTS) };

    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 2,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(30));
    let submit = |client: &mut Client, name: &str| {
        let response = client
            .request("POST", "/v1/campaigns", Some(&spec_json(name, 1_000)))
            .expect("submit answers");
        assert_eq!(response.status, 202);
        extract_id(&response.text())
    };
    let result = |client: &mut Client, id: u64, wait: &str| {
        client.request("GET", &format!("/v1/campaigns/{id}/result{wait}"), None).expect("answers")
    };

    let unfetched = submit(&mut client, "never-fetched");
    let mut delivered = Vec::with_capacity(DELIVERED);
    for i in 0..DELIVERED {
        let id = submit(&mut client, &format!("delivered-{i}"));
        assert_eq!(result(&mut client, id, "?wait=30").status, 200, "campaign {i}");
        delivered.push(id);
    }

    let first = delivered[0];
    let gone = result(&mut client, first, "");
    assert_eq!(gone.status, 410);
    assert!(gone.text().contains("released after delivery"), "{}", gone.text());
    let status = client.request("GET", &format!("/v1/campaigns/{first}"), None).expect("answers");
    assert_eq!(status.status, 200);
    assert!(status.text().contains("\"Completed\""), "{}", status.text());
    assert!(status.text().contains("delivered-0"), "the name survives: {}", status.text());

    // The oldest delivery still retained, and the newest, answer 200; so
    // does a result nobody has fetched yet, however old.
    let oldest_kept = delivered[DELIVERED - RETAINED_DELIVERED_RESULTS];
    assert_eq!(
        result(&mut client, delivered[DELIVERED - RETAINED_DELIVERED_RESULTS - 1], "").status,
        410
    );
    assert_eq!(result(&mut client, oldest_kept, "").status, 200);
    assert_eq!(result(&mut client, delivered[DELIVERED - 1], "").status, 200);
    assert_eq!(poll_terminal(&mut client, unfetched), "Completed");
    let kept = result(&mut client, unfetched, "");
    assert_eq!(kept.status, 200);
    let parsed: powerbalance_harness::CampaignResult =
        serde::json::from_str(&kept.text()).expect("result body is a CampaignResult");
    assert_eq!(parsed.spec.name, "never-fetched");
}
