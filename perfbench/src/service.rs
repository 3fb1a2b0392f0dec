//! `service_short`: an in-process server on loopback, driven by closed-loop
//! clients that each submit a short campaign, long-poll its result and read
//! the bytes.

use crate::report::Report;
use crate::spec::{self, DigestBook, Size};
use crate::stats::{process_cpu_ns, Samples};
use powerbalance_harness::{CampaignResult, CampaignSpec};
use powerbalance_server::client::Client;
use powerbalance_server::service::ServiceConfig;
use powerbalance_server::{Server, ServerConfig, ServerHandle};
use powerbalance_workloads::Xoshiro256;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, one keep-alive connection each.
pub const CLIENTS: u64 = 2;
/// Campaigns the service runs at once, each on one pool thread.
const WORKERS: usize = 2;
/// Server starts per run; the reported set-up time is their median.
const SETUP_REPEATS: usize = 41;

fn server_config(addr: SocketAddr) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        service: ServiceConfig {
            workers: WORKERS,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        },
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Connects to `addr` as soon as it listens, as a health checker that is
/// already retrying does, sends `GET /healthz` and returns when the whole
/// `200` response has arrived.
fn healthz_when_open(addr: SocketAddr, give_up: &AtomicBool) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(_) if !give_up.load(Ordering::Relaxed) && Instant::now() < deadline => {}
            Err(e) => return Err(format!("/healthz: no listener at {addr}: {e}")),
        }
    };
    let io = |e: std::io::Error| format!("/healthz: {e}");
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(io)?;
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n")
        .map_err(io)?;
    let mut response = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            return Err("/healthz: connection closed before the response".to_string());
        }
        response.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&response);
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            continue;
        };
        let length = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:")?.trim().parse().ok()
            })
            .unwrap_or(0usize);
        if body.len() < length {
            continue;
        }
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("/healthz answered {}", head.lines().next().unwrap_or("")));
        }
        return Ok(Instant::now());
    }
}

/// Starts a server on a free loopback port with a health checker already
/// retrying it; returns the server and the seconds until `/healthz`
/// answered.
fn start_ready() -> Result<(ServerHandle, f64), String> {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("finding a free port: {e}"))?;
    let give_up = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let checker = scope.spawn(|| healthz_when_open(addr, &give_up));
        let start = Instant::now();
        let started = Server::start(server_config(addr));
        if started.is_err() {
            give_up.store(true, Ordering::Relaxed);
        }
        let answered = checker.join().map_err(|_| "health checker panicked".to_string());
        let handle = started.map_err(|e| format!("server start: {e}"))?;
        Ok((handle, answered??.duration_since(start).as_secs_f64()))
    })
}

/// One client exchange: submit, long-poll, read.
pub struct Exchange {
    pub client: u64,
    pub spec: CampaignSpec,
    /// POST until the last result byte; infinite when the POST was refused.
    pub latency_s: f64,
    pub submit_s: f64,
    /// A second, immediate GET of the finished result (traced runs only).
    pub fetch_s: Option<f64>,
    pub body: String,
}

fn exchange(
    client: &mut Client,
    index: u64,
    spec: CampaignSpec,
    refetch: bool,
) -> Result<Exchange, String> {
    let text = serde::json::to_string(&spec);
    let start = Instant::now();
    let response =
        client.request("POST", "/v1/campaigns", Some(&text)).map_err(|e| e.to_string())?;
    let submit_s = start.elapsed().as_secs_f64();
    match response.status {
        202 => {}
        429 => {
            return Ok(Exchange {
                client: index,
                spec,
                latency_s: f64::INFINITY,
                submit_s,
                fetch_s: None,
                body: String::new(),
            })
        }
        s => return Err(format!("submit answered {s}: {}", response.text())),
    }
    let id = serde::json::Value::parse(&response.text())
        .and_then(|v| v.field("id").and_then(serde::json::Value::as_u64))
        .map_err(|e| format!("submit response: {e}"))?;
    let path = format!("/v1/campaigns/{id}/result");
    let body = loop {
        let r =
            client.request("GET", &format!("{path}?wait=5"), None).map_err(|e| e.to_string())?;
        match r.status {
            200 => break r.body,
            409 => continue,
            s => return Err(format!("result answered {s}: {}", r.text())),
        }
    };
    let latency_s = start.elapsed().as_secs_f64();
    let fetch_s = if refetch {
        let start = Instant::now();
        let r = client.request("GET", &path, None).map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("result re-fetch answered {}", r.status));
        }
        Some(start.elapsed().as_secs_f64())
    } else {
        None
    };
    let body = String::from_utf8(body).map_err(|_| "result body is not UTF-8".to_string())?;
    Ok(Exchange { client: index, spec, latency_s, submit_s, fetch_s, body })
}

/// The closed loop of client `index` until `deadline`.
fn drive(
    addr: SocketAddr,
    seed: u64,
    index: u64,
    deadline: Instant,
    size: Size,
    refetch: bool,
) -> Result<Vec<Exchange>, String> {
    let mut rng = Xoshiro256::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (index + 1));
    let mut client = Client::new(addr, Duration::from_secs(60));
    let mut done = Vec::new();
    while Instant::now() < deadline {
        let ex =
            exchange(&mut client, index, spec::service_request(&mut rng, seed, size), refetch)?;
        if !ex.latency_s.is_finite() {
            std::thread::sleep(Duration::from_millis(100));
        }
        done.push(ex);
    }
    Ok(done)
}

/// Reads one counter from the Prometheus text of `/metrics`.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// A finished service run: the report and, on a traced run, every decoded
/// result with the client that asked for it, in each client's order, for
/// the layer probe.
pub struct ServiceRun {
    pub report: Report,
    pub completed: Vec<(u64, CampaignSpec, CampaignResult)>,
}

pub fn run(seed: u64, seconds: f64, size: Size, traced: bool) -> ServiceRun {
    let mut report = Report::new("service_short");
    report.note(format!(
        "inputs: closed loop, {CLIENTS} clients; {WORKERS} service workers x 1 campaign thread; \
         one benchmark x two policies per request, half with a warmup repeated across requests"
    ));
    let failed = |report: Report, e| ServiceRun { report: report.fail(e), completed: Vec::new() };
    let mut setup = Samples::default();
    for _ in 0..SETUP_REPEATS {
        match start_ready() {
            Ok((handle, secs)) => {
                setup.push(secs);
                handle.shutdown();
            }
            Err(e) => return failed(report, e),
        }
    }
    let handle = match start_ready() {
        Ok((handle, _)) => handle,
        Err(e) => return failed(report, e),
    };
    let addr = handle.addr();
    let cpu = process_cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outcomes: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| scope.spawn(move || drive(addr, seed, i, deadline, size, traced)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu;
    let metrics_text = Client::new(addr, Duration::from_secs(5))
        .request("GET", "/metrics", None)
        .map(|r| r.text())
        .unwrap_or_default();
    handle.shutdown();

    let mut exchanges = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(list) => exchanges.extend(list),
            Err(e) => return failed(report, e),
        }
    }
    report.attempted = exchanges.len() as u64;

    let mut book = DigestBook::default();
    let mut completed = Vec::new();
    let mut done = 0u64;
    let (mut latency, mut wall, mut submit, mut fetch) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let (mut outside, mut bytes, mut encode, mut decode) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let (mut cycles, mut committed) = (0u64, 0u64);
    for ex in exchanges {
        latency.push(ex.latency_s);
        submit.push(ex.submit_s);
        if !ex.latency_s.is_finite() {
            report.failed += 1;
            continue;
        }
        let t = Instant::now();
        let result: CampaignResult = match serde::json::from_str(&ex.body) {
            Ok(result) => result,
            Err(e) => return failed(report, format!("result body does not decode: {e}")),
        };
        decode.push(t.elapsed().as_secs_f64());
        if traced {
            // The server's own encode call, repeated here to time it.
            let t = Instant::now();
            std::hint::black_box(result.to_json());
            encode.push(t.elapsed().as_secs_f64());
        }
        if let Err(e) = spec::check_result(&result, &ex.spec)
            .and_then(|()| book.record(&ex.spec, spec::outcome_digest(&result)))
        {
            return failed(report, e);
        }
        let campaign_s = result.wall_nanos as f64 / 1e9;
        wall.push(campaign_s);
        outside.push(ex.latency_s - campaign_s);
        bytes.push(ex.body.len() as f64);
        if let Some(f) = ex.fetch_s {
            fetch.push(f);
        }
        let (c, m) = crate::campaign::totals(&result);
        cycles += c;
        committed += m;
        done += 1;
        // Only the traced run's probe reads results back; keeping them
        // all would inflate the peak memory the run reports.
        if traced {
            completed.push((ex.client, ex.spec, result));
        }
    }
    report.digest(&book);
    report.timing("setup_s", &setup, "s");
    report.timing("wall_s", &wall, "s");
    report.metric("sim_muops_per_s", committed as f64 / window_s / 1e6, "Mop/s");
    report.metric("cpu_ns_per_cycle", cpu_ns as f64 / cycles as f64, "ns/cycle");
    report.metric("result_p50_s", latency.median(), "s");
    report.metric("result_p90_s", latency.percentile(90.0), "s");
    report.note(latency.describe("result_s (POST to last result byte)", "s"));
    report.metric("campaigns_per_s", done as f64 / window_s, "1/s");
    report.finish();
    if !traced {
        return ServiceRun { report, completed };
    }
    report.timing("server.submit_s", &submit, "s");
    report.timing("server.fetch_s", &fetch, "s");
    report.timing("server.campaign_s", &wall, "s");
    report.timing("server.outside_s", &outside, "s");
    report.timing("server.result_bytes", &bytes, "B");
    report.metric(
        "server.rejected_429",
        counter(&metrics_text, "powerbalance_campaigns_rejected_total"),
        "count",
    );
    report.metric(
        "harness.warm_cache_hits",
        counter(&metrics_text, "powerbalance_warm_cache_hits_total"),
        "count",
    );
    report.metric(
        "harness.warm_cache_computed",
        counter(&metrics_text, "powerbalance_warm_cache_computed_total"),
        "count",
    );
    report.timing("serde.encode_s", &encode, "s");
    report.timing("serde.decode_s", &decode, "s");
    ServiceRun { report, completed }
}
