//! The traced run: per-layer metrics, the replay guard, and the span file.
//!
//! It is a separate invocation from the end-to-end run and measures the
//! same workload. Spans are kept in memory and written once, at exit, to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use crate::campaign::{self, options};
use crate::layers::{self, Engine, LayerTimes, ReplayOutcome, Tallied, Tally};
use crate::report::Report;
use crate::spec::{DigestBook, Size};
use crate::Host;
use powerbalance::{spec2000, Fidelity, RunResult, SimConfig, Simulator};
use powerbalance_harness::{plan_units, CampaignResult, CampaignSpec};
use std::rc::Rc;
use std::time::Instant;

/// Per-layer metrics: name, unit, and whether higher or lower is better.
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.ops", "count", "lower"),
    ("workloads.skip_s", "s", "lower"),
    ("workloads.skip_calls", "count", "lower"),
    ("uarch.cycle_s", "s", "lower"),
    ("uarch.cycles", "count", "lower"),
    ("uarch.committed", "count", "higher"),
    ("uarch.ns_per_cycle", "ns/cycle", "lower"),
    ("uarch.ipc", "op/cycle", "higher"),
    ("power.s", "s", "lower"),
    ("power.calls", "count", "lower"),
    ("thermal.s", "s", "lower"),
    ("thermal.calls", "count", "lower"),
    ("thermal.advance_us_1core", "us", "lower"),
    ("thermal.advance_us_2core", "us", "lower"),
    ("thermal.peak_k", "K", "lower"),
    ("mitigation.s", "s", "lower"),
    ("mitigation.calls", "count", "lower"),
    ("mitigation.freezes", "count", "lower"),
    ("mitigation.frozen_cycles", "count", "lower"),
    ("mitigation.toggles", "count", "lower"),
    ("mitigation.alu_turnoffs", "count", "lower"),
    ("mitigation.rf_turnoffs", "count", "lower"),
    ("core.scalar_s", "s", "lower"),
    ("core.batch_s", "s", "lower"),
    ("core.multicore_s", "s", "lower"),
    ("sched.migrations", "count", "lower"),
    ("sched.migration_stall_cycles", "count", "lower"),
    ("harness.units", "count", "lower"),
    ("harness.batch_width_mean", "count", "higher"),
    ("harness.pool_busy_ratio", "ratio", "higher"),
    ("harness.warm_cache_hits", "count", "higher"),
    ("harness.warm_cache_computed", "count", "lower"),
    ("server.submit_s", "s", "lower"),
    ("server.fetch_s", "s", "lower"),
    ("server.campaign_s", "s", "lower"),
    ("server.outside_s", "s", "lower"),
    ("server.result_bytes", "B", "lower"),
    ("server.rejected_429", "count", "lower"),
    ("serde.encode_s", "s", "lower"),
    ("serde.decode_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Warmup-free service campaigns the layer probe re-runs, per client.
const SERVICE_PROBES_PER_CLIENT: usize = 2;

/// One span: a named interval, and the span that caused it.
#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans { origin: Instant::now(), list: Vec::new() }
    }

    fn begin(&mut self, name: String, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.list.push(Span { name, parent, start_ns: now, end_ns: now });
        self.list.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.list[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": {:?}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

/// Layer totals over the campaigns a traced run probes. Each distinct
/// campaign is probed once, so the simulated counts repeat exactly.
#[derive(Debug, Default)]
struct Totals {
    units: u64,
    batch_units: u64,
    batch_jobs: u64,
    busy_ns: f64,
    capacity_ns: f64,
    cycles: u64,
    committed: u64,
    freezes: u64,
    frozen_cycles: u64,
    toggles: u64,
    alu_turnoffs: u64,
    rf_turnoffs: u64,
    peak_k: f64,
    engine_s: [f64; 3],
    migrations: u64,
    migration_stall_cycles: u64,
    skip_s: f64,
    skip_calls: u64,
    replay: LayerTimes,
    replayed: u64,
    gen_s: f64,
    ops: u64,
    replay_s: f64,
    reference_s: f64,
}

impl Totals {
    /// The campaign's plan and pool use, and its simulated counts, which
    /// no speed-only change may move.
    fn add_outcome(&mut self, spec: &CampaignSpec, result: &CampaignResult) {
        let units = plan_units(spec, options().max_batch);
        self.units += units.len() as u64;
        for unit in units.iter().filter(|u| u.len() > 1) {
            self.batch_units += 1;
            self.batch_jobs += unit.len() as u64;
        }
        self.busy_ns += result.jobs.iter().map(|j| j.wall_nanos as f64).sum::<f64>();
        self.capacity_ns += result.threads as f64 * result.wall_nanos as f64;
        for r in result.jobs.iter().map(|j| &j.result) {
            self.cycles += r.cycles;
            self.committed += r.committed;
            self.freezes += r.freezes;
            self.frozen_cycles += r.frozen_cycles;
            self.toggles += r.toggles;
            self.alu_turnoffs += r.alu_turnoffs;
            self.rf_turnoffs += r.rf_turnoffs;
            self.peak_k = self.peak_k.max(r.peak_temp());
        }
    }

    /// Re-runs every unit of a finished campaign directly on its engine,
    /// then replays its scalar configs window by window. Fails when an
    /// engine run differs from the campaign's job, or a replay from
    /// `Simulator::run`.
    fn probe(
        &mut self,
        spec: &CampaignSpec,
        result: &CampaignResult,
        spans: &mut Spans,
        parent: usize,
    ) -> Result<(), String> {
        let ncfg = spec.configs.len();
        let units = plan_units(spec, options().max_batch);
        let tally = Rc::new(Tally::default());
        for unit in &units {
            let bench = &spec.benchmarks[unit[0] / ncfg];
            let configs: Vec<SimConfig> =
                unit.iter().map(|&i| spec.configs[i % ncfg].config.clone()).collect();
            let cycles = spec.cycles_for(unit[0] % ncfg);
            let span = spans.begin(format!("core.run {bench} x{}", unit.len()), Some(parent));
            let run = layers::run_unit(&configs, bench, spec.seed, cycles, &tally)?;
            spans.end(span);
            for (&i, r) in unit.iter().zip(&run.results) {
                if result.jobs[i].result != *r {
                    let name = &spec.configs[i % ncfg].name;
                    return Err(format!(
                        "{bench}/{name}: a direct engine run differs from the job"
                    ));
                }
            }
            self.engine_s[run.engine as usize] += run.run_s;
            self.migrations += run.migrations;
            self.migration_stall_cycles += run.migration_stall_cycles;
        }
        self.skip_s += tally.skip_ns.get() as f64 / 1e9;
        self.skip_calls += tally.skip_calls.get();

        // Replay the scalar singletons; a plan without any replays every
        // single-core config instead.
        let scalar = |i: usize| spec.configs[i % ncfg].config.cores == 1;
        let mut targets: Vec<usize> =
            units.iter().filter(|u| u.len() == 1 && scalar(u[0])).map(|u| u[0]).collect();
        if targets.is_empty() {
            targets = units.iter().flatten().copied().filter(|&i| scalar(i)).collect();
        }
        for i in targets {
            self.replay_one(spec, i, &result.jobs[i].result, spans, parent)?;
        }
        Ok(())
    }

    /// The replay guard for job `i`: `Simulator::run`, then the replay,
    /// which must agree with it bit for bit, and it with the job.
    fn replay_one(
        &mut self,
        spec: &CampaignSpec,
        i: usize,
        job: &RunResult,
        spans: &mut Spans,
        parent: usize,
    ) -> Result<(), String> {
        let ncfg = spec.configs.len();
        let named = &spec.configs[i % ncfg];
        let bench = &spec.benchmarks[i / ncfg];
        let cycles = spec.cycles_for(i % ncfg);
        let profile = spec2000::by_name(bench).ok_or("unknown benchmark")?;
        let what = format!("{bench}/{}", named.name);

        let span = spans.begin(format!("reference {what}"), Some(parent));
        let start = Instant::now();
        let mut sim = Simulator::new(named.config.clone()).map_err(|e| e.to_string())?;
        let reference = sim.run(&mut profile.trace(spec.seed), cycles);
        self.reference_s += start.elapsed().as_secs_f64();
        spans.end(span);

        let span = spans.begin(format!("replay {what}"), Some(parent));
        let replay_tally = Rc::new(Tally::default());
        let mut trace = Tallied::new(profile.trace(spec.seed), &replay_tally);
        let start = Instant::now();
        let (outcome, times) = layers::replay(&named.config, &mut trace, cycles)?;
        self.replay_s += start.elapsed().as_secs_f64();
        spans.end(span);

        let expected = ReplayOutcome::of(&reference);
        if outcome != expected {
            let temps = if outcome.final_temp_bits == expected.final_temp_bits {
                "match"
            } else {
                "differ"
            };
            return Err(format!(
                "replay guard: {what} replayed {} commits, Simulator::run {}; final \
                 temperatures {temps}",
                outcome.committed, expected.committed
            ));
        }
        if reference != *job {
            return Err(format!("{what}: Simulator::run differs from the campaign's job"));
        }
        let ops = replay_tally.ops.get();
        let span = spans.begin(format!("workloads.redraw {bench} {ops} ops"), Some(parent));
        self.gen_s += layers::redraw_s(bench, spec.seed, ops);
        spans.end(span);
        self.ops += ops;
        self.replay.add(&times);
        self.replayed += 1;
        Ok(())
    }

    fn report(&self, report: &mut Report) {
        let unit = |name: &str| PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or("", |m| m.1);
        let mut put = |name: &str, value: f64| report.metric(name, value, unit(name));
        let cycle_s = self.replay.window_ns as f64 / 1e9 - self.gen_s;
        put("workloads.gen_s", self.gen_s);
        put("workloads.ops", self.ops as f64);
        put("workloads.skip_s", self.skip_s);
        put("workloads.skip_calls", self.skip_calls as f64);
        put("uarch.cycle_s", cycle_s);
        put("uarch.cycles", self.replay.core_cycles as f64);
        put("uarch.committed", self.replay.core_committed as f64);
        put("uarch.ns_per_cycle", cycle_s * 1e9 / self.replay.core_cycles.max(1) as f64);
        put("uarch.ipc", self.committed as f64 / self.cycles as f64);
        put("power.s", self.replay.power_ns as f64 / 1e9);
        put("power.calls", self.replay.power_calls as f64);
        put("thermal.s", self.replay.thermal_ns as f64 / 1e9);
        put("thermal.calls", self.replay.thermal_calls as f64);
        put("thermal.peak_k", self.peak_k);
        put("mitigation.s", self.replay.mitigation_ns as f64 / 1e9);
        put("mitigation.calls", self.replay.mitigation_calls as f64);
        put("mitigation.freezes", self.freezes as f64);
        put("mitigation.frozen_cycles", self.frozen_cycles as f64);
        put("mitigation.toggles", self.toggles as f64);
        put("mitigation.alu_turnoffs", self.alu_turnoffs as f64);
        put("mitigation.rf_turnoffs", self.rf_turnoffs as f64);
        put("core.scalar_s", self.engine_s[Engine::Scalar as usize]);
        put("core.batch_s", self.engine_s[Engine::Batch as usize]);
        put("core.multicore_s", self.engine_s[Engine::MultiCore as usize]);
        put("sched.migrations", self.migrations as f64);
        put("sched.migration_stall_cycles", self.migration_stall_cycles as f64);
        put("harness.units", self.units as f64);
        put("harness.batch_width_mean", self.batch_jobs as f64 / self.batch_units.max(1) as f64);
        put("harness.pool_busy_ratio", self.busy_ns / self.capacity_ns);
        put("trace.overhead_ratio", self.replay_s / self.reference_s);
    }
}

/// One campaign per trace seed, each probed once.
fn campaign_traced(fidelity: Fidelity, seed: u64, size: Size, spans: &mut Spans) -> Report {
    let (mut report, specs) = campaign::specs(fidelity, seed, size);
    let mut book = DigestBook::default();
    let mut totals = Totals::default();
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for spec in &specs {
        report.attempted += 1;
        let root = spans.begin(format!("campaign seed {}", spec.seed), None);
        let span = spans.begin("harness.run_campaign".to_string(), Some(root));
        let rep = campaign::run_rep(spec);
        spans.end(span);
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => return report.fail(e),
        };
        match campaign::verify(&rep, spec, &mut book) {
            Ok(s) => decode_s += s.unwrap_or(0.0),
            Err(e) => return report.fail(e),
        }
        encode_s += rep.result_s - rep.wall_s;
        totals.add_outcome(spec, &rep.result);
        if let Err(e) = totals.probe(spec, &rep.result, spans, root) {
            return report.fail(e);
        }
        spans.end(root);
    }
    report.digest(&book);
    totals.report(&mut report);
    report.metric("serde.encode_s", encode_s, "s");
    report.metric("serde.decode_s", decode_s, "s");
    // The CLI path has no server and no warmup to cache.
    for (name, unit, _) in PER_LAYER {
        if name.starts_with("server.") || name.starts_with("harness.warm_cache") {
            report.metric(name, 0.0, unit);
        }
    }
    report
}

/// The service under load for half the window, then a probe of the first
/// warmup-free campaigns each client submitted.
fn service_traced(seed: u64, seconds: f64, size: Size, spans: &mut Spans) -> Report {
    let root = spans.begin("service load".to_string(), None);
    let run = crate::service::run(seed, seconds / 2.0, size, true);
    spans.end(root);
    let mut report = run.report;
    if !report.correct() {
        return report;
    }
    let mut totals = Totals::default();
    let root = spans.begin("layer probe".to_string(), None);
    for client in 0..crate::service::CLIENTS {
        let probes = run.completed.iter().filter(|(c, s, _)| *c == client && s.warmup_cycles == 0);
        for (_, spec, result) in probes.take(SERVICE_PROBES_PER_CLIENT) {
            totals.add_outcome(spec, result);
            if let Err(e) = totals.probe(spec, result, spans, root) {
                return report.fail(e);
            }
        }
    }
    spans.end(root);
    if totals.replayed == 0 {
        return report.fail("no warmup-free campaign completed to probe".to_string());
    }
    totals.report(&mut report);
    report
}

/// Runs `workload` traced and writes its spans; the report carries the
/// per-layer metrics.
pub fn run(workload: &str, seed: u64, seconds: f64, size: Size, host: &Host) -> Report {
    let mut spans = Spans::new();
    let mut report = match workload {
        "paper_exact" => campaign_traced(Fidelity::Exact, seed, size, &mut spans),
        "interval_long" => campaign_traced(Fidelity::Fast, seed, size, &mut spans),
        _ => service_traced(seed, seconds, size, &mut spans),
    };
    report.metric("thermal.advance_us_1core", layers::advance_us(1), "us");
    report.metric("thermal.advance_us_2core", layers::advance_us(2), "us");
    if report.correct() {
        report.note(
            "replay guard: every scalar per-window replay matched Simulator::run bit for bit"
                .to_string(),
        );
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{workload}-{seed}.json");
    let body = format!(
        "{{\n  \"workload\": {workload:?},\n  \"seed\": {seed},\n  \"host\": {},\n  \"spans\": {}\n}}\n",
        host.to_json(),
        spans.to_json()
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => report.note(format!("spans: {} written to {path}", spans.list.len())),
        Err(e) => return report.fail(format!("writing {path}: {e}")),
    }
    report
}
