//! `paper_exact` and `interval_long`: CLI-style campaigns through
//! `run_campaign`, repeated for the measurement window.

use crate::report::Report;
use crate::spec::{self, DigestBook, Size};
use crate::stats::{process_cpu_ns, BySeed, Samples};
use powerbalance::{
    spec2000, BatchSimulator, Fidelity, MultiCoreSimulator, SimConfig, Simulator, TraceCursor,
};
use powerbalance_harness::{plan_units, run_campaign, CampaignResult, CampaignSpec, RunnerOptions};
use std::hint::black_box;
use std::time::Instant;

/// Pool threads of every campaign: the host has two cores.
pub const THREADS: usize = 2;

/// Set-up repetitions per run; the reported set-up time is their median.
const SETUP_REPEATS: usize = 31;

/// Campaign repetitions a run makes even when the window is already over:
/// every trace seed twice, so the repeat check always has pairs.
const MIN_REPS: u64 = 2 * spec::TRACE_SEEDS;

pub fn options() -> RunnerOptions {
    RunnerOptions { threads: Some(THREADS), ..RunnerOptions::default() }
}

/// One campaign as a CLI user runs it: `run_campaign`, then the JSON
/// artifact bytes.
pub struct Rep {
    pub result: CampaignResult,
    pub wall_s: f64,
    /// Until the artifact bytes exist (`wall_s` plus encoding).
    pub result_s: f64,
    pub cpu_ns: u64,
    pub bytes: String,
}

pub fn run_rep(spec: &CampaignSpec) -> Result<Rep, String> {
    let cpu = process_cpu_ns();
    let start = Instant::now();
    let result = run_campaign(spec, &options()).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let bytes = result.to_json();
    let result_s = start.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu;
    Ok(Rep { result, wall_s, result_s, cpu_ns, bytes })
}

/// Checks a repetition and records its digest. The first repetition of
/// each spec also decodes its bytes (a repeat has the same outcome, which
/// the digest checks); returns that decode time.
pub fn verify(
    rep: &Rep,
    spec: &CampaignSpec,
    book: &mut DigestBook,
) -> Result<Option<f64>, String> {
    spec::check_result(&rep.result, spec)?;
    if !book.record(spec, spec::outcome_digest(&rep.result))? {
        return Ok(None);
    }
    let start = Instant::now();
    let decoded: CampaignResult =
        serde::json::from_str(&rep.bytes).map_err(|e| format!("result does not decode: {e}"))?;
    let decode_s = start.elapsed().as_secs_f64();
    if !decoded.same_outcome(&rep.result) {
        return Err("decoded result differs from the one encoded".to_string());
    }
    Ok(Some(decode_s))
}

/// Builds the engine of every execution unit, as `run_campaign` does
/// before the first unit can run.
fn setup_once(spec: &CampaignSpec) -> Result<f64, String> {
    let start = Instant::now();
    spec.validate().map_err(|e| e.to_string())?;
    let ncfg = spec.configs.len();
    for unit in plan_units(spec, options().max_batch) {
        let bench = &spec.benchmarks[unit[0] / ncfg];
        let trace = spec2000::by_name(bench).ok_or("unknown benchmark")?.trace(spec.seed);
        let configs: Vec<SimConfig> =
            unit.iter().map(|&i| spec.configs[i % ncfg].config.clone()).collect();
        let err = |e: powerbalance::Error| e.to_string();
        if configs.len() == 1 && configs[0].cores > 1 {
            black_box(MultiCoreSimulator::new(configs[0].clone()).map_err(err)?);
        } else if configs.len() == 1 {
            black_box(Simulator::new(configs[0].clone()).map_err(err)?);
        } else if configs[0].fidelity == Fidelity::Exact {
            black_box(BatchSimulator::new(configs, TraceCursor::new(trace)).map_err(err)?);
        } else {
            black_box(BatchSimulator::new(configs, trace).map_err(err)?);
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

pub fn setup(spec: &CampaignSpec) -> Result<Samples, String> {
    let mut samples = Samples::default();
    for _ in 0..SETUP_REPEATS {
        samples.push(setup_once(spec)?);
    }
    Ok(samples)
}

/// Simulated (virtual, under Fast) cycles and committed micro-ops.
pub fn totals(result: &CampaignResult) -> (u64, u64) {
    result.jobs.iter().fold((0, 0), |(c, m), j| (c + j.result.cycles, m + j.result.committed))
}

/// The run's campaigns, one per trace seed, and a report noting them.
pub fn specs(fidelity: Fidelity, seed: u64, size: Size) -> (Report, Vec<CampaignSpec>) {
    let specs: Vec<CampaignSpec> = (0..spec::TRACE_SEEDS)
        .map(|i| spec::campaign(fidelity, spec::trace_seed(seed, i), size))
        .collect();
    let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
    let mut report = Report::new(&specs[0].name);
    report.note(format!(
        "inputs: {} benchmarks x {} configs, {} cycles per job, {} fidelity, {THREADS} pool \
         threads, trace seeds {seeds:?} in turn; caches start empty (warmup 0)",
        specs[0].benchmarks.len(),
        specs[0].configs.len(),
        specs[0].cycles,
        fidelity.name(),
    ));
    (report, specs)
}

pub fn run(fidelity: Fidelity, seed: u64, seconds: f64, size: Size) -> Report {
    let (mut report, specs) = specs(fidelity, seed, size);
    let setup = match setup(&specs[0]) {
        Ok(samples) => samples,
        Err(e) => return report.fail(e),
    };
    let mut book = DigestBook::default();
    let (mut wall, mut result_s, mut cpu, mut muops) =
        (BySeed::default(), BySeed::default(), BySeed::default(), BySeed::default());
    let start = Instant::now();
    while report.attempted < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let k = report.attempted as usize % specs.len();
        let spec = &specs[k];
        report.attempted += 1;
        let rep = match run_rep(spec).and_then(|rep| verify(&rep, spec, &mut book).map(|_| rep)) {
            Ok(rep) => rep,
            Err(e) => return report.fail(e),
        };
        let (cycles, committed) = totals(&rep.result);
        wall.push(k, rep.wall_s);
        result_s.push(k, rep.result_s);
        cpu.push(k, rep.cpu_ns as f64 / cycles as f64);
        muops.push(k, committed as f64 / rep.wall_s / 1e6);
    }
    report.digest(&book);
    report.timing("setup_s", &setup, "s");
    report.balanced("wall_s", &wall, "s");
    report.balanced("sim_muops_per_s", &muops, "Mop/s");
    report.balanced("cpu_ns_per_cycle", &cpu, "ns/cycle");
    report.balanced("result_p50_s", &result_s, "s");
    let pooled = result_s.pooled();
    report.metric("result_p90_s", pooled.percentile(90.0), "s");
    report.metric("campaigns_per_s", pooled.len() as f64 / pooled.sum(), "1/s");
    report.finish();
    report
}
