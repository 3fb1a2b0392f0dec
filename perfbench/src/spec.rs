//! The inputs each workload hands the program, drawn from the seed, and the
//! checks every result must pass.

use crate::stats::{fnv1a, FNV_OFFSET};
use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{Fidelity, FloorplanKind, SchedulerKind, SimConfig};
use powerbalance_harness::{CampaignResult, CampaignSpec, JobResult};
use powerbalance_workloads::Xoshiro256;

/// Integer, floating-point, memory-bound and bursty: one benchmark of each
/// character the paper's tables span.
pub const BENCHES: [&str; 4] = ["gzip", "mesa", "mcf", "eon"];

/// Trace seeds one run draws from its seed. Each repetition of a run uses
/// the next of them in turn, so a run's median spans several workload
/// draws instead of resting on one.
pub const TRACE_SEEDS: u64 = 4;

/// The `i`-th trace seed of the run with seed `seed`; runs with different
/// seeds share none.
pub fn trace_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(TRACE_SEEDS).wrapping_add(i % TRACE_SEEDS)
}

/// How large a run's inputs are. `Tiny` exists for the smoke test only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The campaign of `paper_exact` (Exact) or `interval_long` (Fast). Per
/// benchmark it plans three kinds of unit: the six §5 policies on the
/// issue-constrained floorplan (one lockstep batch of width 6), the
/// combined policy on the ALU-constrained floorplan (a scalar singleton)
/// and a 2-core die (the multi-core engine). Caches start empty: there is
/// no warmup.
pub fn campaign(fidelity: Fidelity, seed: u64, size: Size) -> CampaignSpec {
    let defaults = SimConfig::default();
    // A tiny Fast run would sit inside the default detailed prefix whole.
    let (cycles, fast_warmup, fast_window) = match (fidelity, size) {
        (Fidelity::Exact, Size::Full) => (200_000, defaults.fast_warmup, defaults.fast_window),
        (Fidelity::Fast, Size::Full) => (2_000_000, defaults.fast_warmup, defaults.fast_window),
        (Fidelity::Exact, Size::Tiny) => (20_000, defaults.fast_warmup, defaults.fast_window),
        (Fidelity::Fast, Size::Tiny) => (60_000, 10_000, 20_000),
    };
    let tune = |config: SimConfig| SimConfig { fidelity, fast_warmup, fast_window, ..config };
    let name = match fidelity {
        Fidelity::Exact => "paper_exact",
        Fidelity::Fast => "interval_long",
    };
    let mut spec = CampaignSpec::new(name).benchmarks(BENCHES).cycles(cycles).seed(seed);
    for kind in PolicyKind::ALL {
        let config = experiments::policy(kind, FloorplanKind::IssueConstrained);
        spec = spec.config(kind.name(), tune(config));
    }
    let singleton = experiments::policy(PolicyKind::Combined, FloorplanKind::AluConstrained);
    let die = SimConfig {
        cores: 2,
        scheduler: SchedulerKind::CoolestFirst,
        ..experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained)
    };
    spec.config("alu-combined", tune(singleton)).config("die2", tune(die))
}

/// One short Exact campaign of `service_short`: one benchmark, two
/// distinct §5 policies (a batch of two), and on half the requests a
/// warmup. Trace seeds come from the run's small set, so warmup snapshots
/// repeat across requests and the service's warm-start cache hits.
pub fn service_request(rng: &mut Xoshiro256, seed: u64, size: Size) -> CampaignSpec {
    let bench = BENCHES[rng.below(BENCHES.len() as u64) as usize];
    let first = rng.below(PolicyKind::ALL.len() as u64) as usize;
    let second =
        (first + 1 + rng.below(PolicyKind::ALL.len() as u64 - 1) as usize) % PolicyKind::ALL.len();
    let warm = rng.below(2) == 0;
    let trace = trace_seed(seed, rng.below(TRACE_SEEDS));
    let (cycles, warmup) = match size {
        Size::Full => (60_000, 40_000),
        Size::Tiny => (10_000, 10_000),
    };
    let mut spec = CampaignSpec::new("service_short").benchmark(bench).cycles(cycles).seed(trace);
    for kind in [PolicyKind::ALL[first], PolicyKind::ALL[second]] {
        spec = spec.config(kind.name(), experiments::policy(kind, FloorplanKind::IssueConstrained));
    }
    if warm {
        spec = spec.warmup(warmup);
    }
    spec
}

/// Digest of a campaign's simulated outcome: the fields
/// [`JobResult::same_outcome`] compares, in the wire form, with host
/// timing zeroed. Equal digests mean equal simulations.
pub fn outcome_digest(result: &CampaignResult) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, serde::json::to_string(&result.spec).as_bytes());
    for job in &result.jobs {
        let outcome = JobResult { wall_nanos: 0, sim_cycles_per_sec: 0.0, ..job.clone() };
        hash = fnv1a(hash, serde::json::to_string(&outcome).as_bytes());
    }
    hash
}

/// Checks one campaign result is complete and physically plausible.
pub fn check_result(result: &CampaignResult, spec: &CampaignSpec) -> Result<(), String> {
    if result.spec != *spec {
        return Err(format!("campaign '{}' came back with a different spec", spec.name));
    }
    if result.jobs.len() != spec.job_count() {
        return Err(format!("{} of {} jobs came back", result.jobs.len(), spec.job_count()));
    }
    for job in &result.jobs {
        let r = &job.result;
        let what = format!("{}/{}", job.bench, job.config);
        if r.cycles < job.cycles_requested {
            return Err(format!("{what}: ran {} of {} cycles", r.cycles, job.cycles_requested));
        }
        if r.committed == 0 || !(r.ipc > 0.0 && r.ipc <= 6.0) {
            return Err(format!("{what}: implausible IPC {} ({} committed)", r.ipc, r.committed));
        }
        for t in &r.temperatures {
            let ok = |k: f64| k.is_finite() && (300.0..500.0).contains(&k);
            if !(ok(t.avg) && ok(t.max) && ok(t.last)) {
                return Err(format!("{what}: block {} temperature out of range", t.name));
            }
        }
    }
    Ok(())
}

/// Remembers the digest of each distinct spec and fails when a repeat of
/// the same spec produces a different outcome.
#[derive(Debug, Default)]
pub struct DigestBook {
    seen: Vec<(String, u64)>,
}

impl DigestBook {
    /// Records `digest` for `spec`; `true` when the spec is new.
    pub fn record(&mut self, spec: &CampaignSpec, digest: u64) -> Result<bool, String> {
        let key = serde::json::to_string(spec);
        match self.seen.iter().find(|(k, _)| *k == key) {
            Some((_, first)) if *first != digest => Err(format!(
                "campaign '{}' repeated with a different outcome: {first:016x} then {digest:016x}",
                spec.name
            )),
            Some(_) => Ok(false),
            None => {
                self.seen.push((key, digest));
                Ok(true)
            }
        }
    }

    /// One digest over every distinct spec's outcome, independent of the
    /// order requests completed in.
    pub fn combined(&self) -> u64 {
        let mut entries: Vec<&(String, u64)> = self.seen.iter().collect();
        entries.sort();
        entries.iter().fold(FNV_OFFSET, |h, (_, d)| fnv1a(h, &d.to_le_bytes()))
    }

    pub fn distinct(&self) -> usize {
        self.seen.len()
    }
}
