//! Per-layer measurement from outside the program: spans around calls into
//! each crate's public functions.
//!
//! Three instruments, all used only by the traced run:
//!
//! * [`Tallied`] wraps a workload generator, counts the micro-ops drawn from
//!   it and times `TraceSource::skip_ops` in place;
//! * [`run_unit`] runs one execution unit of a campaign directly on its
//!   engine (scalar, lockstep batch or multi-core), with a span around the
//!   engine's `run`;
//! * [`replay`] re-drives one scalar simulation window by window from the
//!   public APIs of `uarch`, `power`, `thermal` and `mitigation`, timing
//!   each layer. It mirrors `Simulator::run` (Exact and Fast) and must
//!   reproduce it bit for bit; [`crate::trace`] checks that it does.

use powerbalance::{
    spec2000, BatchSimulator, Fidelity, MultiCoreSimulator, RunResult, SimConfig, Simulator, Task,
    TaskSet, TraceCursor, TraceSource,
};
use powerbalance_isa::MicroOp;
use powerbalance_mitigation::{Sensors, ThermalManager};
use powerbalance_power::PowerModel;
use powerbalance_thermal::{ev6, ThermalModel};
use powerbalance_uarch::{ActivitySample, Core, CoreStats, IqActivity};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Counts shared by every clone of one [`Tallied`] source.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: Cell<u64>,
    pub skip_calls: Cell<u64>,
    pub skip_ns: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// A trace source that counts what the engine draws from it and times its
/// skips. Clones share the tally, as the batch engine's per-class clones
/// share one workload.
#[derive(Debug, Clone)]
pub struct Tallied<T> {
    inner: T,
    tally: Rc<Tally>,
}

impl<T> Tallied<T> {
    pub fn new(inner: T, tally: &Rc<Tally>) -> Self {
        Tallied { inner, tally: Rc::clone(tally) }
    }
}

impl<T: TraceSource> TraceSource for Tallied<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        let op = self.inner.next_op();
        if op.is_some() {
            bump(&self.tally.ops, 1);
        }
        op
    }

    fn skip_ops(&mut self, n: u64) {
        let start = Instant::now();
        self.inner.skip_ops(n);
        bump(&self.tally.skip_ns, start.elapsed().as_nanos() as u64);
        bump(&self.tally.skip_calls, 1);
    }
}

/// Which engine a unit ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Scalar,
    Batch,
    MultiCore,
}

/// What one unit run produced.
#[derive(Debug)]
pub struct UnitRun {
    pub engine: Engine,
    /// Seconds inside the engine's `run` (construction excluded).
    pub run_s: f64,
    /// One result per config of the unit, in unit order.
    pub results: Vec<RunResult>,
    pub migrations: u64,
    pub migration_stall_cycles: u64,
}

/// Runs one warmup-free execution unit exactly as the campaign runner
/// would: a multi-core die seeds core `c` with `seed + c`; a batch shares
/// one workload through a trace ring under Exact and clones it per class
/// under Fast.
pub fn run_unit(
    configs: &[SimConfig],
    bench: &str,
    seed: u64,
    cycles: u64,
    tally: &Rc<Tally>,
) -> Result<UnitRun, String> {
    let profile = spec2000::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let err = |e: powerbalance::Error| e.to_string();
    let first = &configs[0];
    if configs.len() == 1 && first.cores > 1 {
        let mut sim = MultiCoreSimulator::new(first.clone()).map_err(err)?;
        let mut tasks = TaskSet::new((0..first.cores).map(|c| {
            Task::unbounded(
                c as u64,
                Tallied::new(profile.trace(seed.wrapping_add(c as u64)), tally),
            )
        }));
        let start = Instant::now();
        let result = sim.run(&mut tasks, cycles);
        let run_s = start.elapsed().as_secs_f64();
        return Ok(UnitRun {
            engine: Engine::MultiCore,
            run_s,
            results: vec![result.merged()],
            migrations: result.migrations,
            migration_stall_cycles: result.migration_stall_cycles,
        });
    }
    if configs.len() == 1 {
        let mut sim = Simulator::new(first.clone()).map_err(err)?;
        let mut trace = Tallied::new(profile.trace(seed), tally);
        let start = Instant::now();
        let result = sim.run(&mut trace, cycles);
        let run_s = start.elapsed().as_secs_f64();
        return Ok(UnitRun {
            engine: Engine::Scalar,
            run_s,
            results: vec![result],
            migrations: 0,
            migration_stall_cycles: 0,
        });
    }
    let trace = Tallied::new(profile.trace(seed), tally);
    let (run_s, results) = match first.fidelity {
        Fidelity::Exact => {
            let mut batch =
                BatchSimulator::new(configs.to_vec(), TraceCursor::new(trace)).map_err(err)?;
            let start = Instant::now();
            let results = batch.run(cycles);
            (start.elapsed().as_secs_f64(), results)
        }
        Fidelity::Fast => {
            let mut batch = BatchSimulator::new(configs.to_vec(), trace).map_err(err)?;
            let start = Instant::now();
            let results = batch.run(cycles);
            (start.elapsed().as_secs_f64(), results)
        }
    };
    Ok(UnitRun { engine: Engine::Batch, run_s, results, migrations: 0, migration_stall_cycles: 0 })
}

/// Host time and call counts of each layer in a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Core cycling, trace generation included.
    pub window_ns: u64,
    pub power_ns: u64,
    pub power_calls: u64,
    pub thermal_ns: u64,
    pub thermal_calls: u64,
    pub mitigation_ns: u64,
    pub mitigation_calls: u64,
    /// Detailed (not extrapolated) core cycles.
    pub core_cycles: u64,
    /// Micro-ops committed in detailed cycles.
    pub core_committed: u64,
}

impl LayerTimes {
    pub fn add(&mut self, other: &LayerTimes) {
        self.window_ns += other.window_ns;
        self.power_ns += other.power_ns;
        self.power_calls += other.power_calls;
        self.thermal_ns += other.thermal_ns;
        self.thermal_calls += other.thermal_calls;
        self.mitigation_ns += other.mitigation_ns;
        self.mitigation_calls += other.mitigation_calls;
        self.core_cycles += other.core_cycles;
        self.core_committed += other.core_committed;
    }
}

/// The outcome the replay guard compares with `Simulator::run`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    pub committed: u64,
    /// Final block temperatures as bit patterns.
    pub final_temp_bits: Vec<u64>,
}

impl ReplayOutcome {
    pub fn of(result: &RunResult) -> Self {
        ReplayOutcome {
            committed: result.committed,
            final_temp_bits: result.temperatures.iter().map(|t| t.last.to_bits()).collect(),
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The interval engine's extrapolation basis, as `Simulator` keeps it.
#[derive(Debug, Default)]
struct Interval {
    prefix_left: u64,
    window_pos: u64,
    window_watts: Vec<f64>,
    int_iq: IqActivity,
    fp_iq: IqActivity,
    sample_cycles: u64,
    sample_committed: u64,
    sample_fetched: u64,
    extra_cycles: u64,
    extra_committed: u64,
}

fn scaled(basis: u64, skipped: u64, window_len: u64) -> u64 {
    if window_len == 0 {
        return 0;
    }
    (u128::from(basis) * u128::from(skipped) / u128::from(window_len)) as u64
}

/// One scalar machine assembled from the layer crates.
struct Machine {
    config: SimConfig,
    core: Core,
    power: PowerModel,
    thermal: ThermalModel,
    manager: ThermalManager,
    watts: Vec<f64>,
    idle_watts: Vec<f64>,
    warmed: bool,
    interval: Interval,
    times: LayerTimes,
}

impl Machine {
    fn new(config: &SimConfig) -> Result<Self, String> {
        let plan = ev6::build(config.floorplan);
        let core = Core::new(config.core.clone())?;
        let power = PowerModel::new(&plan, config.energy, config.frequency_hz)?;
        let thermal = ThermalModel::new(&plan, config.package);
        let manager = ThermalManager::new(config.mitigation, Sensors::new(&plan)?);
        let blocks = plan.blocks().len();
        let mut idle_watts = vec![0.0; blocks];
        power.block_power_into(&ActivitySample::default(), &mut idle_watts);
        let prefix_left = match config.fidelity {
            Fidelity::Fast => config.fast_warmup,
            Fidelity::Exact => 0,
        };
        Ok(Machine {
            config: config.clone(),
            core,
            power,
            thermal,
            manager,
            watts: vec![0.0; blocks],
            idle_watts,
            warmed: false,
            interval: Interval {
                prefix_left,
                window_watts: vec![0.0; blocks],
                ..Interval::default()
            },
            times: LayerTimes::default(),
        })
    }

    fn run_window<T: TraceSource>(&mut self, trace: &mut T, window: u64) -> u64 {
        let start = Instant::now();
        let mut ran = 0u64;
        for _ in 0..window {
            self.core.cycle(trace);
            ran += 1;
            if self.core.is_done() {
                break;
            }
        }
        self.times.window_ns += elapsed_ns(start);
        ran
    }

    fn virtual_now(&self) -> u64 {
        self.core.stats().cycles + self.interval.extra_cycles
    }

    /// power → thermal → mitigation for the window that just ran.
    fn sample(&mut self) {
        let start = Instant::now();
        let activity = self.core.take_activity();
        if activity.cycles == 0 {
            return;
        }
        self.interval.int_iq = activity.int_iq;
        self.interval.fp_iq = activity.fp_iq;
        let scale = self.manager.dynamic_power_scale();
        if scale == 1.0 {
            self.power.block_power_into(&activity, &mut self.watts);
        } else {
            self.power.block_power_scaled_into(&activity, scale, &mut self.watts);
        }
        self.times.power_ns += elapsed_ns(start);
        self.times.power_calls += 1;

        let start = Instant::now();
        if self.config.warm_start && !self.warmed {
            self.warmed = true;
            self.thermal.settle(&self.watts);
        } else {
            self.thermal.step(&self.watts, activity.cycles as f64 / self.config.frequency_hz);
        }
        self.times.thermal_ns += elapsed_ns(start);
        self.times.thermal_calls += 1;

        let now = self.virtual_now();
        self.consult(now, &activity.int_iq, &activity.fp_iq);
    }

    fn consult(&mut self, now: u64, int_iq: &IqActivity, fp_iq: &IqActivity) {
        let start = Instant::now();
        self.manager.on_sample(&mut self.core, self.thermal.temperatures(), now, int_iq, fp_iq);
        self.times.mitigation_ns += elapsed_ns(start);
        self.times.mitigation_calls += 1;
    }

    fn record_window(&mut self, before: &CoreStats) {
        let iv = &mut self.interval;
        let first_sample = iv.sample_cycles == 0;
        let after = self.core.stats();
        iv.sample_cycles = after.cycles - before.cycles;
        iv.sample_committed = after.committed - before.committed;
        iv.sample_fetched = after.fetched - before.fetched;
        if first_sample {
            iv.window_watts.copy_from_slice(&self.watts);
        } else {
            for (held, w) in iv.window_watts.iter_mut().zip(&self.watts) {
                *held = 0.5 * *held + 0.5 * w;
            }
        }
    }

    fn skip_advance<T: TraceSource>(&mut self, trace: &mut T, sub: u64) {
        let dt = sub as f64 / self.config.frequency_hz;
        let frozen = self.core.is_frozen();
        let start = Instant::now();
        let held = if frozen { &self.idle_watts } else { &self.interval.window_watts };
        self.thermal.advance(held, dt);
        self.times.thermal_ns += elapsed_ns(start);
        self.times.thermal_calls += 1;
        let iv = &mut self.interval;
        iv.extra_cycles += sub;
        if !frozen {
            let len = iv.sample_cycles;
            trace.skip_ops(scaled(iv.sample_fetched, sub, len));
            iv.extra_committed += scaled(iv.sample_committed, sub, len);
        }
    }

    fn run<T: TraceSource>(&mut self, trace: &mut T, cycles: u64) {
        let interval = self.config.sample_interval;
        let stretch = self.config.fast_window / interval;
        let fast = self.config.fidelity == Fidelity::Fast;
        let mut elapsed = 0u64;
        while elapsed < cycles && !self.core.is_done() {
            let sub = interval.min(cycles - elapsed);
            if !fast {
                elapsed += self.run_window(trace, sub);
                self.sample();
                continue;
            }
            let in_prefix = self.interval.prefix_left > 0;
            if in_prefix || self.interval.window_pos == 0 {
                let before = *self.core.stats();
                elapsed += self.run_window(trace, sub);
                self.sample();
                self.record_window(&before);
            } else {
                elapsed += sub;
                self.skip_advance(trace, sub);
                let now = self.virtual_now();
                let (int_iq, fp_iq) = (self.interval.int_iq, self.interval.fp_iq);
                self.consult(now, &int_iq, &fp_iq);
            }
            if in_prefix {
                self.interval.prefix_left = self.interval.prefix_left.saturating_sub(sub);
            } else {
                self.interval.window_pos = (self.interval.window_pos + 1) % stretch;
            }
        }
        self.times.core_cycles = self.core.stats().cycles;
        self.times.core_committed = self.core.stats().committed;
    }
}

/// Re-drives `Simulator::run(trace, cycles)` for `config` window by window
/// from the layer crates' public APIs, timing each layer.
pub fn replay<T: TraceSource>(
    config: &SimConfig,
    trace: &mut T,
    cycles: u64,
) -> Result<(ReplayOutcome, LayerTimes), String> {
    let mut machine = Machine::new(config)?;
    machine.run(trace, cycles);
    let outcome = ReplayOutcome {
        committed: machine.core.stats().committed + machine.interval.extra_committed,
        final_temp_bits: (0..machine.thermal.block_count())
            .map(|i| machine.thermal.temperature(i).to_bits())
            .collect(),
    };
    Ok((outcome, machine.times))
}

/// Seconds to draw `ops` micro-ops from a fresh generator of `bench` with
/// `seed`: the trace-generation share of a run that consumed that many.
pub fn redraw_s(bench: &str, seed: u64, ops: u64) -> f64 {
    let Some(profile) = spec2000::by_name(bench) else {
        return 0.0;
    };
    let mut trace = profile.trace(seed);
    let start = Instant::now();
    for _ in 0..ops {
        std::hint::black_box(trace.next_op());
    }
    start.elapsed().as_secs_f64()
}

/// Microseconds per `ThermalModel::advance` of one sampling interval on a
/// die of `cores` issue-constrained cores, propagator cache warm (median of
/// five batches).
pub fn advance_us(cores: usize) -> f64 {
    let defaults = SimConfig::default();
    let plan = ev6::build(powerbalance::FloorplanKind::IssueConstrained);
    let die = powerbalance_thermal::multicore::replicate(&plan, cores);
    let mut model = ThermalModel::new(&die, defaults.package);
    let watts = vec![2.0; die.blocks().len()];
    let dt = defaults.sample_interval as f64 / defaults.frequency_hz;
    model.advance(&watts, dt);
    const CALLS: u32 = 2_000;
    let mut batches = crate::stats::Samples::default();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..CALLS {
            model.advance(std::hint::black_box(&watts), dt);
        }
        batches.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS));
    }
    batches.median()
}
