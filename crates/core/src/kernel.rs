//! The window kernel: the per-core lane, the die that lanes share, and
//! the one drive loop every engine runs.
//!
//! The paper's method is one sense/react loop per sampling window:
//! cycle the core, convert its activity into per-block power, step the
//! thermal network, let the mitigation manager react. This module owns
//! that loop exactly once:
//!
//! - [`Lane`] is one simulated core: pipeline, mitigation manager,
//!   temperature statistics, the interval engine's extrapolation basis
//!   and totals, and the optional runtime checker. Its methods are the
//!   per-window steps (checker-bracketed cycles, activity harvest, the
//!   detailed-window EWMA record, consult, statistics, the skipped-window
//!   fast-forward, `RunResult` and state capture/restore).
//! - [`Die`] is N lanes over slices of one thermal model: one power
//!   vector, one thermal step per window, idle lanes contributing leakage.
//! - [`drive`] is the window clock and loop. Under
//!   [`Fidelity::Exact`] every window is detailed; under
//!   [`Fidelity::Fast`] the warmup prefix runs detailed, then one window
//!   in `fast_window / sample_interval` is detailed and the rest are
//!   advanced analytically.
//!
//! The engines supply only what is theirs through [`Engine`]: the scalar
//! [`crate::Simulator`] is a one-lane die plus its history, the
//! [`crate::MultiCoreSimulator`] an N-lane die plus dispatch, retirement
//! and migration, and the [`crate::BatchSimulator`] one one-lane die per
//! equivalence class plus the batched thermal solve and consult-and-fork.

use crate::config::Fidelity;
use crate::snapshot::{decode_bits, encode_bits};
use crate::{
    BlockTemperature, Error, FastEngineState, LaneState, RunControl, RunResult, SimConfig,
    SimulatorState, StopCause,
};
use powerbalance_isa::TraceSource;
use powerbalance_mitigation::{ManagerState, MitigationStats, Sensors, ThermalManager};
use powerbalance_power::PowerModel;
use powerbalance_thermal::{ev6, multicore, Floorplan, ThermalModel};
use powerbalance_uarch::{ActivitySample, Core, CoreState, CoreStats, IqActivity};

/// The interval engine's phase clock, shared by every lane of an engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowClock {
    /// Cycles per sampling window ([`SimConfig::sample_interval`]).
    interval: u64,
    /// Whether the interval engine runs ([`Fidelity::Fast`]).
    fast: bool,
    /// Sampling windows per macro window under Fast.
    stretch: u64,
    /// Detailed warmup-prefix cycles still to run before interval
    /// sampling engages ([`SimConfig::fast_warmup`]).
    pub(crate) prefix_left: u64,
    /// Windows completed in the current macro window; `0` means the next
    /// window is detailed.
    pub(crate) window_pos: u64,
}

impl WindowClock {
    pub(crate) fn new(config: &SimConfig) -> Self {
        let fast = config.fidelity == Fidelity::Fast;
        WindowClock {
            interval: config.sample_interval,
            fast,
            stretch: config.fast_window / config.sample_interval,
            prefix_left: if fast { config.fast_warmup } else { 0 },
            window_pos: 0,
        }
    }

    /// Whether the next window is simulated cycle by cycle.
    fn detailed(&self) -> bool {
        !self.fast || self.prefix_left > 0 || self.window_pos == 0
    }

    /// Closes a window of `window` cycles: burns warmup-prefix budget or
    /// steps the macro-window phase. The prefix is detailed wall to wall;
    /// the phase only starts counting once it is spent, so the first
    /// post-prefix window begins a fresh macro window.
    fn tick(&mut self, window: u64) {
        if !self.fast {
            return;
        }
        if self.prefix_left > 0 {
            self.prefix_left = self.prefix_left.saturating_sub(window);
        } else {
            self.window_pos = (self.window_pos + 1) % self.stretch;
        }
    }
}

/// What an engine adds to the shared loop: how its lanes get work, run a
/// detailed window, and advance a skipped one.
pub(crate) trait Engine {
    /// The engine's window clock.
    fn clock(&mut self) -> &mut WindowClock;

    /// Readies the next window (the multi-core engine dispatches here)
    /// and reports whether any lane can still run.
    fn live(&mut self) -> bool;

    /// Runs one detailed window of up to `window` cycles and its
    /// sense/react step; `record` keeps the window as the interval
    /// engine's extrapolation basis. Returns how far the clock advanced.
    fn detailed(&mut self, window: u64, record: bool, consult: bool) -> u64;

    /// Advances one window of `window` cycles analytically.
    fn skipped(&mut self, window: u64, consult: bool);
}

/// The one drive loop: runs `engine` for up to `cycles` cycles, checking
/// `control` between windows. `consult == false` is the mitigation-free
/// warmup: power and thermal advance, statistics accumulate, no manager
/// ever reacts.
///
/// Under Fast, skipped windows still end in a manager consult against the
/// analytically advanced temperatures at virtual time (core cycles plus
/// skipped cycles), so trip points, hysteresis and stall schedules play
/// out on the Exact sampling cadence.
pub(crate) fn drive<E: Engine>(
    engine: &mut E,
    cycles: u64,
    control: &RunControl<'_>,
    consult: bool,
) -> StopCause {
    let mut elapsed = 0u64;
    loop {
        if !engine.live() || elapsed >= cycles {
            return StopCause::Completed;
        }
        if let Some(stop) = control.stop_cause() {
            return stop;
        }
        let clock = *engine.clock();
        let window = clock.interval.min(cycles - elapsed);
        if clock.detailed() {
            elapsed += engine.detailed(window, clock.fast, consult);
        } else {
            engine.skipped(window, consult);
            elapsed += window;
        }
        engine.clock().tick(window);
    }
}

/// Extrapolates one of the detailed window's counters over `skipped`
/// cycles, proportionally to the window's own length.
fn scaled(basis: u64, skipped: u64, window_len: u64) -> u64 {
    if window_len == 0 {
        return 0;
    }
    (u128::from(basis) * u128::from(skipped) / u128::from(window_len)) as u64
}

/// One simulated core and its per-window steps.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) core: Core,
    /// The lane's own mitigation manager. The batch engine keeps each
    /// sibling's manager outside the class and leaves this one idle.
    pub(crate) manager: ThermalManager,
    /// Per-block running sums for averages over non-stalled samples.
    temp_sum: Vec<f64>,
    temp_samples: u64,
    temp_max: Vec<f64>,
    /// Interval-engine basis and extrapolated totals. Its clock fields
    /// stay zero (the engine's [`WindowClock`] owns the phase) and its
    /// power bits stay empty (the held vector lives in `held_watts`).
    fast: FastEngineState,
    /// Per-block power held across skipped windows: the EWMA of the
    /// detailed windows' measured power.
    held_watts: Vec<f64>,
    /// Differential oracle + invariant checkers, armed by
    /// [`Die::enable_checking`].
    #[cfg(feature = "check")]
    pub(crate) checker: Option<Box<powerbalance_check::RuntimeChecker>>,
    /// Core stats at the start of the current window; scratch.
    before: CoreStats,
    /// Whether this window samples the lane (it ran, or is busy across a
    /// skipped window); scratch.
    pub(crate) sampled: bool,
    /// Freeze state before this window's consult; scratch.
    pub(crate) frozen: bool,
}

/// The per-lane part of a captured state, borrowed from either wire
/// struct ([`SimulatorState`] or [`LaneState`]).
pub(crate) struct LaneParts<'a> {
    core: &'a CoreState,
    manager: &'a ManagerState,
    temp_sum_bits: &'a [u64],
    temp_max_bits: &'a [u64],
    temp_samples: u64,
    fast: &'a FastEngineState,
}

impl<'a> From<&'a LaneState> for LaneParts<'a> {
    fn from(s: &'a LaneState) -> Self {
        LaneParts {
            core: &s.core,
            manager: &s.manager,
            temp_sum_bits: &s.temp_sum_bits,
            temp_max_bits: &s.temp_max_bits,
            temp_samples: s.temp_samples,
            fast: &s.fast,
        }
    }
}

impl<'a> From<&'a SimulatorState> for LaneParts<'a> {
    fn from(s: &'a SimulatorState) -> Self {
        LaneParts {
            core: &s.core,
            manager: &s.manager,
            temp_sum_bits: &s.temp_sum_bits,
            temp_max_bits: &s.temp_max_bits,
            temp_samples: s.temp_samples,
            fast: &s.fast,
        }
    }
}

impl Lane {
    fn new(config: &SimConfig, plan: &Floorplan) -> Result<Lane, Error> {
        let blocks = plan.blocks().len();
        Ok(Lane {
            core: Core::new(config.core.clone())?,
            manager: ThermalManager::new(config.mitigation, Sensors::new(plan)?),
            temp_sum: vec![0.0; blocks],
            temp_samples: 0,
            temp_max: vec![f64::MIN; blocks],
            fast: FastEngineState::default(),
            held_watts: vec![0.0; blocks],
            #[cfg(feature = "check")]
            checker: None,
            before: CoreStats::default(),
            sampled: false,
            frozen: false,
        })
    }

    /// Virtual time: core cycles plus analytically skipped cycles. Under
    /// Exact the offset is always zero.
    pub(crate) fn now(&self) -> u64 {
        self.core.stats().cycles + self.fast.extra_cycles
    }

    /// The consult inputs of the current window: virtual time and the
    /// issue-queue activity (the window's own, or in a skipped window the
    /// last detailed one's).
    pub(crate) fn consult_inputs(&self) -> (u64, IqActivity, IqActivity) {
        (self.now(), self.fast.window_int_iq, self.fast.window_fp_iq)
    }

    /// Cycles the core up to `budget` times, bracketed by the runtime
    /// checker when one is armed; stops early when the trace drains.
    /// Returns the cycles run. Monomorphized over the caller's trace, so
    /// with the `check` feature off this is a bare `Core::cycle` loop.
    pub(crate) fn cycles<T: TraceSource>(&mut self, trace: &mut T, budget: u64) -> u64 {
        self.before = *self.core.stats();
        let mut ran = 0u64;
        #[cfg(feature = "check")]
        if let Some(checker) = &mut self.checker {
            for _ in 0..budget {
                checker.before_cycle(&self.core);
                self.core.cycle(trace);
                checker.after_cycle(&mut self.core);
                ran += 1;
                if self.core.is_done() {
                    break;
                }
            }
            return ran;
        }
        for _ in 0..budget {
            self.core.cycle(trace);
            ran += 1;
            if self.core.is_done() {
                break;
            }
        }
        ran
    }

    /// Harvests the window's activity and writes its power into `out`
    /// (leakage-only `idle` when no cycle ran). Latches the issue-queue
    /// activity that skipped-window consults replay. Returns the window's
    /// cycles.
    fn harvest(&mut self, power: &PowerModel, scale: f64, out: &mut [f64], idle: &[f64]) -> u64 {
        let activity = self.core.take_activity();
        self.sampled = activity.cycles > 0;
        if !self.sampled {
            out.copy_from_slice(idle);
            return 0;
        }
        self.fast.window_int_iq = activity.int_iq;
        self.fast.window_fp_iq = activity.fp_iq;
        // DVFS scales dynamic energy by V²f; the unscaled path is kept for
        // the common case so spatial-only runs execute the identical code.
        if scale == 1.0 {
            power.block_power_into(&activity, out);
        } else {
            power.block_power_scaled_into(&activity, scale, out);
        }
        activity.cycles
    }

    /// Keeps the detailed window that just ended as the extrapolation
    /// basis for the skipped windows that follow: its counter deltas, and
    /// its measured power `watts` blended into the held vector.
    fn record(&mut self, watts: &[f64]) {
        let first_sample = self.fast.sample_cycles == 0;
        let (after, before) = (self.core.stats(), &self.before);
        self.fast.sample_cycles = after.cycles - before.cycles;
        self.fast.sample_committed = after.committed - before.committed;
        self.fast.sample_fetched = after.fetched - before.fetched;
        self.fast.sample_frozen = after.frozen_cycles - before.frozen_cycles;
        self.fast.sample_throttled = after.throttled_cycles - before.throttled_cycles;
        self.fast.sample_fetch_gated = after.fetch_gated_cycles - before.fetch_gated_cycles;
        if first_sample {
            self.held_watts.copy_from_slice(watts);
        } else {
            // One detailed window is a noisy estimate of the power the
            // skipped cycles will dissipate; blending recent windows
            // halves the estimator variance at the cost of one macro
            // window of lag (EWMA, α = 1/2).
            for (held, w) in self.held_watts.iter_mut().zip(watts) {
                *held = 0.5 * *held + 0.5 * w;
            }
        }
    }

    /// Extrapolates one skipped window of `sub` cycles: fast-forwards the
    /// workload past the ops those cycles would have consumed (so the
    /// next detailed window samples the program phase virtual time has
    /// reached) and scales the basis counters. A frozen core fetches,
    /// commits and switches nothing: the whole window is stall time.
    pub(crate) fn skip<T: TraceSource>(&mut self, trace: &mut T, sub: u64) {
        let f = &mut self.fast;
        f.extra_cycles += sub;
        if self.frozen {
            f.extra_frozen += sub;
            return;
        }
        let len = f.sample_cycles;
        trace.skip_ops(scaled(f.sample_fetched, sub, len));
        f.extra_committed += scaled(f.sample_committed, sub, len);
        f.extra_frozen += scaled(f.sample_frozen, sub, len);
        f.extra_throttled += scaled(f.sample_throttled, sub, len);
        f.extra_fetch_gated += scaled(f.sample_fetch_gated, sub, len);
    }

    /// Lets the manager react to `temps` at virtual time, fed the window's
    /// (or, when skipped, the last detailed window's) issue-queue
    /// activity. `checked` brackets the consult with the mitigation
    /// mirror; skipped windows are not mirrored.
    #[cfg_attr(not(feature = "check"), allow(unused_variables))]
    fn consult(&mut self, temps: &[f64], checked: bool) {
        let (now, int_iq, fp_iq) = self.consult_inputs();
        #[cfg(feature = "check")]
        let mut checker = self.checker.as_deref_mut().filter(|_| checked);
        #[cfg(feature = "check")]
        if let Some(checker) = checker.as_mut() {
            checker.before_sample(&self.core, &self.manager);
        }
        self.manager.on_sample(&mut self.core, temps, now, &int_iq, &fp_iq);
        #[cfg(feature = "check")]
        if let Some(checker) = checker {
            checker.after_sample(&self.core, &self.manager, temps, now, &int_iq, &fp_iq);
        }
    }

    /// Accumulates the window's temperature statistics. The paper's table
    /// temperatures average over execution (non-stalled) time; the peak
    /// is tracked unconditionally.
    fn account(&mut self, temps: &[f64]) {
        if !self.frozen {
            for (sum, t) in self.temp_sum.iter_mut().zip(temps) {
                *sum += t;
            }
            self.temp_samples += 1;
        }
        for (max, t) in self.temp_max.iter_mut().zip(temps) {
            *max = max.max(*t);
        }
    }

    /// The accumulated results against the lane's current temperatures
    /// `last`, reporting `mstats` as the mitigation counters. The
    /// interval engine's extrapolated cycles fold back into the headline
    /// counters; under Exact every `extra_*` is zero and the arithmetic
    /// reduces bit for bit to the core's own counters.
    fn result(&self, plan: &Floorplan, last: &[f64], mstats: &MitigationStats) -> RunResult {
        let stats = self.core.stats();
        let samples = self.temp_samples.max(1) as f64;
        let temperatures = plan
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| BlockTemperature {
                name: b.name.clone(),
                avg: if self.temp_samples == 0 { last[i] } else { self.temp_sum[i] / samples },
                max: if self.temp_max[i] == f64::MIN { last[i] } else { self.temp_max[i] },
                last: last[i],
            })
            .collect();
        let cycles = stats.cycles + self.fast.extra_cycles;
        let committed = stats.committed + self.fast.extra_committed;
        RunResult {
            cycles,
            committed,
            ipc: if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 },
            frozen_cycles: stats.frozen_cycles + self.fast.extra_frozen,
            toggles: mstats.toggles,
            alu_turnoffs: mstats.alu_turnoffs,
            rf_turnoffs: mstats.rf_turnoffs,
            freezes: mstats.freezes,
            opp_transitions: mstats.opp_transitions,
            duty_shifts: mstats.duty_shifts,
            throttled_cycles: stats.throttled_cycles + self.fast.extra_throttled,
            fetch_gated_cycles: stats.fetch_gated_cycles + self.fast.extra_fetch_gated,
            temperatures,
            int_issued_per_unit: stats.int_issued_per_unit,
            int_rf_reads: stats.int_rf_reads,
            mispredict_rate: self.core.bpred().mispredict_rate(),
            l1d_miss_rate: self.core.memory().l1d().miss_rate(),
        }
    }

    /// Captures the lane's dynamic state; the clock fields and the
    /// multi-core `stall_left` are left zero for the engine to fill.
    pub(crate) fn state(&self) -> LaneState {
        LaneState {
            core: self.core.snapshot(),
            manager: self.manager.snapshot(),
            temp_sum_bits: encode_bits(&self.temp_sum),
            temp_max_bits: encode_bits(&self.temp_max),
            temp_samples: self.temp_samples,
            fast: FastEngineState {
                window_watts_bits: encode_bits(&self.held_watts),
                ..self.fast.clone()
            },
            stall_left: 0,
        }
    }

    /// Checks `parts` against this lane and builds the restored core,
    /// changing nothing: [`apply`](Self::apply) commits the result.
    fn prepare(&self, config: &SimConfig, parts: &LaneParts<'_>) -> Result<Core, String> {
        let blocks = self.temp_sum.len();
        for (what, len) in [
            ("temperature sums", parts.temp_sum_bits.len()),
            ("temperature maxima", parts.temp_max_bits.len()),
            ("fast-engine power vector", parts.fast.window_watts_bits.len()),
        ] {
            if len != blocks {
                return Err(format!("{what} cover {len} blocks, floorplan has {blocks}"));
            }
        }
        let mut core = Core::new(config.core.clone())?;
        core.restore(parts.core).map_err(|e| format!("core: {e}"))?;
        Ok(core)
    }

    fn apply(&mut self, core: Core, parts: &LaneParts<'_>) {
        self.core = core;
        self.manager.restore(parts.manager);
        self.temp_sum = decode_bits(parts.temp_sum_bits);
        self.temp_max = decode_bits(parts.temp_max_bits);
        self.temp_samples = parts.temp_samples;
        self.held_watts = decode_bits(&parts.fast.window_watts_bits);
        self.fast = FastEngineState {
            prefix_left: 0,
            window_pos: 0,
            window_watts_bits: Vec::new(),
            ..parts.fast.clone()
        };
    }
}

/// N lanes over slices of one thermal model: lane `c` owns blocks
/// `c*blocks..(c+1)*blocks` of the die. The scalar engine and each batch
/// class are one-lane dies.
#[derive(Debug)]
pub(crate) struct Die {
    /// The per-core floorplan (each lane's power model, sensors and
    /// reported block names).
    pub(crate) plan: Floorplan,
    /// The full die: `lanes.len()` translated copies of `plan` (a bare
    /// clone for one lane).
    pub(crate) die_plan: Floorplan,
    power: PowerModel,
    pub(crate) thermal: ThermalModel,
    pub(crate) lanes: Vec<Lane>,
    /// Blocks per core.
    blocks: usize,
    /// Die-wide per-block power scratch; never snapshotted.
    watts: Vec<f64>,
    /// Per-block power of one idle (or frozen) core: pure leakage, what
    /// the power model reports for an activity-free window. Derived from
    /// the configuration, so never snapshotted.
    idle_watts: Vec<f64>,
    frequency_hz: f64,
    warm_start: bool,
    /// Whether the one-time warm-start settle has happened.
    pub(crate) warmed: bool,
}

impl Die {
    /// Builds a die of `cores` lanes from `config`.
    pub(crate) fn new(config: &SimConfig, cores: usize) -> Result<Die, Error> {
        let plan = ev6::build(config.floorplan);
        let die_plan = multicore::replicate(&plan, cores);
        let power = PowerModel::new(&plan, config.energy, config.frequency_hz)?;
        let thermal = ThermalModel::new(&die_plan, config.package);
        let blocks = plan.blocks().len();
        let mut idle_watts = vec![0.0; blocks];
        power.block_power_into(&ActivitySample::default(), &mut idle_watts);
        let lanes = (0..cores).map(|_| Lane::new(config, &plan)).collect::<Result<_, _>>()?;
        Ok(Die {
            plan,
            die_plan,
            power,
            thermal,
            lanes,
            blocks,
            watts: vec![0.0; blocks * cores],
            idle_watts,
            frequency_hz: config.frequency_hz,
            warm_start: config.warm_start,
            warmed: false,
        })
    }

    /// Lane `c`'s slice of the die temperatures.
    pub(crate) fn temps(&self, c: usize) -> &[f64] {
        &self.thermal.temperatures()[c * self.blocks..(c + 1) * self.blocks]
    }

    /// The sense/react step of a detailed window whose lanes have run:
    /// power → one thermal step → record → consult → statistics.
    pub(crate) fn sample(&mut self, window: u64, record: bool, consult: bool) {
        let ran = self.harvest(None);
        let (dt, settled) = self.plan_step(window, ran);
        if settled {
            // Jump to this workload's own steady state instead of heating
            // from ambient for millions of cycles.
            self.thermal.settle(&self.watts);
        } else {
            self.thermal.step(&self.watts, dt);
        }
        #[cfg(feature = "check")]
        {
            let lane = &mut self.lanes[0];
            let now = lane.now();
            if let Some(checker) = &mut lane.checker {
                checker.check_thermal(&self.thermal, &self.watts, dt, settled, now);
            }
        }
        self.sense(record);
        if consult {
            self.consult(true);
        }
        self.account();
    }

    /// Harvests every lane's activity into its slice of the die power
    /// vector, scaled by `scale` or else by each lane's own manager.
    /// Returns the longest lane activity in cycles.
    pub(crate) fn harvest(&mut self, scale: Option<f64>) -> u64 {
        let mut ran = 0;
        for (lane, out) in self.lanes.iter_mut().zip(self.watts.chunks_exact_mut(self.blocks)) {
            let scale = scale.unwrap_or_else(|| lane.manager.dynamic_power_scale());
            ran = ran.max(lane.harvest(&self.power, scale, out, &self.idle_watts));
        }
        ran
    }

    /// The thermal step for a window of `window` cycles whose lanes ran
    /// at most `ran`: `(dt, settled)`, where `settled` means this window
    /// performs the one-time warm-start settle (latched here). An idle
    /// die cools for the whole window.
    pub(crate) fn plan_step(&mut self, window: u64, ran: u64) -> (f64, bool) {
        let cycles = if ran == 0 { window } else { ran };
        let settled = self.warm_start && !self.warmed;
        self.warmed |= settled;
        (cycles as f64 / self.frequency_hz, settled)
    }

    /// This die as one lane of a batched thermal solve: its model plus
    /// the power vector the current window accumulated.
    pub(crate) fn thermal_lane(&mut self) -> (&mut ThermalModel, &[f64]) {
        (&mut self.thermal, &self.watts)
    }

    /// Latches each sampled lane's freeze state before the consult and,
    /// when `record`, keeps its window as the extrapolation basis.
    pub(crate) fn sense(&mut self, record: bool) {
        for (lane, watts) in self.lanes.iter_mut().zip(self.watts.chunks_exact(self.blocks)) {
            if lane.sampled {
                if record {
                    lane.record(watts);
                }
                lane.frozen = lane.core.is_frozen();
            }
        }
    }

    /// Consults each sampled lane's manager against its temperature slice.
    fn consult(&mut self, checked: bool) {
        let temps = self.thermal.temperatures();
        for (lane, temps) in self.lanes.iter_mut().zip(temps.chunks_exact(self.blocks)) {
            if lane.sampled {
                lane.consult(temps, checked);
            }
        }
    }

    /// Accumulates each sampled lane's temperature statistics.
    pub(crate) fn account(&mut self) {
        let temps = self.thermal.temperatures();
        for (lane, temps) in self.lanes.iter_mut().zip(temps.chunks_exact(self.blocks)) {
            if lane.sampled {
                lane.account(temps);
            }
        }
    }

    /// The thermal half of a skipped window of `sub` cycles: each lane
    /// that is `busy` and not frozen holds its detailed power, every
    /// other lane leaks, and the network advances in closed form. The
    /// caller then fast-forwards each busy lane ([`Lane::skip`]) and
    /// closes the window with [`close_skip`](Self::close_skip).
    pub(crate) fn skip_thermal(&mut self, sub: u64, busy: impl Fn(usize) -> bool) {
        let chunks = self.watts.chunks_exact_mut(self.blocks);
        for (c, (lane, out)) in self.lanes.iter_mut().zip(chunks).enumerate() {
            lane.sampled = busy(c);
            lane.frozen = lane.core.is_frozen();
            let held =
                if lane.sampled && !lane.frozen { &lane.held_watts } else { &self.idle_watts };
            out.copy_from_slice(held);
        }
        self.thermal.advance(&self.watts, sub as f64 / self.frequency_hz);
        // The closed-form advance is outside the backward-Euler residual's
        // reach; re-base the checker so the next detailed step is measured
        // from the advanced state.
        #[cfg(feature = "check")]
        if let Some(checker) = &mut self.lanes[0].checker {
            checker.resync_thermal(&self.thermal);
        }
    }

    /// Ends a skipped window: consult (unmirrored) and statistics.
    pub(crate) fn close_skip(&mut self, consult: bool) {
        if consult {
            self.consult(false);
        }
        self.account();
    }

    /// Lane `c`'s accumulated results, reporting `mstats`.
    pub(crate) fn result(&self, c: usize, mstats: &MitigationStats) -> RunResult {
        self.lanes[c].result(&self.plan, self.temps(c), mstats)
    }

    /// Restores every lane, the die temperatures and the warm-start latch
    /// — all or nothing: each piece is checked before any is applied.
    pub(crate) fn restore(
        &mut self,
        config: &SimConfig,
        lanes: &[LaneParts<'_>],
        thermal_node_bits: &[u64],
        warmed: bool,
    ) -> Result<(), Error> {
        if lanes.len() != self.lanes.len() {
            return Err(Error::Config(format!(
                "state covers {} lanes, die has {}",
                lanes.len(),
                self.lanes.len()
            )));
        }
        let cores = self
            .lanes
            .iter()
            .zip(lanes)
            .enumerate()
            .map(|(c, (lane, parts))| {
                lane.prepare(config, parts).map_err(|e| Error::Config(format!("lane {c}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Checks its length before writing anything, so it either fails
        // here with nothing applied or succeeds.
        self.thermal
            .restore_node_temperatures(&decode_bits(thermal_node_bits))
            .map_err(|e| Error::Config(format!("thermal: {e}")))?;
        for ((lane, parts), core) in self.lanes.iter_mut().zip(lanes).zip(cores) {
            lane.apply(core, parts);
        }
        self.warmed = warmed;
        // A restored die is a different execution: re-arm checking against
        // the restored state so the oracle does not cross-check the new
        // run against pre-restore history.
        #[cfg(feature = "check")]
        if self.lanes[0].checker.is_some() {
            self.enable_checking(config)?;
        }
        Ok(())
    }

    /// A copy of this one-lane die taken between its window's sense and
    /// statistics steps, built from `config` (a batch class fork).
    pub(crate) fn fork(&self, config: &SimConfig) -> Die {
        let mut child = Die::new(config, 1).expect("a sibling config was validated with the batch");
        let lane = self.lanes[0].state();
        let thermal = encode_bits(self.thermal.node_temperatures());
        child
            .restore(config, &[LaneParts::from(&lane)], &thermal, self.warmed)
            .expect("a fork restores into an identically shaped die");
        child.lanes[0].sampled = self.lanes[0].sampled;
        child.lanes[0].frozen = self.lanes[0].frozen;
        child
    }

    /// Captures a one-lane die and its clock as the scalar wire state.
    pub(crate) fn scalar_state(&self, clock: &WindowClock) -> SimulatorState {
        let lane = self.lanes[0].state();
        SimulatorState {
            core: lane.core,
            manager: lane.manager,
            thermal_node_bits: encode_bits(self.thermal.node_temperatures()),
            temp_sum_bits: lane.temp_sum_bits,
            temp_max_bits: lane.temp_max_bits,
            temp_samples: lane.temp_samples,
            warmed: self.warmed,
            fast: FastEngineState {
                prefix_left: clock.prefix_left,
                window_pos: clock.window_pos,
                ..lane.fast
            },
        }
    }

    /// Restores a one-lane die and its clock from the scalar wire state,
    /// all or nothing.
    pub(crate) fn restore_scalar(
        &mut self,
        config: &SimConfig,
        state: &SimulatorState,
        clock: &mut WindowClock,
    ) -> Result<(), Error> {
        self.restore(config, &[LaneParts::from(state)], &state.thermal_node_bits, state.warmed)?;
        clock.prefix_left = state.fast.prefix_left;
        clock.window_pos = state.fast.window_pos;
        Ok(())
    }

    /// Arms one runtime checker per lane (pipeline invariants, the
    /// in-order oracle, and the mitigation mirror against the lane's
    /// temperature slice). Lane 0's checker also owns the die-level
    /// thermal residual watch and, on multi-core dies, the cross-core
    /// energy and lateral-symmetry invariants.
    #[cfg(feature = "check")]
    pub(crate) fn enable_checking(&mut self, config: &SimConfig) -> Result<(), Error> {
        for lane in &mut self.lanes {
            lane.core.enable_op_log();
            let checker = powerbalance_check::RuntimeChecker::new(
                &self.plan,
                &config.mitigation,
                &lane.core,
                &self.thermal,
            )
            .map_err(Error::Config)?;
            lane.checker = Some(Box::new(checker));
        }
        let cores = self.lanes.len();
        if cores > 1 {
            if let Some(checker) = &mut self.lanes[0].checker {
                checker.enable_crosscore(cores, self.blocks, &self.thermal);
            }
        }
        Ok(())
    }

    /// Closes out every lane's oracle and returns all retained violations
    /// across lanes. Empty when checking was never enabled.
    #[cfg(feature = "check")]
    pub(crate) fn finish_checking(&mut self) -> Vec<powerbalance_check::Violation> {
        let mut all = Vec::new();
        for lane in &mut self.lanes {
            if let Some(checker) = &mut lane.checker {
                checker.finish(&lane.core);
                all.extend_from_slice(checker.violations());
            }
        }
        all
    }
}
