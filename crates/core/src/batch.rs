//! Batched lockstep execution: K mitigation variants over one trace.
//!
//! A measured campaign sweeps many mitigation techniques over the *same*
//! (benchmark, seed, floorplan, cadence) tuple. Run separately, the K
//! variants re-simulate the identical core K times and only start to
//! differ once a trip point actually fires — which, for well-mitigated
//! configurations, is rarely. [`BatchSimulator`] exploits that: siblings
//! whose observable behaviour is still identical share one
//! **equivalence class** (one core, one thermal model, one pass over the
//! trace), while each sibling keeps its own [`ThermalManager`] so every
//! policy still decides every window. The moment two siblings' decisions
//! diverge, the class **forks** — the shared state is restored
//! bit-exactly into a new class and both lineages continue
//! independently, their traces split via `Clone` (a
//! [`powerbalance_isa::TraceCursor`] fork under Exact fidelity, a private
//! generator clone under Fast).
//!
//! # What this engine adds to the window kernel
//!
//! Each class is a one-lane die of the window kernel ([`crate::kernel`]),
//! stepped by the kernel's lane steps and drive loop — the code the
//! scalar [`crate::Simulator`] runs — so batched results are
//! **bit-identical** to K sequential scalar runs, a contract pinned by
//! differential tests and the fuzzer. This module adds only its own
//! parts: the per-sibling managers (a class's power is scaled by its
//! representative's), one structure-of-arrays backward-Euler solve per
//! window across all live classes ([`BatchThermalSolver`], one LU
//! factorization for K right-hand sides), and consult-and-fork.

use crate::kernel::{self, Die, Engine, WindowClock};
use crate::{Error, RunControl, RunResult, SimConfig, SimulatorState, StopCause};
use powerbalance_isa::TraceSource;
use powerbalance_mitigation::{Actuation, MitigationConfig, Sensors, ThermalManager};
use powerbalance_thermal::{BatchThermalSolver, SolveLane, ThermalModel};

/// The part of a [`SimConfig`] that lockstep siblings must share: the
/// whole configuration with `mitigation` normalized to the baseline.
///
/// Two configurations are batch-eligible exactly when their keys compare
/// equal; campaign runners group jobs by (serialized) key.
#[must_use]
pub fn batch_key(config: &SimConfig) -> SimConfig {
    SimConfig { mitigation: MitigationConfig::baseline(), ..config.clone() }
}

/// One equivalence class: a shared one-lane die plus the sibling indices
/// currently riding on it.
#[derive(Debug)]
struct BatchClass<T> {
    die: Die,
    trace: T,
    /// Sibling indices sharing this class, in ascending order; the first
    /// is the representative whose manager actuates the shared core.
    members: Vec<usize>,
    /// The shared core finished its trace; the class no longer steps.
    done: bool,
    /// This window's thermal step as `(settled, dt bits)`; scratch.
    step: (bool, u64),
    /// Whether the batched solve in progress includes this class; scratch.
    solve: bool,
}

impl<T> SolveLane for BatchClass<T> {
    fn lane(&mut self) -> Option<(&mut ThermalModel, &[f64])> {
        self.solve.then(|| self.die.thermal_lane())
    }
}

/// One partition of a class's members by what their decision would do.
#[derive(Debug, Default)]
struct Partition {
    actions: Vec<Actuation>,
    /// Post-apply dynamic-power scale, bit-packed: identical commands on
    /// different DVFS ladders must not share a core next window.
    scale_bits: u64,
    members: Vec<usize>,
    /// Index of the class the partition continues on.
    target: usize,
}

/// Steps K sibling configurations in lockstep over one shared trace.
///
/// Siblings must agree on everything except [`SimConfig::mitigation`]
/// (checked at construction; see [`batch_key`]). Results come back in
/// sibling order and are bit-identical to K sequential [`crate::Simulator`]
/// runs of the same configurations.
///
/// The trace type is cloned on fork: wrap a generator in a
/// [`powerbalance_isa::TraceCursor`] to share generated ops between
/// diverged classes (Exact fidelity), or pass the generator directly when
/// `skip_ops` must stay O(1) (Fast fidelity).
///
/// # Examples
///
/// ```
/// use powerbalance::{BatchSimulator, SimConfig, Simulator};
/// use powerbalance_isa::TraceCursor;
/// use powerbalance_workloads::spec2000;
///
/// let profile = spec2000::by_name("gzip").unwrap();
/// let configs = vec![SimConfig::default(), SimConfig::default()];
/// let mut batch = BatchSimulator::new(configs, TraceCursor::new(profile.trace(7)))?;
/// let results = batch.run(50_000);
///
/// let mut scalar = Simulator::new(SimConfig::default())?;
/// assert_eq!(results[0], scalar.run(&mut profile.trace(7), 50_000));
/// # Ok::<(), powerbalance::Error>(())
/// ```
#[derive(Debug)]
pub struct BatchSimulator<T> {
    configs: Vec<SimConfig>,
    /// Per-sibling managers: every policy observes every window even while
    /// its sibling shares a class.
    managers: Vec<ThermalManager>,
    /// Sibling index → index into `classes`.
    class_of: Vec<usize>,
    classes: Vec<BatchClass<T>>,
    /// All classes share one phase clock, so a window is detailed or
    /// skipped for every class at once.
    clock: WindowClock,
    solver: BatchThermalSolver,
    /// Scratch: distinct thermal steps of the window, first-seen order.
    groups: Vec<(bool, u64)>,
    /// Scratch: one class's consult partitions; entries keep their
    /// capacity across windows.
    parts: Vec<Partition>,
}

impl<T: TraceSource + Clone> BatchSimulator<T> {
    /// Builds a lockstep batch over `configs`, all consuming `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `configs` is empty, any configuration
    /// is invalid, or two siblings differ outside `mitigation`.
    pub fn new(configs: Vec<SimConfig>, trace: T) -> Result<Self, Error> {
        let Some(first) = configs.first() else {
            return Err(Error::Config("a batch needs at least one sibling configuration".into()));
        };
        let key = batch_key(first);
        for (i, c) in configs.iter().enumerate() {
            c.validate()?;
            if i > 0 && batch_key(c) != key {
                return Err(Error::Config(format!(
                    "sibling {i} differs from sibling 0 outside `mitigation`; lockstep \
                     siblings must share workload parameters, core, floorplan, package, \
                     energy tables, cadence, and fidelity"
                )));
            }
        }
        if first.cores != 1 {
            return Err(Error::Config(format!(
                "config requests {} cores; lockstep siblings are single-core",
                first.cores
            )));
        }
        let die = Die::new(first, 1)?;
        let managers = configs
            .iter()
            .map(|c| Ok(ThermalManager::new(c.mitigation, Sensors::new(&die.plan)?)))
            .collect::<Result<_, Error>>()?;
        let classes = vec![BatchClass {
            die,
            trace,
            members: (0..configs.len()).collect(),
            done: false,
            step: (false, 0),
            solve: false,
        }];
        Ok(BatchSimulator {
            class_of: vec![0; configs.len()],
            clock: WindowClock::new(first),
            configs,
            managers,
            classes,
            solver: BatchThermalSolver::new(),
            groups: Vec::new(),
            parts: Vec::new(),
        })
    }

    /// The sibling configurations, in result order.
    #[must_use]
    pub fn configs(&self) -> &[SimConfig] {
        &self.configs
    }

    /// Number of siblings in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the batch has no siblings (never true: construction
    /// requires at least one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Number of live equivalence classes: 1 while every sibling still
    /// shares the core, up to `len()` once fully diverged.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The mitigation manager deciding for sibling `i`.
    #[must_use]
    pub fn manager(&self, i: usize) -> &ThermalManager {
        &self.managers[i]
    }

    /// Runs every sibling for up to `cycles` cycles (or until its trace
    /// drains) and returns the accumulated results in sibling order.
    pub fn run(&mut self, cycles: u64) -> Vec<RunResult> {
        self.run_controlled(cycles, &RunControl::unlimited()).0
    }

    /// Like [`run`](Self::run), but checks `control` between sampling
    /// windows — the whole batch stops together, so every sibling's
    /// partial statistics cover the same simulated span.
    pub fn run_controlled(
        &mut self,
        cycles: u64,
        control: &RunControl<'_>,
    ) -> (Vec<RunResult>, StopCause) {
        let cause = kernel::drive(self, cycles, control, true);
        (self.results(), cause)
    }

    /// Runs every sibling for up to `cycles` cycles **without consulting
    /// any manager** — the batched mirror of
    /// [`Simulator::run_warmup`](crate::Simulator::run_warmup). With no
    /// consults there is nothing to diverge on, so the batch stays a
    /// single class throughout.
    pub fn run_warmup(&mut self, cycles: u64) {
        let _ = self.run_warmup_controlled(cycles, &RunControl::unlimited());
    }

    /// Like [`run_warmup`](Self::run_warmup), but checks `control` between
    /// sampling windows.
    pub fn run_warmup_controlled(&mut self, cycles: u64, control: &RunControl<'_>) -> StopCause {
        kernel::drive(self, cycles, control, false)
    }

    /// Restores a warm-start snapshot into the (unforked) batch: the
    /// shared class adopts the simulator state and **every** sibling's
    /// manager adopts the snapshot's manager state — exactly what each
    /// scalar resume would do.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the batch has already forked or the
    /// state does not fit the shared simulator's shape.
    pub fn restore_state(&mut self, state: &SimulatorState) -> Result<(), Error> {
        if self.classes.len() != 1 {
            return Err(Error::Config(
                "restore_state requires an unforked batch (call it before running)".into(),
            ));
        }
        self.classes[0].die.restore_scalar(&self.configs[0], state, &mut self.clock)?;
        for manager in &mut self.managers {
            manager.restore(&state.manager);
        }
        Ok(())
    }

    /// The accumulated results, in sibling order: each sibling reports its
    /// class's shared core/thermal statistics plus its *own* manager's
    /// mitigation counters.
    #[must_use]
    pub fn results(&self) -> Vec<RunResult> {
        (0..self.configs.len())
            .map(|m| self.classes[self.class_of[m]].die.result(0, self.managers[m].stats()))
            .collect()
    }

    /// Thermal phase: group the window's classes by thermal step —
    /// identical for all in the common lockstep case — and run one SoA
    /// solve per group, each reusing a single LU factorization across its
    /// lanes.
    fn solve_thermal(&mut self) {
        self.groups.clear();
        for class in self.classes.iter().filter(|c| !c.done) {
            if !self.groups.contains(&class.step) {
                self.groups.push(class.step);
            }
        }
        for &(settled, dt_bits) in &self.groups {
            for class in &mut self.classes {
                class.solve = !class.done && class.step == (settled, dt_bits);
            }
            if settled {
                self.solver.settle_many(&mut self.classes);
            } else {
                self.solver.step_many(&mut self.classes, f64::from_bits(dt_bits));
            }
        }
    }

    /// Consult phase: every member's manager decides against its class's
    /// shared core; members are partitioned by (commands, projected power
    /// scale); classes whose members disagree fork **before** any command
    /// is applied; then each partition's representative actuates its class
    /// core and the co-members adopt the representative's post-apply
    /// manager state (identical pre-state + identical commands ⇒ identical
    /// post-state, without double-applying core side effects such as a
    /// register-file restore charge).
    fn consult_and_fork(&mut self) {
        let mut parts = std::mem::take(&mut self.parts);
        for ci in 0..self.classes.len() {
            let class = &self.classes[ci];
            if class.done {
                continue;
            }
            let lane = &class.die.lanes[0];
            let (now, int_iq, fp_iq) = lane.consult_inputs();
            let temps = class.die.thermal.temperatures();
            let mut used = 0;
            for &m in &class.members {
                let manager = &mut self.managers[m];
                manager.decide(&lane.core, temps, now, &int_iq, &fp_iq);
                let scale_bits = manager.projected_power_scale().to_bits();
                let actions = manager.decided_actions();
                let found = parts[..used]
                    .iter_mut()
                    .find(|p| p.scale_bits == scale_bits && p.actions == actions);
                match found {
                    Some(p) => p.members.push(m),
                    None => {
                        if used == parts.len() {
                            parts.push(Partition::default());
                        }
                        let p = &mut parts[used];
                        p.actions.clear();
                        p.actions.extend_from_slice(actions);
                        p.scale_bits = scale_bits;
                        p.members.clear();
                        p.members.push(m);
                        used += 1;
                    }
                }
            }
            // Fork before applying anything: every child branches from the
            // exact state the decisions were made against.
            parts[0].target = ci;
            for part in &mut parts[1..used] {
                let parent = &self.classes[ci];
                let child = BatchClass {
                    die: parent.die.fork(&self.configs[part.members[0]]),
                    trace: parent.trace.clone(),
                    members: part.members.clone(),
                    ..*parent
                };
                part.target = self.classes.len();
                for &m in &part.members {
                    self.class_of[m] = part.target;
                }
                self.classes.push(child);
            }
            if used > 1 {
                self.classes[ci].members.clone_from(&parts[0].members);
            }
            for part in &parts[..used] {
                let rep = part.members[0];
                self.managers[rep].apply_decided(&mut self.classes[part.target].die.lanes[0].core);
                let snap = self.managers[rep].snapshot();
                for &m in &part.members[1..] {
                    self.managers[m].restore(&snap);
                }
            }
        }
        self.parts = parts;
    }

    /// Ends a window: consult (and fork), then every class that ran —
    /// children included, they inherited the parent's pre-consult
    /// context — accumulates its statistics and refreshes its done flag.
    fn finish(&mut self, consult: bool) {
        if consult {
            self.consult_and_fork();
        }
        for class in self.classes.iter_mut().filter(|c| !c.done) {
            class.die.account();
            class.done = class.die.lanes[0].core.is_done();
        }
    }
}

impl<T: TraceSource + Clone> Engine for BatchSimulator<T> {
    fn clock(&mut self) -> &mut WindowClock {
        &mut self.clock
    }

    fn live(&mut self) -> bool {
        self.classes.iter().any(|c| !c.done)
    }

    /// Every live class runs the window cycle by cycle, then one batched
    /// power and thermal phase, each class's power scaled by its
    /// representative's current (pre-consult) dynamic-power scale — the
    /// scale every member shares by the partition invariant.
    fn detailed(&mut self, window: u64, record: bool, consult: bool) -> u64 {
        for class in self.classes.iter_mut().filter(|c| !c.done) {
            class.die.lanes[0].cycles(&mut class.trace, window);
            let scale = self.managers[class.members[0]].dynamic_power_scale();
            debug_assert!(
                class.members.iter().all(|&m| self.managers[m].dynamic_power_scale() == scale),
                "class members disagree on dynamic power scale"
            );
            let ran = class.die.harvest(Some(scale));
            let (dt, settled) = class.die.plan_step(window, ran);
            class.step = (settled, dt.to_bits());
        }
        self.solve_thermal();
        for class in self.classes.iter_mut().filter(|c| !c.done) {
            class.die.sense(record);
        }
        self.finish(consult);
        window
    }

    fn skipped(&mut self, window: u64, consult: bool) {
        for class in self.classes.iter_mut().filter(|c| !c.done) {
            class.die.skip_thermal(window, |_| true);
            class.die.lanes[0].skip(&mut class.trace, window);
        }
        self.finish(consult);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, PolicyKind};
    use crate::{Fidelity, Simulator};
    use powerbalance_isa::TraceCursor;
    use powerbalance_thermal::ev6::FloorplanKind;
    use powerbalance_workloads::spec2000;

    fn scalar(cfg: &SimConfig, bench: &str, seed: u64, cycles: u64) -> RunResult {
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        let mut trace = spec2000::by_name(bench).expect("profile").trace(seed);
        sim.run(&mut trace, cycles)
    }

    #[test]
    fn identical_siblings_share_one_class_and_match_scalar() {
        let configs = vec![SimConfig::default(); 3];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs, trace).expect("eligible");
        let results = batch.run(60_000);
        assert_eq!(batch.class_count(), 1, "baseline siblings never diverge");
        let reference = scalar(&SimConfig::default(), "gzip", 3, 60_000);
        for r in &results {
            assert_eq!(*r, reference, "batched result drifted from scalar");
        }
    }

    #[test]
    fn diverging_policies_fork_and_stay_bitwise_scalar_exact() {
        // "eon" on the issue-constrained floorplan trips within 1M cycles
        // (the recipe tests/techniques.rs relies on), so the policies
        // actually diverge and the fork path is exercised.
        let configs: Vec<SimConfig> =
            [PolicyKind::None, PolicyKind::Spatial, PolicyKind::FetchGate]
                .iter()
                .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
                .collect();
        let trace = TraceCursor::new(spec2000::by_name("eon").expect("profile").trace(42));
        let mut batch = BatchSimulator::new(configs.clone(), trace).expect("eligible");
        let results = batch.run(1_000_000);
        assert!(batch.class_count() > 1, "constrained floorplan must split the policies");
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(*r, scalar(cfg, "eon", 42, 1_000_000), "sibling drifted from scalar");
        }
    }

    #[test]
    fn diverging_policies_stay_bitwise_scalar_fast() {
        let make = |k: &PolicyKind| SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..experiments::policy(*k, FloorplanKind::AluConstrained)
        };
        let configs: Vec<SimConfig> = PolicyKind::ALL.iter().map(make).collect();
        let profile = spec2000::by_name("crafty").expect("profile");
        let mut batch = BatchSimulator::new(configs.clone(), profile.trace(5)).expect("eligible");
        let results = batch.run(300_000);
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(*r, scalar(cfg, "crafty", 5, 300_000), "sibling drifted from scalar");
        }
    }

    #[test]
    fn warmup_then_run_matches_scalar_warmup_then_run() {
        let configs = vec![
            experiments::policy(PolicyKind::FetchGate, FloorplanKind::IssueConstrained),
            experiments::policy(PolicyKind::None, FloorplanKind::IssueConstrained),
        ];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs.clone(), trace).expect("eligible");
        batch.run_warmup(40_000);
        assert_eq!(batch.class_count(), 1, "warmup never consults, so never forks");
        let results = batch.run(80_000);
        for (cfg, r) in configs.iter().zip(&results) {
            let mut sim = Simulator::new(cfg.clone()).expect("valid config");
            let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
            sim.run_warmup(&mut trace, 40_000);
            assert_eq!(*r, sim.run(&mut trace, 80_000), "warmup+run drifted from scalar");
        }
    }

    #[test]
    fn ineligible_siblings_are_rejected() {
        let configs = vec![
            SimConfig::default(),
            SimConfig { floorplan: FloorplanKind::IssueConstrained, ..SimConfig::default() },
        ];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let err = BatchSimulator::new(configs, trace).expect_err("floorplans differ");
        assert!(err.to_string().contains("outside `mitigation`"), "{err}");
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let err = BatchSimulator::<_>::new(vec![], trace).expect_err("empty batch");
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn batch_key_normalizes_only_mitigation() {
        let a = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
        let b = experiments::policy(PolicyKind::Combined, FloorplanKind::IssueConstrained);
        assert_eq!(batch_key(&a), batch_key(&b));
        let c = experiments::policy(PolicyKind::Dvfs, FloorplanKind::AluConstrained);
        assert_ne!(batch_key(&a), batch_key(&c));
    }

    #[test]
    fn controlled_cancel_stops_the_whole_batch_together() {
        use std::sync::atomic::AtomicBool;
        let configs = vec![SimConfig::default(); 2];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs, trace).expect("eligible");
        let flag = AtomicBool::new(true);
        let control = RunControl::unlimited().with_cancel(&flag);
        let (results, cause) = batch.run_controlled(100_000, &control);
        assert_eq!(cause, StopCause::Cancelled);
        for r in &results {
            assert_eq!(r.cycles, 0, "cancel is checked before the first window");
        }
    }
}
