//! Proves the steady-state simulate-sense-react loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warmup long enough for every growable structure (in-flight list, fetch
//! queue, writeback scratch, cache/predictor arrays, thermal scratch and
//! the cached LU factorization) to reach its steady capacity, a measured
//! window of `Core::cycle` plus the full per-sample chain
//! (`PowerModel::block_power_into` → `ThermalModel::step` →
//! `ThermalManager::on_sample`) must perform exactly zero heap
//! allocations.
//!
//! The same test then drives the three public engines — the scalar
//! [`Simulator`], a 2-core [`MultiCoreSimulator`] and a 2-sibling
//! [`BatchSimulator`] — and requires a 4-window and a 16-window `run` of a
//! fresh engine to allocate alike: the only heap traffic left is the
//! result construction, not anything per window.
//!
//! This file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the measured window.

use powerbalance::{
    spec2000, BatchSimulator, MultiCoreSimulator, SimConfig, Simulator, TaskSet, TraceCursor,
};
use powerbalance_isa::{ArchReg, BranchInfo, MemRef, MicroOp, OpClass, SliceTrace};
use powerbalance_mitigation::{MitigationConfig, Sensors, ThermalManager};
use powerbalance_power::{EnergyTables, PowerModel};
use powerbalance_thermal::{ev6, PackageConfig, ThermalModel};
use powerbalance_uarch::{Core, CoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations `f` performs.
fn counted(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

/// Allocations of one `run` over `windows` sampling windows on a scalar,
/// 2-core and 2-sibling batch engine, each first warmed (uncounted) for
/// `WARMUP_WINDOWS` so its growable buffers reach steady capacity.
fn engine_run_allocations(windows: u64) -> [u64; 3] {
    const WARMUP_WINDOWS: u64 = 16;
    let interval = SimConfig::default().sample_interval;
    let (warmup, cycles) = (WARMUP_WINDOWS * interval, windows * interval);
    let trace = |name: &str, seed| spec2000::by_name(name).expect("profile").trace(seed);

    let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
    let mut gzip = trace("gzip", 3);
    sim.run(&mut gzip, warmup);
    let scalar = counted(|| drop(sim.run(&mut gzip, cycles)));

    let two_core = SimConfig { cores: 2, ..SimConfig::default() };
    let mut die = MultiCoreSimulator::new(two_core).expect("valid config");
    let mut tasks = TaskSet::one_per_job([trace("gzip", 3), trace("mesa", 11)]);
    die.run(&mut tasks, warmup);
    let multi = counted(|| drop(die.run(&mut tasks, cycles)));

    let siblings = vec![SimConfig::default(); 2];
    let mut batch =
        BatchSimulator::new(siblings, TraceCursor::new(trace("gzip", 3))).expect("eligible");
    batch.run(warmup);
    let batched = counted(|| drop(batch.run(cycles)));
    assert_eq!(batch.class_count(), 1, "baseline siblings share one class");

    [scalar, multi, batched]
}

/// A mixed trace exercising the integer issue path, the FP adders and
/// multiplier, the data cache, and the branch predictor — every structure
/// the hot loop touches. `SliceTrace` serves ops by index, so pulling from
/// it never allocates.
fn mixed_ops(count: usize) -> Vec<MicroOp> {
    let mut x = 9u64;
    (0..count as u64)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 7 {
                0 => MicroOp::new(OpClass::Load)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 20) as u8))
                    .with_mem(MemRef::new(0x1000 + (x % 8192))),
                1 => MicroOp::new(OpClass::FpAdd)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::fp((i % 20) as u8))
                    .with_src1(ArchReg::fp(((i + 1) % 20) as u8)),
                2 => MicroOp::new(OpClass::FpMul)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::fp((i % 20) as u8)),
                3 => MicroOp::new(OpClass::Branch)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_src1(ArchReg::int(1))
                    .with_branch(BranchInfo::new((x >> 62) & 1 == 1, 0x400_100)),
                _ => MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 20) as u8))
                    .with_src1(ArchReg::int(((i + 3) % 20) as u8)),
            }
        })
        .collect()
}

#[test]
fn steady_state_loop_allocates_nothing() {
    const WARMUP_WINDOWS: usize = 4;
    const MEASURED_WINDOWS: usize = 10;
    const WINDOW: usize = 5_000;
    const FREQUENCY_HZ: f64 = 4.2e9;

    // Everything the loop needs is constructed (and allowed to allocate)
    // up front, exactly as `Simulator::new` would.
    let plan = ev6::baseline();
    let mut core = Core::new(CoreConfig::default()).expect("valid config");
    let power = PowerModel::new(&plan, EnergyTables::default(), FREQUENCY_HZ).expect("ev6 names");
    let mut thermal = ThermalModel::new(&plan, PackageConfig::default());
    let sensors = Sensors::new(&plan).expect("ev6 names");
    let mut manager = ThermalManager::new(MitigationConfig::spatial_all(), sensors);
    let mut watts = vec![0.0f64; plan.blocks().len()];
    let total_cycles = (WARMUP_WINDOWS + MEASURED_WINDOWS) * WINDOW;
    // Over-provision the trace: the core cannot commit faster than 6/cycle.
    let mut trace = SliceTrace::new(mixed_ops(total_cycles * 6));

    let mut sample_window =
        |core: &mut Core, thermal: &mut ThermalModel, manager: &mut ThermalManager| {
            for _ in 0..WINDOW {
                core.cycle(&mut trace);
            }
            let activity = core.take_activity();
            power.block_power_into(&activity, &mut watts);
            let dt = activity.cycles as f64 / FREQUENCY_HZ;
            thermal.step(&watts, dt);
            let now = core.stats().cycles;
            manager.on_sample(core, thermal.temperatures(), now, &activity.int_iq, &activity.fp_iq);
        };

    // Warmup: growable buffers reach steady capacity, the LU factorization
    // is computed and cached.
    for _ in 0..WARMUP_WINDOWS {
        sample_window(&mut core, &mut thermal, &mut manager);
    }
    assert!(core.stats().committed > 0, "warmup must make real progress");
    assert!(!core.is_done(), "trace must outlast the measurement");

    // Measured window: zero heap traffic allowed.
    let before = allocations();
    for _ in 0..MEASURED_WINDOWS {
        sample_window(&mut core, &mut thermal, &mut manager);
    }
    let allocated = allocations() - before;

    assert!(!core.is_done(), "trace must outlast the measurement");
    assert_eq!(
        allocated, 0,
        "steady-state Core::cycle + sample loop performed {allocated} heap allocations"
    );

    // The public engines: per-window work allocates nothing, so a run four
    // times longer allocates exactly as often.
    assert_eq!(
        engine_run_allocations(4),
        engine_run_allocations(16),
        "[scalar, multi-core, batch] run allocations grew with the window count"
    );
}
