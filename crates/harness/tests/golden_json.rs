//! Golden-artifact test for the `--json` campaign output.
//!
//! Pins the artifact *schema and content* to a committed golden file so
//! that field renames, ordering changes, or numeric drift in the simulator
//! show up as a reviewable diff instead of silently breaking downstream
//! consumers. Host-timing fields (`wall_nanos`, `sim_cycles_per_sec`) and
//! the pool size (`threads`) legitimately vary run to run, so they are
//! normalized to fixed values before comparison.
//!
//! A second golden (`engines.json`) pins the engines the first one does
//! not reach: the Fast interval engine past its warmup prefix, and a
//! 2-core die under both fidelities, all on a trip-firing configuration.
//! The equivalence suites compare engines with each other; these goldens
//! compare every engine with its own committed past.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p powerbalance-harness --test golden_json
//! ```

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{Fidelity, FloorplanKind, SchedulerKind, SimConfig};
use powerbalance_harness::{run_campaign, CampaignSpec, RunnerOptions};
use serde::json::Value;
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Rewrites every host-varying field to a fixed value, recursively.
fn normalize(value: &mut Value) {
    match value {
        Value::Object(fields) => {
            for (key, field) in fields.iter_mut() {
                match key.as_str() {
                    "wall_nanos" => *field = Value::U64(0),
                    "sim_cycles_per_sec" => *field = Value::F64(0.0),
                    "threads" => *field = Value::U64(1),
                    _ => normalize(field),
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                normalize(item);
            }
        }
        _ => {}
    }
}

/// Runs `spec` and compares its normalized, pretty-printed artifact with
/// the golden `file` (or rewrites the file under `UPDATE_GOLDEN`).
fn assert_matches_golden(spec: &CampaignSpec, threads: usize, file: &str) {
    let result =
        run_campaign(spec, &RunnerOptions { threads: Some(threads), ..Default::default() })
            .expect("campaign runs");

    let mut value = Value::parse(&result.to_json()).expect("artifact parses");
    normalize(&mut value);
    let mut rendered = String::new();
    value.write_pretty(&mut rendered, 0);
    rendered.push('\n');

    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "campaign JSON artifact drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn campaign_json_matches_the_committed_golden_artifact() {
    // Small but representative: two mitigation configs, two benchmarks, a
    // warmup budget (so the spec's warm-start fields are pinned too), and
    // more than one worker (normalized away below).
    let spec = CampaignSpec::new("golden")
        .config("base", experiments::issue_queue(false))
        .config("toggling", experiments::issue_queue(true))
        .benchmarks(["eon", "gzip"])
        .cycles(30_000)
        .warmup(10_000)
        .seed(5);
    assert_matches_golden(&spec, 2, "campaign.json");
}

#[test]
fn fast_and_multicore_json_matches_the_committed_golden_artifact() {
    // eon on the issue-constrained floorplan with the limit pulled down to
    // 340 K, as in the ablation goldens, so trip points fire on every
    // engine. The Fast configs run past their 20k-cycle detailed prefix
    // into 1-in-4 detailed sub-intervals, so skipped intervals are pinned.
    // At 340 K the cores freeze early and skip mostly frozen. At 358 K the
    // 2-core die still trips but keeps running, so there the skipped
    // intervals also fast-forward the workload and extrapolate counters.
    let configs = |max_temp: f64| {
        let mut exact = experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained);
        exact.mitigation = exact.mitigation.with_max_temp(max_temp);
        let fast = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..exact.clone()
        };
        let die = |c: &SimConfig| SimConfig {
            cores: 2,
            scheduler: SchedulerKind::CoolestFirst,
            ..c.clone()
        };
        (die(&exact), die(&fast), fast)
    };
    let (two_core, two_core_fast, fast) = configs(340.0);
    let (_, two_core_fast_358, fast_358) = configs(358.0);
    let spec = CampaignSpec::new("golden-engines")
        .config("fast", fast)
        .config("2core", two_core)
        .config("2core-fast", two_core_fast)
        .config("fast-358k", fast_358)
        .config("2core-fast-358k", two_core_fast_358)
        .benchmark("eon")
        .cycles(120_000)
        .warmup(10_000)
        .seed(5);
    assert_matches_golden(&spec, 2, "engines.json");
}

#[test]
fn normalization_only_touches_host_timing_fields() {
    let text =
        r#"{"threads": 8, "wall_nanos": 123, "jobs": [{"sim_cycles_per_sec": 4.5, "ipc": 1.25}]}"#;
    let mut value = Value::parse(text).expect("parses");
    normalize(&mut value);
    assert_eq!(value.field("threads").unwrap(), &Value::U64(1));
    assert_eq!(value.field("wall_nanos").unwrap(), &Value::U64(0));
    let job = value.field("jobs").unwrap().item(0).unwrap();
    assert_eq!(job.field("sim_cycles_per_sec").unwrap(), &Value::F64(0.0));
    assert_eq!(job.field("ipc").unwrap().as_f64().unwrap(), 1.25);
}
