//! # magma-perfbench — the repository benchmark
//!
//! Runs one seeded workload in this process, on one thread, through the
//! simulator's public API only, and reports:
//!
//! - with observers off (end to end): `sim_rate`, `setup_s`,
//!   `peak_rss_mb`, host time rescaled to a reference host speed
//!   ([`hostspeed`]);
//! - with simprof, magma-trace and shardscope on (per layer): the host
//!   self time and work counts of every crate layer.
//!
//! Every run's paper-level outputs are checked ([`outputs`]), and a
//! traced run must reproduce the untraced outputs exactly. See README.md.

pub mod hostspeed;
pub mod layers;
pub mod outputs;
pub mod workload;

use hostspeed::thread_cpu_s;
use layers::TracedRun;
use magma_sim::{HostStopwatch, SimTime};
use magma_testbed::scenario::{build, Scenario};
use outputs::Outputs;
use workload::WorkloadSpec;

/// End-to-end metrics as `(name, unit, better)`, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("sim_rate", "sim-s/ref-s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Set-ups timed back to back for one `setup_s` sample: one set-up takes
/// well under a millisecond, too short to time alone.
pub const SETUP_BATCH: usize = 64;

/// One run of a workload.
pub struct Run {
    pub outputs: Outputs,
    /// Simulated seconds of the `run_until` phase.
    pub sim_s: f64,
    /// Host wall seconds of the `run_until` phase.
    pub run_s: f64,
    /// On-CPU seconds of the `run_until` phase.
    pub run_cpu_s: f64,
    /// Present when the run was traced.
    pub traced: Option<TracedRun>,
}

/// Build the workload's scenario with every observer switched to
/// `traced` (`build` switches them all on).
fn set_up(spec: &WorkloadSpec, traced: bool) -> Scenario {
    let mut sc = build(spec.scenario_config());
    sc.world.enable_profiling(traced);
    sc.world.enable_tracing(traced);
    sc.world.enable_shardscope(traced);
    sc
}

/// On-CPU seconds of one untraced set-up (`build` plus observer
/// switch-off), the mean over [`SETUP_BATCH`] set-ups.
pub fn setup_batch_s(spec: &WorkloadSpec) -> f64 {
    let mut total = 0.0;
    for _ in 0..SETUP_BATCH {
        let t0 = thread_cpu_s();
        let sc = set_up(spec, false);
        total += thread_cpu_s() - t0;
        drop(sc);
    }
    total / SETUP_BATCH as f64
}

/// Drive the built scenario to the end of the workload's span, taking
/// the backhaul down and up again around the partition window.
fn drive(sc: &mut Scenario, spec: &WorkloadSpec) {
    if let Some((from, to)) = spec.partition {
        let (agw, orc8r) = (sc.agws[0].node, sc.orc8r_node);
        sc.world.run_until(SimTime::from_secs(from));
        sc.net.set_link_up(agw, orc8r, false);
        sc.world.run_until(SimTime::from_secs(to));
        sc.net.set_link_up(agw, orc8r, true);
    }
    sc.world.run_until(SimTime::from_secs(spec.sim_seconds));
}

/// Build and run the workload once.
pub fn run_once(spec: &WorkloadSpec, traced: bool) -> Run {
    let mut sc = set_up(spec, traced);
    let sw = HostStopwatch::start();
    let cpu0 = thread_cpu_s();
    drive(&mut sc, spec);
    let run_cpu_s = thread_cpu_s() - cpu0;
    let run_s = sw.elapsed_s();

    let outputs = Outputs::collect(&sc, spec);
    let traced = traced.then(|| TracedRun {
        run_s,
        profile: sc.world.profile(),
        shard: sc.world.shard_snapshot(),
        push_ok: outputs.push_ok.iter().sum(),
        snapshots: outputs.snapshots.iter().sum(),
        metricsd_dropped: outputs.shed.iter().sum(),
    });
    Run {
        outputs,
        sim_s: spec.sim_seconds as f64,
        run_s,
        run_cpu_s,
        traced,
    }
}

/// Median of a sample (mean of the middle pair when even; NaN if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
