//! Per-crate layer attribution of a traced run.
//!
//! simprof attributes host time to `(actor, event-kind)` rows and to
//! named `profile_scope`s; scope time is also the enclosing row's child
//! time, so row self times plus scope times add up to the dispatch wall
//! time. This module groups every row and scope into exactly one crate
//! layer and derives the per-layer metrics `BENCHMARK.json` lists. A row
//! or scope no rule claims is an error, so a new actor or scope cannot
//! fall into no layer unnoticed.

use magma_sim::{ProfileSnapshot, ShardSnapshot};

/// Crate layers, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// magma-sim: queue operations, hooks and CPU-model completions.
    Sim,
    Net,
    Rpc,
    Agw,
    Orc8r,
    Metricsd,
    Dataplane,
    Ran,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Sim,
        Layer::Net,
        Layer::Rpc,
        Layer::Agw,
        Layer::Orc8r,
        Layer::Metricsd,
        Layer::Dataplane,
        Layer::Ran,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Net => "net",
            Layer::Rpc => "rpc",
            Layer::Agw => "agw",
            Layer::Orc8r => "orc8r",
            Layer::Metricsd => "metricsd",
            Layer::Dataplane => "dataplane",
            Layer::Ran => "ran",
        }
    }
}

/// For an actor named `agw<digits><rest>`, the `<rest>`.
fn agw_id_then(actor: &str) -> Option<&str> {
    let digits = actor.strip_prefix("agw")?;
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    (end > 0).then(|| &digits[end..])
}

/// The layer owning a simprof row. `cpu_done` rows are the CPU model's
/// job completions, owned by the kernel whatever actor receives them;
/// every other row belongs to the crate whose actor it names. Only the
/// actors the workloads create are mapped; any other is an error.
pub fn row_layer(actor: &str, kind: &str) -> Option<Layer> {
    if kind == "cpu_done" {
        return Some(Layer::Sim);
    }
    let layer = match actor {
        "orc8r" => Layer::Orc8r,
        a if a.starts_with("netstack-") => Layer::Net,
        a if a.starts_with("enb-") => Layer::Ran,
        a => match agw_id_then(a)? {
            "" => Layer::Agw,
            "-metricsd" => Layer::Metricsd,
            _ => return None,
        },
    };
    Some(layer)
}

/// The layer owning a `profile_scope` label: the crate named before its
/// first dot.
pub fn scope_layer(label: &str) -> Option<Layer> {
    match label.split('.').next()? {
        "rpc" => Some(Layer::Rpc),
        "dataplane" => Some(Layer::Dataplane),
        "metricsd" => Some(Layer::Metricsd),
        _ => None,
    }
}

/// One traced run, reduced to what the layer table needs.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Host wall time of the `run_until` phase with every observer on.
    pub run_s: f64,
    pub profile: ProfileSnapshot,
    pub shard: ShardSnapshot,
    pub push_ok: u64,
    pub snapshots: u64,
    pub metricsd_dropped: u64,
}

/// Host self time per layer: row self times, scope times and the kernel
/// remainder. Errors name every unmapped row or scope.
pub fn layer_self_s(run: &TracedRun) -> Result<Vec<(Layer, f64)>, Vec<String>> {
    let mut by_layer: Vec<(Layer, f64)> = Layer::ALL.iter().map(|l| (*l, 0.0)).collect();
    let mut add = |l: Layer, s: f64| {
        if let Some(slot) = by_layer.iter_mut().find(|(x, _)| *x == l) {
            slot.1 += s;
        }
    };
    let mut unmapped = Vec::new();
    let mut dispatch_wall = 0.0;
    for row in &run.profile.host.rows {
        dispatch_wall += row.wall_s;
        match row_layer(&row.actor, &row.kind) {
            Some(l) => add(l, row.self_wall_s),
            None => unmapped.push(format!("row {}/{}", row.actor, row.kind)),
        }
    }
    for scope in &run.profile.host.scopes {
        match scope_layer(&scope.label) {
            Some(l) => add(l, scope.wall_s),
            None => unmapped.push(format!("scope {}", scope.label)),
        }
    }
    add(Layer::Sim, kernel_self_s(run.run_s, dispatch_wall));
    if unmapped.is_empty() {
        Ok(by_layer)
    } else {
        Err(unmapped)
    }
}

/// Kernel self time: run wall minus all dispatch wall (row self time plus
/// the scopes nested in it), i.e. queue operations plus observer hooks.
fn kernel_self_s(run_s: f64, dispatch_wall_s: f64) -> f64 {
    (run_s - dispatch_wall_s).max(0.0)
}

/// One per-layer metric as `BENCHMARK.json` lists it, plus the end-to-end
/// metric and workload it is expected to move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const CHURN: &str = "sim_rate on attach_churn";
const PARTITION: &str = "sim_rate on backhaul_partition";
const FLEET: &str = "sim_rate on fleet_sync";

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [LayerMetric; 28] = [
    m("sim.events", "count", "lower", CHURN),
    m("sim.heap_peak", "count", "lower", CHURN),
    m("sim.cpu_jobs", "count", "lower", CHURN),
    m("sim.vcpu_s", "s", "lower", CHURN),
    m("sim.cpu_done_self_s", "s", "lower", CHURN),
    m("sim.kernel_self_s", "s", "lower", CHURN),
    m(
        "net.self_s",
        "s",
        "lower",
        "sim_rate on backhaul_partition and fleet_sync",
    ),
    m(
        "net.dispatches",
        "count",
        "lower",
        "sim_rate on fleet_sync (segment count)",
    ),
    m("net.rto_fires", "count", "lower", PARTITION),
    m(
        "net.frame_bytes",
        "B",
        "lower",
        "sim_rate on fleet_sync (segment count)",
    ),
    m("rpc.encode_self_s", "s", "lower", FLEET),
    m("rpc.encode_calls", "count", "lower", FLEET),
    m("rpc.decode_self_s", "s", "lower", FLEET),
    m("rpc.decode_calls", "count", "lower", FLEET),
    m(
        "agw.timer_self_s",
        "s",
        "lower",
        "sim_rate on all three, most on fleet_sync",
    ),
    m(
        "agw.msg_self_s",
        "s",
        "lower",
        "sim_rate on all three, most on attach_churn",
    ),
    m("agw.checkpoints", "count", "lower", FLEET),
    m("agw.checkpoint_bytes", "B", "lower", FLEET),
    m(
        "orc8r.msg_self_s",
        "s",
        "lower",
        "sim_rate and peak_rss_mb on fleet_sync",
    ),
    m(
        "orc8r.msgs",
        "count",
        "lower",
        "sim_rate and peak_rss_mb on fleet_sync",
    ),
    m(
        "metricsd.push_ok_frac",
        "frac",
        "higher",
        "sim_rate and peak_rss_mb on backhaul_partition",
    ),
    m(
        "metricsd.dropped",
        "count",
        "lower",
        "sim_rate and peak_rss_mb on backhaul_partition",
    ),
    m("dataplane.fluid_tick_self_s", "s", "lower", CHURN),
    m("dataplane.fluid_ticks", "count", "lower", CHURN),
    m("ran.self_s", "s", "lower", CHURN),
    m("ran.dispatches", "count", "lower", CHURN),
    m(
        "trace.overhead_frac",
        "frac",
        "lower",
        "none: observer cost, not in end-to-end runs",
    ),
    m(
        "shard.predicted_speedup",
        "x",
        "higher",
        "model only: set beside measured sim_rate",
    ),
];

/// Host-time metrics (medians across traced runs); the rest are
/// deterministic counts and model outputs. `sim.vcpu_s` is virtual time.
pub fn is_host_time(name: &str) -> bool {
    name.ends_with("_s") && name != "sim.vcpu_s"
}

/// Compute every per-layer metric of one traced run except
/// `trace.overhead_frac`, which needs the untraced runs too.
pub fn layer_metrics(run: &TracedRun) -> Result<Vec<(&'static str, f64)>, Vec<String>> {
    let self_s = layer_self_s(run)?;
    let layer_s = |l: Layer| {
        self_s
            .iter()
            .find(|(x, _)| *x == l)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    };
    let rows = &run.profile.host.rows;
    let vrows = &run.profile.virt.rows;
    let row_self = |pred: &dyn Fn(&str, &str) -> bool| -> f64 {
        rows.iter()
            .filter(|r| pred(&r.actor, &r.kind))
            .map(|r| r.self_wall_s)
            .sum()
    };
    let row_count = |pred: &dyn Fn(&str, &str) -> bool| -> f64 {
        vrows
            .iter()
            .filter(|r| pred(&r.actor, &r.kind))
            .map(|r| r.dispatches as f64)
            .sum()
    };
    let in_layer = |l: Layer| move |a: &str, k: &str| row_layer(a, k) == Some(l);
    let scope_s = |label: &str| -> f64 {
        run.profile
            .host
            .scopes
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.wall_s)
            .unwrap_or(0.0)
    };
    let scope_n = |label: &str| -> f64 {
        run.profile
            .virt
            .scopes
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.count as f64)
            .unwrap_or(0.0)
    };
    let edge = |kind: &str| -> (f64, f64) {
        run.shard
            .edges
            .iter()
            .filter(|e| e.kind == kind)
            .fold((0.0, 0.0), |(m, b), e| {
                (m + e.messages as f64, b + e.bytes as f64)
            })
    };
    let is_cpu_done = |_: &str, k: &str| k == "cpu_done";
    let agw_kind = |kind: &'static str| {
        move |a: &str, k: &str| k == kind && row_layer(a, k) == Some(Layer::Agw)
    };
    let net_timer = |a: &str, k: &str| k == "timer" && row_layer(a, k) == Some(Layer::Net);
    let orc8r_msg = |a: &str, k: &str| k == "msg" && row_layer(a, k) == Some(Layer::Orc8r);
    let dispatch_wall: f64 = rows.iter().map(|r| r.wall_s).sum();
    let (checkpoints, checkpoint_bytes) = edge("orc8r.Checkpoint");
    let (_, frame_bytes) = edge("net.frame");
    let cpu_done_s = row_self(&is_cpu_done);
    let out = vec![
        ("sim.events", run.profile.virt.events_processed as f64),
        ("sim.heap_peak", run.profile.virt.heap.peak_depth as f64),
        ("sim.cpu_jobs", row_count(&is_cpu_done)),
        ("sim.vcpu_s", run.profile.virt.vcpu_total_s),
        ("sim.cpu_done_self_s", cpu_done_s),
        ("sim.kernel_self_s", kernel_self_s(run.run_s, dispatch_wall)),
        ("net.self_s", layer_s(Layer::Net)),
        ("net.dispatches", row_count(&in_layer(Layer::Net))),
        ("net.rto_fires", row_count(&net_timer)),
        ("net.frame_bytes", frame_bytes),
        ("rpc.encode_self_s", scope_s("rpc.encode")),
        ("rpc.encode_calls", scope_n("rpc.encode")),
        ("rpc.decode_self_s", scope_s("rpc.decode")),
        ("rpc.decode_calls", scope_n("rpc.decode")),
        ("agw.timer_self_s", row_self(&agw_kind("timer"))),
        ("agw.msg_self_s", row_self(&agw_kind("msg"))),
        ("agw.checkpoints", checkpoints),
        ("agw.checkpoint_bytes", checkpoint_bytes),
        ("orc8r.msg_self_s", row_self(&orc8r_msg)),
        ("orc8r.msgs", row_count(&orc8r_msg)),
        (
            "metricsd.push_ok_frac",
            run.push_ok as f64 / (run.snapshots as f64).max(1.0),
        ),
        ("metricsd.dropped", run.metricsd_dropped as f64),
        (
            "dataplane.fluid_tick_self_s",
            scope_s("dataplane.fluid_tick"),
        ),
        ("dataplane.fluid_ticks", scope_n("dataplane.fluid_tick")),
        ("ran.self_s", layer_s(Layer::Ran)),
        ("ran.dispatches", row_count(&in_layer(Layer::Ran))),
        (
            "shard.predicted_speedup",
            run.shard.window_model.predicted_speedup,
        ),
    ];
    Ok(out)
}
