//! Seeded workload generation.
//!
//! A workload is a [`WorkloadSpec`]: plain data drawn from `--seed`. The
//! simulator receives only the [`ScenarioConfig`] the spec generates (plus,
//! for `backhaul_partition`, the link-down window applied between
//! `run_until` phases). The seed perturbs attach and traffic rates and
//! session lifetimes by a few percent and seeds the world, so a different
//! seed is a different run of the same shape; the fleet size, the
//! simulated span and the partition window never depend on the seed, so
//! host cost stays comparable across seeds.
//!
//! All three workloads are open loop in virtual time: eNodeBs start UE
//! attaches on their own schedule whatever the AGW backlog.

use magma_net::LinkProfile;
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::racecheck::splitmix64;
use magma_sim::SimDuration;
use magma_testbed::scenario::{AgwSpec, ScenarioConfig, SiteSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fleet_sync", "attach_churn", "backhaul_partition"];

/// Full size for measurement, reduced size for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

/// Everything one workload run needs, generated from a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// `ScenarioConfig::seed`: drives every in-simulation RNG stream.
    pub world_seed: u64,
    pub agws: usize,
    pub enbs_per_agw: usize,
    pub ues_per_enb: usize,
    /// Aggregate attach rate of one site, UE/s.
    pub attach_rate_per_sec: f64,
    pub traffic: TrafficModel,
    /// Session churn: attached UEs detach after a lifetime drawn from this
    /// range (seconds) and attach again. `None`: UEs attach once and stay.
    pub session_lifetime_s: Option<(u64, u64)>,
    /// AGW ↔ orc8r backhaul.
    pub backhaul: LinkProfile,
    /// metricsd snapshot/push cadence, milliseconds.
    pub metrics_interval_ms: u64,
    /// Simulated span of one run, seconds.
    pub sim_seconds: u64,
    /// Backhaul (AGW ↔ orc8r) down over `[from, to)` seconds, if any.
    pub partition: Option<(u64, u64)>,
}

/// Parameter draws: the splitmix64 stream of a seed.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, salt: u64) -> Self {
        Draw(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Uniform integer in `[lo, hi]`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Generate a workload from its name and seed; `None` for an unknown name.
pub fn generate(name: &str, seed: u64, size: Size) -> Option<WorkloadSpec> {
    let reduced = size == Size::Reduced;
    let mut d = Draw::new(seed, name.len() as u64);
    let world_seed = d.next_u64();
    let spec = match name {
        // Eight bare-metal AGWs, each a small steady HTTP site. Every AGW
        // is pre-provisioned with the whole fleet's subscriber DB, so each
        // per-second checkpoint grows with fleet size, and orc8r ingests
        // fleet-size-squared bytes: orc8r, rpc and net carry the load.
        "fleet_sync" => WorkloadSpec {
            name: "fleet_sync",
            world_seed,
            agws: if reduced { 3 } else { 8 },
            enbs_per_agw: 1,
            ues_per_enb: if reduced { 10 } else { 30 },
            attach_rate_per_sec: d.uniform(1.9, 2.1),
            traffic: TrafficModel {
                dl_bps: d.int(190, 210) * 1_000,
                ul_bps: 10_000,
            },
            session_lifetime_s: None,
            backhaul: LinkProfile::fiber(),
            metrics_interval_ms: 5_000,
            sim_seconds: if reduced { 20 } else { 30 },
            partition: None,
        },
        // One AGW, a small subscriber base cycling attach → session →
        // detach → reattach near the bare-metal knee. AGW control plane,
        // the CPU model, IP-pool and dataplane-rule churn carry the load;
        // checkpoints stay small.
        "attach_churn" => {
            let lo = d.int(13, 15);
            WorkloadSpec {
                name: "attach_churn",
                world_seed,
                agws: 1,
                enbs_per_agw: 2,
                ues_per_enb: if reduced { 10 } else { 25 },
                attach_rate_per_sec: d.uniform(1.9, 2.1),
                traffic: TrafficModel::iot(),
                session_lifetime_s: Some((lo, lo + 10)),
                backhaul: LinkProfile::fiber(),
                metrics_interval_ms: 5_000,
                sim_seconds: if reduced { 30 } else { 120 },
                partition: None,
            }
        }
        // One typical site with churn; the backhaul is down for a long
        // middle interval and then restored, so net and rpc run their
        // retransmit/backoff/drain paths and metricsd sheds and drains.
        "backhaul_partition" => {
            let span = if reduced { 40 } else { 120 };
            let from = span / 4;
            let to = span * 3 / 4;
            WorkloadSpec {
                name: "backhaul_partition",
                world_seed,
                agws: 1,
                enbs_per_agw: 3,
                ues_per_enb: if reduced { 10 } else { 32 },
                attach_rate_per_sec: d.uniform(1.9, 2.1),
                traffic: TrafficModel::http_download(),
                session_lifetime_s: Some(if reduced { (10, 15) } else { (40, 60) }),
                backhaul: LinkProfile::microwave(),
                // Fast enough that the partition outlasts metricsd's
                // 120-snapshot queue.
                metrics_interval_ms: if reduced { 100 } else { 400 },
                sim_seconds: span,
                partition: Some((from, to)),
            }
        }
        _ => return None,
    };
    Some(spec)
}

impl WorkloadSpec {
    /// UEs across the whole fleet.
    pub fn total_ues(&self) -> usize {
        self.agws * self.enbs_per_agw * self.ues_per_enb
    }

    /// The scenario the simulator is given.
    pub fn scenario_config(&self) -> ScenarioConfig {
        let site = SiteSpec {
            enbs: self.enbs_per_agw,
            ues_per_enb: self.ues_per_enb,
            attach_rate_per_sec: self.attach_rate_per_sec,
            traffic: self.traffic,
            sector: SectorModel::typical_enb(),
            ue_attach_timeout: SimDuration::from_secs(10),
            reattach: self.session_lifetime_s.is_some(),
            session_lifetime_s: self.session_lifetime_s,
        };
        let mut cfg = ScenarioConfig::new(self.world_seed);
        cfg.metrics_interval = SimDuration::from_millis(self.metrics_interval_ms);
        for _ in 0..self.agws {
            let mut agw = AgwSpec::bare_metal(site.clone());
            agw.backhaul = self.backhaul;
            cfg = cfg.with_agw(agw);
        }
        cfg
    }
}
