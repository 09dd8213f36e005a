//! The outputs the paper reports, and the check each run must pass.
//!
//! Only paper-level outputs are pinned: connection success rate, attach
//! and detach counts, attach p99, per-AGW throughput and metricsd
//! push_ok. Transport internals (`sim.events`, edge bytes, segment
//! counts) are deliberately not pinned: a checkpoint or codec change
//! moves them by design without changing what the network does.

use crate::workload::WorkloadSpec;
use magma_sim::{SimDuration, SimTime};
use magma_testbed::measure::{mean_over, overall_csr, throughput_mbps};
use magma_testbed::scenario::Scenario;

/// Paper-level outputs of one run. Equality is exact: the simulation is
/// deterministic, so repeated and traced runs of one spec must agree bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Overall connection success rate across the RAN.
    pub csr: f64,
    pub attaches: u64,
    pub attach_fails: u64,
    /// Attaches completed while the backhaul was down (headless
    /// operation, §3.2); 0 without a partition.
    pub partition_attaches: u64,
    pub detaches: u64,
    /// Per-AGW attach p99, seconds (0 when the AGW saw no attach).
    pub attach_p99_s: Vec<f64>,
    /// Per-AGW user-plane throughput, Mbit/s, averaged over the last third
    /// of the run (every workload has finished its attach ramp by then).
    pub agw_mbps: Vec<f64>,
    /// Per-AGW metricsd pushes acknowledged by orc8r.
    pub push_ok: Vec<u64>,
    /// Per-AGW metricsd snapshots taken.
    pub snapshots: Vec<u64>,
    /// Per-AGW snapshots metricsd shed from its bounded queue.
    pub shed: Vec<u64>,
}

impl Outputs {
    /// Read the outputs of a finished run.
    pub fn collect(sc: &Scenario, spec: &WorkloadSpec) -> Self {
        let rec = sc.world.metrics();
        let reg = sc.world.registry();
        let series_len = |name: &str| rec.series(name).map(|s| s.len() as u64).unwrap_or(0);
        let mut out = Outputs {
            csr: overall_csr(rec, "ran"),
            attaches: series_len("ran.attach_ok_at"),
            attach_fails: series_len("ran.attach_fail_at"),
            partition_attaches: 0,
            detaches: 0,
            attach_p99_s: Vec::new(),
            agw_mbps: Vec::new(),
            push_ok: Vec::new(),
            snapshots: Vec::new(),
            shed: Vec::new(),
        };
        if let Some((down, up)) = spec.partition {
            let down = SimTime::from_secs(down).as_micros();
            let up = SimTime::from_secs(up).as_micros();
            out.partition_attaches = rec
                .series("ran.attach_ok_at")
                .map(|s| {
                    s.points
                        .iter()
                        .filter(|(t, _)| (down..up).contains(t))
                        .count()
                })
                .unwrap_or(0) as u64;
        }
        let from = SimTime::from_secs(spec.sim_seconds * 2 / 3);
        let to = SimTime::from_secs(spec.sim_seconds);
        for agw in &sc.agws {
            let id = &agw.id;
            out.detaches += rec.counter(&format!("{id}.detach")) as u64;
            out.attach_p99_s.push(
                reg.histogram(&format!("{id}.mme.attach.total_s"))
                    .map(|h| h.quantile(0.99))
                    .unwrap_or(0.0),
            );
            let tp = throughput_mbps(rec, &format!("{id}.tp_bytes"), SimDuration::from_secs(1));
            out.agw_mbps.push(mean_over(&tp, from, to));
            let metricsd = |suffix: &str| reg.counter(&format!("{id}.metricsd.{suffix}")) as u64;
            out.push_ok.push(metricsd("push_ok"));
            out.snapshots.push(metricsd("snapshots"));
            out.shed.push(metricsd("dropped"));
        }
        out
    }

    /// Check the outputs against what the workload's configuration
    /// implies. Returns every violated expectation.
    pub fn check(&self, spec: &WorkloadSpec) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                errs.push(what);
            }
        };
        let ues = spec.total_ues() as u64;
        // Per UE the offered load is the downlink plus the uplink rate.
        let offered_mbps = (spec.enbs_per_agw * spec.ues_per_enb) as f64
            * (spec.traffic.dl_bps + spec.traffic.ul_bps) as f64
            / 1e6;
        expect(self.csr >= 0.97, format!("csr {:.4} below 0.97", self.csr));
        expect(
            self.attach_p99_s.len() == spec.agws,
            format!(
                "{} AGW p99s for {} AGWs",
                self.attach_p99_s.len(),
                spec.agws
            ),
        );
        for (a, p99) in self.attach_p99_s.iter().enumerate() {
            expect(
                *p99 > 0.0 && *p99 < 10.0,
                format!("agw{a} attach p99 {p99:.3}s outside (0, 10)s"),
            );
        }
        // Telemetry accounting: every snapshot is acknowledged, shed from
        // metricsd's bounded queue, or among the last two seconds' worth
        // still in flight.
        let in_flight = (2_000 / spec.metrics_interval_ms).max(1);
        for (a, ((ok, shed), snaps)) in self
            .push_ok
            .iter()
            .zip(&self.shed)
            .zip(&self.snapshots)
            .enumerate()
        {
            expect(*snaps > 0, format!("agw{a} took no metricsd snapshot"));
            expect(
                ok + shed <= *snaps && ok + shed + in_flight >= *snaps,
                format!("agw{a} push_ok {ok} + shed {shed} vs {snaps} snapshots"),
            );
        }
        match spec.session_lifetime_s {
            // Every UE attaches once and stays: all of them must be up and
            // each AGW must carry its site's whole offered load.
            None => {
                expect(
                    self.attaches == ues,
                    format!("{} attaches for {ues} UEs", self.attaches),
                );
                expect(self.detaches == 0, format!("{} detaches", self.detaches));
                for (a, mbps) in self.agw_mbps.iter().enumerate() {
                    expect(
                        (mbps / offered_mbps - 1.0).abs() < 0.05,
                        format!("agw{a} {mbps:.3} Mbit/s vs {offered_mbps:.3} offered"),
                    );
                }
            }
            // Churn: UEs cycle, so there must be re-attaches and detaches,
            // and traffic must flow (sessions are only partly up at once).
            Some((lo, _)) => {
                expect(
                    self.attaches > ues,
                    format!("{} attaches for {ues} churning UEs", self.attaches),
                );
                let min_detaches = ues * (spec.sim_seconds / (lo + 10)).saturating_sub(1) / 2;
                expect(
                    self.detaches >= min_detaches.max(1),
                    format!("{} detaches, expected ≥ {min_detaches}", self.detaches),
                );
                for (a, mbps) in self.agw_mbps.iter().enumerate() {
                    expect(
                        *mbps > 0.0 && *mbps <= offered_mbps * 1.05,
                        format!("agw{a} {mbps:.3} Mbit/s vs {offered_mbps:.3} offered"),
                    );
                }
            }
        }
        if let Some((from, to)) = spec.partition {
            // Headless operation: UEs keep attaching while orc8r is
            // unreachable, and the partition outlasts metricsd's queue,
            // which sheds its oldest snapshots.
            let min_attaches = (to - from) / 2;
            expect(
                self.partition_attaches >= min_attaches,
                format!(
                    "{} attaches during the partition, expected ≥ {min_attaches}",
                    self.partition_attaches
                ),
            );
            for (a, shed) in self.shed.iter().enumerate() {
                expect(*shed > 0, format!("agw{a} metricsd shed nothing"));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}
