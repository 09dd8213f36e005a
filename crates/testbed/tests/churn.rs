//! Session churn: UEs attach, hold a session, detach, and re-attach.
//! Verifies the full detach path (NAS Detach → sessiond teardown →
//! data-plane removal → IP release) leaks nothing over many cycles.

use magma_agw::AgwCheckpoint;
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use magma_testbed::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};

#[test]
fn churn_does_not_leak_sessions_or_ips() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 12,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::iot(),
        sector: SectorModel::ideal_enb(),
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: true,
        session_lifetime_s: Some((10, 20)),
    };
    let cfg = ScenarioConfig::new(19).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(300));

    let rec = sc.world.metrics();
    let attaches = rec.counter("agw0.attach.accept");
    let detaches = rec.counter("agw0.detach");
    // ~12 UEs cycling every ~15s+backoff over 300s ⇒ many full cycles.
    assert!(attaches > 100.0, "many attach cycles: {attaches}");
    assert!(detaches > 90.0, "matching detaches: {detaches}");
    assert!(
        attaches - detaches <= 13.0,
        "every cycle tears down: attaches={attaches} detaches={detaches}"
    );

    // No leaks: active sessions and IP leases bounded by the fleet size.
    // The checkpoint at 300 s was taken at the same instant as the fluid
    // tick that published the live session and lease gauges.
    let published = sc.agws[0].handle.borrow().checkpoint.clone().unwrap();
    let cp = AgwCheckpoint::decode(&published).expect("published checkpoint decodes");
    assert_eq!(cp.taken_at_us, 300_000_000);
    assert!(cp.sessions.len() <= 12, "sessions leaked: {}", cp.sessions.len());
    assert!(cp.pool.in_use() <= 12, "IP leases leaked: {}", cp.pool.in_use());
    let gauge = |name: &str| sc.world.registry().gauge(name).unwrap() as usize;
    let (live_sessions, live_leases) = (gauge("agw0.sessiond.sessions"), gauge("agw0.mobilityd.ips_in_use"));

    // The data plane sheds rules on detach too.
    assert!(
        sc.agws[0].handle.borrow().active_sessions <= 12,
        "pipeline session count bounded"
    );

    // Restore-equivalence end to end: once the upload has landed (the
    // backhaul RTT is milliseconds; the next checkpoint is at 301 s),
    // orc8r holds exactly the bytes the AGW published, and they restore
    // the AGW's session table and pool.
    sc.world.run_until(SimTime::from_millis(300_500));
    let stored = sc.orc8r.borrow().checkpoints.get("agw0").cloned().expect("uploaded");
    assert_eq!(stored.as_ref(), published.as_ref(), "orc8r stores what the AGW sent");
    let restored = AgwCheckpoint::decode(&stored).expect("stored checkpoint decodes");
    assert_eq!(restored, cp);
    assert_eq!(restored.sessions.len(), live_sessions, "every live session restored");
    assert_eq!(restored.pool.in_use(), live_leases, "every live lease restored");
    for s in restored.sessions.iter() {
        assert_eq!(restored.pool.lookup(s.imsi), Some(s.ue_ip), "session keeps its lease");
        assert_eq!(restored.sessions.by_ul_teid(s.ul_teid).map(|x| x.id), Some(s.id));
    }
}

#[test]
fn detach_is_acknowledged_and_ue_goes_idle() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 3,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::iot(),
        sector: SectorModel::ideal_enb(),
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: false, // single cycle: attach once, detach once, stay idle
        session_lifetime_s: Some((5, 8)),
    };
    let cfg = ScenarioConfig::new(20).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(60));
    let rec = sc.world.metrics();
    assert_eq!(rec.counter("agw0.attach.accept"), 3.0);
    assert_eq!(rec.counter("agw0.detach"), 3.0);
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 0);
    // Attached gauge returned to zero.
    let attached_last = rec
        .series("ran.attached")
        .and_then(|s| s.values().last())
        .unwrap_or(0.0);
    assert_eq!(attached_last, 0.0);
}
