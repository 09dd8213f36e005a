//! Intra-AGW mobility (§3.2): the paper supports mobility across radios
//! served by a common AGW. A UE attaches via eNodeB 1; a target eNodeB
//! performs a path switch, and the AGW repoints the downlink tunnel
//! without touching the session.

use magma::prelude::*;
use magma::sim::{downcast, Actor, ActorId, Ctx, Event, World};
use magma_net::{lp_encode, ports, Endpoint, LpFramer, NetStack, SockCmd, SockEvent, StreamHandle};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::Teid;

/// A bare-bones target eNodeB: S1-Setup, then a PathSwitchRequest for an
/// already-attached UE.
struct TargetEnb {
    stack: ActorId,
    agw: Endpoint,
    conn: Option<StreamHandle>,
    framer: LpFramer,
    switch_at: SimTime,
    target_ue: MmeUeId,
}

impl Actor for TargetEnb {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send(
                    self.stack,
                    Box::new(SockCmd::OpenStream {
                        peer: self.agw,
                        owner: me,
                        user: 50,
                    }),
                );
            }
            Event::Timer { tag: 1 } => {
                if let Some(conn) = self.conn {
                    let msg = S1apMessage::PathSwitchRequest {
                        mme_ue_id: self.target_ue,
                        new_enb_ue_id: EnbUeId(1),
                        new_enb_teid: Teid(0xBEEF),
                    };
                    ctx.send(
                        self.stack,
                        Box::new(SockCmd::StreamSend {
                            handle: conn,
                            bytes: lp_encode(&msg.encode()),
                        }),
                    );
                }
            }
            Event::Msg { payload, .. } => match downcast::<SockEvent>(payload, "target-enb") {
                SockEvent::StreamOpened { handle, .. } => {
                    self.conn = Some(handle);
                    let setup = S1apMessage::S1SetupRequest {
                        enb_id: 99,
                        name: "target-enb".into(),
                    };
                    ctx.send(
                        self.stack,
                        Box::new(SockCmd::StreamSend {
                            handle,
                            bytes: lp_encode(&setup.encode()),
                        }),
                    );
                    let delay = self.switch_at.since(ctx.now());
                    ctx.timer_in(delay, 1);
                }
                SockEvent::StreamRecv { bytes, .. } => {
                    for m in self.framer.push(&bytes) {
                        if let Ok(S1apMessage::PathSwitchAck { mme_ue_id }) =
                            S1apMessage::decode(&m)
                        {
                            let t = ctx.now();
                            ctx.metrics()
                                .record("test.path_switch_ack", t, mme_ue_id.0 as f64);
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

#[test]
fn path_switch_moves_downlink_tunnel() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 1,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(3).with_agw(AgwSpec::bare_metal(site));
    let mut sc = magma::deploy(cfg);

    // A second (target) eNodeB node appears at the same site.
    let site_domain = sc.net.domain_of(sc.agws[0].node);
    let target_node = sc.net.add_node(site_domain, "target-enb");
    sc.net
        .connect(target_node, sc.agws[0].node, magma_net::LinkProfile::lan());
    let target_stack = {
        let w: &mut World = &mut sc.world;
        w.add_actor(Box::new(NetStack::new(target_node, sc.net.handle_of(target_node))))
    };
    sc.net.bind_stack(target_node, target_stack);
    sc.world.add_actor(Box::new(TargetEnb {
        stack: target_stack,
        agw: Endpoint::new(sc.agws[0].node, ports::S1AP),
        conn: None,
        framer: LpFramer::new(),
        switch_at: SimTime::from_secs(20),
        target_ue: MmeUeId(1), // the first (and only) attached UE
    }));

    sc.world.run_until(SimTime::from_secs(40));
    let rec = sc.world.metrics();
    assert_eq!(rec.counter("agw0.attach.accept"), 1.0, "UE attached first");
    assert_eq!(rec.counter("agw0.handover"), 1.0, "path switch handled");
    assert_eq!(
        rec.series("test.path_switch_ack").map(|s| s.len()),
        Some(1),
        "target eNB received the ack"
    );

    // The session's downlink TEID now points at the target eNodeB.
    let cp = sc.agws[0]
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("checkpointing active");
    let cp = magma_agw::AgwCheckpoint::decode(&cp).expect("checkpoint decodes");
    let session = cp.sessions.iter().next().expect("one session");
    assert_eq!(session.dl_teid, Teid(0xBEEF), "downlink repointed");
}
