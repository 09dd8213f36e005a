//! The orchestrator actor: serves the southbound RPC interface and pushes
//! desired state to connected gateways.
//!
//! CPU on the orchestrator is deliberately not modeled: the paper's
//! evaluation notes "all machines in the orchestrator deployment were
//! running well under capacity" — the interesting contention is at AGWs.

use crate::proto::*;
use crate::state::Orc8rHandle;
use bytes::Bytes;
use magma_net::{SockEvent, StreamHandle};
use magma_rpc::{decode, RpcServer, RpcServerEvent};
use magma_sim::{downcast, flow_dispatch, Actor, ActorId, Ctx, Event, SimDuration};
use serde_json::json;
use std::collections::BTreeMap;

const TICK: SimDuration = SimDuration(500_000); // 500ms push cadence

flow_dispatch! {
    /// The orchestrator's ingress surface: socket events from its local
    /// stack plus every southbound RPC method. Same-timestamp requests
    /// from different gateways commute — all per-gateway state (certs,
    /// check-in records, metric stores) is keyed by `agw_id`/connection.
    pub const ORC8R_DISPATCH: actor = "orc8r",
    state = "Orc8rActor",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        flows::BOOTSTRAP,
        flows::CHECKIN,
        flows::CHECKPOINT,
        flows::CREDIT_REQUEST,
        flows::CREDIT_REPORT,
        flows::METRICS_PUSH,
    ],
    tie_break = Some("sender agw_id / stream handle (per-gateway state is disjoint)"),
}

struct ConnInfo {
    agw_id: Option<String>,
    last_pushed_version: u64,
}

/// The orchestrator service actor.
pub struct Orc8rActor {
    state: Orc8rHandle,
    server: RpcServer,
    conns: BTreeMap<StreamHandle, ConnInfo>,
}

impl Orc8rActor {
    pub fn new(state: Orc8rHandle, stack: ActorId, port: u16) -> Self {
        Orc8rActor {
            state,
            server: RpcServer::new(stack, port),
            conns: BTreeMap::new(),
        }
    }

    /// Serve one request. An `Err` is the reason the caller sends back
    /// as the single error reply.
    fn handle_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        method: &str,
        body: Bytes,
    ) -> Result<(), String> {
        let now = ctx.now();
        match method {
            methods::BOOTSTRAP => {
                let req: BootstrapRequest =
                    decode(ctx, &body).ok_or("bad bootstrap request")?;
                let cert = self.state.borrow_mut().bootstrap(&req.agw_id, req.hw_token);
                if let Some(info) = self.conns.get_mut(&conn) {
                    info.agw_id = Some(req.agw_id.clone());
                }
                ctx.metrics().inc("orc8r.bootstraps", 1.0);
                self.server
                    .reply(ctx, conn, id, &flows::ORC8R_REPLY, &BootstrapResponse { cert });
            }
            methods::CHECKIN => {
                let req: CheckinRequest = decode(ctx, &body).ok_or("bad checkin request")?;
                let mut st = self.state.borrow_mut();
                let ok = st.record_checkin(
                    &req.agw_id,
                    req.cert,
                    req.db_version,
                    req.enbs,
                    req.active_sessions,
                    req.metrics,
                    now,
                );
                if !ok {
                    return Err("unregistered gateway".into());
                }
                if let Some(info) = self.conns.get_mut(&conn) {
                    info.agw_id = Some(req.agw_id.clone());
                    info.last_pushed_version = info.last_pushed_version.max(req.db_version);
                }
                let latest = st.db.version;
                let snapshot = if req.db_version < latest {
                    Some(st.db.snapshot())
                } else {
                    None
                };
                let resp = CheckinResponse {
                    latest_version: latest,
                    snapshot,
                    checkin_interval_s: st.checkin_interval_s,
                };
                drop(st);
                ctx.metrics().inc("orc8r.checkins", 1.0);
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, &resp);
            }
            methods::CHECKPOINT => {
                let req: CheckpointPush = decode(ctx, &body).ok_or("bad checkpoint")?;
                if !self.state.borrow_mut().store_checkpoint(&req.agw_id, req.state) {
                    return Err("unregistered gateway".into());
                }
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, &json!({}));
            }
            methods::CREDIT_REQUEST => {
                let req: CreditRequest = decode(ctx, &body).ok_or("bad credit request")?;
                let answer = self
                    .state
                    .borrow_mut()
                    .ocs
                    .request_credit(magma_wire::Imsi(req.imsi));
                let resp = match answer {
                    magma_policy::CreditAnswer::Granted { bytes, is_final } => CreditResponse {
                        granted: bytes,
                        is_final,
                        denied: false,
                    },
                    magma_policy::CreditAnswer::Denied => CreditResponse {
                        granted: 0,
                        is_final: true,
                        denied: true,
                    },
                };
                ctx.metrics().inc("orc8r.ocs.requests", 1.0);
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, &resp);
            }
            methods::CREDIT_REPORT => {
                let req: CreditReport = decode(ctx, &body).ok_or("bad credit report")?;
                self.state.borrow_mut().ocs.report_usage(
                    magma_wire::Imsi(req.imsi),
                    req.used_bytes,
                    req.released_quota,
                );
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, &json!({}));
            }
            methods::METRICS_PUSH => {
                let req: MetricsPush = decode(ctx, &body).ok_or("bad metrics push")?;
                let (accepted, last_seq) = {
                    let mut st = self.state.borrow_mut();
                    let taken_at = magma_sim::SimTime(req.taken_at_us);
                    let accepted = st.metrics_store.ingest(
                        &req.agw_id,
                        req.seq,
                        taken_at,
                        req.snapshot,
                        req.events,
                    );
                    if accepted {
                        // Gateway-metric rules run on the sample's own
                        // clock, so drained backlogs replay faithfully.
                        st.evaluate_alert_rules_on_ingest(&req.agw_id, taken_at);
                    }
                    let last_seq = st
                        .metrics_store
                        .gateway(&req.agw_id)
                        .map(|g| g.last_seq)
                        .unwrap_or(0);
                    (accepted, last_seq)
                };
                ctx.metrics().inc("orc8r.metrics_pushes", 1.0);
                self.server
                    .reply(ctx, conn, id, &flows::ORC8R_REPLY, &MetricsAck { accepted, last_seq });
            }
            other => return Err(format!("unknown method {other}")),
        }
        Ok(())
    }

    /// Push the latest snapshot to any connected gateway whose replica is
    /// stale (desired-state push, complementing the pull at check-in).
    /// The snapshot is taken and encoded only when some gateway needs it,
    /// and every stale connection gets the same frame.
    fn push_stale(&mut self, ctx: &mut Ctx<'_>) {
        let version = self.state.borrow().db.version;
        let stale: Vec<StreamHandle> = self
            .conns
            .iter()
            .filter(|(_, info)| info.agw_id.is_some() && info.last_pushed_version < version)
            .map(|(h, _)| *h)
            .collect();
        if stale.is_empty() {
            return;
        }
        let snapshot = self.state.borrow().db.snapshot();
        let sent = self
            .server
            .push(ctx, &stale, version, &flows::PUSH_SUBSCRIBERS, &snapshot);
        for conn in sent {
            if let Some(info) = self.conns.get_mut(&conn) {
                info.last_pushed_version = version;
            }
            ctx.metrics().inc("orc8r.pushes", 1.0);
        }
    }
}

impl Actor for Orc8rActor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.server.listen(ctx);
                ctx.timer_in(TICK, 1);
                ctx.timer_in(SimDuration::from_secs(5), 2);
            }
            Event::Timer { tag: 1 } => {
                self.push_stale(ctx);
                ctx.timer_in(TICK, 1);
            }
            Event::Timer { tag: 2 } => {
                let now = ctx.now();
                self.state.borrow_mut().sample_fleet(now);
                ctx.timer_in(SimDuration::from_secs(5), 2);
            }
            Event::Timer { .. } => {}
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "orc8r");
                match self.server.try_handle(ctx, ev) {
                    Ok(events) => {
                        for e in events {
                            match e {
                                RpcServerEvent::Request {
                                    conn,
                                    id,
                                    method,
                                    body,
                                } => {
                                    if let Err(e) = self.handle_request(ctx, conn, id, &method, body) {
                                        self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, &e);
                                    }
                                }
                                RpcServerEvent::ClientConnected { conn } => {
                                    self.conns.insert(
                                        conn,
                                        ConnInfo {
                                            agw_id: None,
                                            last_pushed_version: 0,
                                        },
                                    );
                                }
                                RpcServerEvent::ClientGone { conn } => {
                                    self.conns.remove(&conn);
                                }
                            }
                        }
                    }
                    Err(_other) => {}
                }
            }
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        "orc8r".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::new_orc8r;
    use magma_net::{new_net, ports, Endpoint, LinkProfile, NetStack};
    use magma_rpc::{RpcClient, RpcClientEvent};
    use magma_sim::{DelayClass, FlowKind, Role, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    const NO_SUCH: FlowKind = FlowKind {
        name: "orc8r.NoSuch",
        sender: "test.caller",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("test.caller.tick"),
        lookahead: None,
    };

    /// Call ids in issue order, and the failure reason of each.
    #[derive(Default)]
    struct Log {
        ids: Vec<u64>,
        reasons: BTreeMap<u64, String>,
    }

    /// Issues one malformed bootstrap, one check-in with a wrong cert, one
    /// checkpoint from a gateway that never bootstrapped, and one call to
    /// an unknown method.
    struct Caller {
        client: RpcClient,
        cert: u64,
        log: Rc<RefCell<Log>>,
    }

    impl Actor for Caller {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    let bad_bootstrap = json!({ "nope": 1 });
                    let wrong_cert = CheckinRequest {
                        agw_id: "gw1".into(),
                        cert: self.cert + 1,
                        db_version: 0,
                        enbs: Vec::new(),
                        active_sessions: 0,
                        metrics: BTreeMap::new(),
                    };
                    let ghost_checkpoint = CheckpointPush {
                        agw_id: "ghost".into(),
                        state: Bytes::from_static(b"state"),
                    };
                    let ids = vec![
                        self.client.call(ctx, &flows::BOOTSTRAP, &bad_bootstrap),
                        self.client.call(ctx, &flows::CHECKIN, &wrong_cert),
                        self.client.call(ctx, &flows::CHECKPOINT, &ghost_checkpoint),
                        self.client.call(ctx, &NO_SUCH, &json!({})),
                    ];
                    self.log.borrow_mut().ids = ids;
                }
                Event::Msg { payload, .. } => {
                    let ev = downcast::<SockEvent>(payload, "caller");
                    for e in self.client.try_handle(ctx, ev).unwrap_or_default() {
                        if let RpcClientEvent::Failed { id, reason } = e {
                            self.log.borrow_mut().reasons.insert(id, reason);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn bad_requests_get_one_error_reply_each() {
        let mut w = World::new(3);
        let net = new_net();
        let (a, b) = {
            let mut t = net.borrow_mut();
            let a = t.add_node("gw");
            let b = t.add_node("orc8r");
            t.connect(a, b, LinkProfile::lan());
            (a, b)
        };
        let sa = w.add_actor(Box::new(NetStack::new(a, net.clone())));
        let sb = w.add_actor(Box::new(NetStack::new(b, net.clone())));
        let state = new_orc8r(0);
        let cert = state.borrow_mut().bootstrap("gw1", 7);
        w.add_actor(Box::new(Orc8rActor::new(state.clone(), sb, ports::ORC8R)));
        let log = Rc::new(RefCell::new(Log::default()));
        w.add_actor(Box::new(Caller {
            client: RpcClient::new(sa, Endpoint::new(b, ports::ORC8R), 1),
            cert,
            log: log.clone(),
        }));
        w.run_until(SimTime::from_secs(2));
        let log = log.borrow();
        let reasons: Vec<_> = log.ids.iter().map(|id| log.reasons.get(id).cloned()).collect();
        assert_eq!(
            reasons,
            [
                Some("bad bootstrap request".to_string()),
                Some("unregistered gateway".to_string()),
                Some("unregistered gateway".to_string()),
                Some("unknown method orc8r.NoSuch".to_string()),
            ]
        );
        assert!(state.borrow().checkpoints.is_empty(), "nothing stored for ghost");
    }
}
