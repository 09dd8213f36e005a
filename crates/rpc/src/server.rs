//! RPC server: accepts connections on a port, surfaces requests to the
//! owning actor, and sends responses / push frames back.
//! Reply and push bodies go in typed and are converted and encoded inside
//! the `rpc.encode` scope; request bodies come out as a `Value`.

use crate::codec::{count_malformed, encode_frame, Framer};
use crate::msg::{RpcFrame, RpcKind};
use magma_net::{flows, SockCmd, SockEvent, StreamHandle};
use magma_sim::{ActorId, Ctx, FlowKind, Role};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// Events the server surfaces to its owning actor.
#[derive(Debug)]
pub enum RpcServerEvent {
    /// A unary request to answer via [`RpcServer::reply`] /
    /// [`RpcServer::reply_err`].
    Request {
        conn: StreamHandle,
        id: u64,
        method: String,
        body: Value,
    },
    /// A client connected (useful for push-stream registration).
    ClientConnected { conn: StreamHandle },
    /// A client connection went away; any push streams to it are dead.
    ClientGone { conn: StreamHandle },
}

/// An RPC server bound to one listening port. Embed in an actor and
/// forward `SockEvent`s through [`try_handle`](RpcServer::try_handle).
pub struct RpcServer {
    stack: ActorId,
    port: u16,
    conns: BTreeMap<StreamHandle, Framer>,
}

impl RpcServer {
    pub fn new(stack: ActorId, port: u16) -> Self {
        RpcServer {
            stack,
            port,
            conns: BTreeMap::new(),
        }
    }

    /// Register the listening port; call from the owner's `Start` event.
    pub fn listen(&mut self, ctx: &mut Ctx<'_>) {
        let owner = ctx.id();
        ctx.send_to(
            self.stack,
            &flows::SOCK_CMD,
            Box::new(SockCmd::ListenStream {
                port: self.port,
                owner,
            }),
        );
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    /// Offer a `SockEvent`; `Err` hands it back if it isn't ours.
    pub fn try_handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
    ) -> Result<Vec<RpcServerEvent>, SockEvent> {
        match ev {
            SockEvent::StreamAccepted {
                handle, local_port, ..
            } if local_port == self.port => {
                self.conns.insert(handle, Framer::new());
                Ok(vec![RpcServerEvent::ClientConnected { conn: handle }])
            }
            SockEvent::StreamRecv { handle, bytes } if self.conns.contains_key(&handle) => {
                let mut out = Vec::new();
                if let Some(framer) = self.conns.get_mut(&handle) {
                    let (frames, malformed) = {
                        let _dec = ctx.profile_scope("rpc.decode");
                        framer.push(&bytes)
                    };
                    count_malformed(ctx, malformed);
                    for f in frames {
                        if f.kind == RpcKind::Request {
                            out.push(RpcServerEvent::Request {
                                conn: handle,
                                id: f.id,
                                method: f.method,
                                body: f.body,
                            });
                        }
                    }
                }
                Ok(out)
            }
            SockEvent::StreamClosed { handle, .. } if self.conns.contains_key(&handle) => {
                self.conns.remove(&handle);
                Ok(vec![RpcServerEvent::ClientGone { conn: handle }])
            }
            other => Err(other),
        }
    }

    /// Send a successful response. The flow kind declares the reply edge
    /// in the message-flow graph; it must be `Response`-role (responses
    /// are demand-bounded and excluded from zero-delay cycle analysis).
    pub fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        kind: &'static FlowKind,
        body: &impl Serialize,
    ) {
        debug_assert!(
            kind.role == Role::Response,
            "RPC replies must use a Response-role flow kind, got {}",
            kind.name
        );
        self.send_frame(ctx, conn, kind, || RpcFrame::response(id, body.to_json()));
    }

    /// Send an application error (same `Response` edge as [`reply`](Self::reply)).
    pub fn reply_err(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        kind: &'static FlowKind,
        msg: &str,
    ) {
        debug_assert!(
            kind.role == Role::Response,
            "RPC replies must use a Response-role flow kind, got {}",
            kind.name
        );
        self.send_frame(ctx, conn, kind, || RpcFrame::error(id, msg));
    }

    /// Push an unsolicited frame (desired-state sync) to a connected
    /// client; the kind's name is the wire method. Returns false if the
    /// connection is gone.
    pub fn push(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        stream_id: u64,
        kind: &'static FlowKind,
        body: &impl Serialize,
    ) -> bool {
        if !self.conns.contains_key(&conn) {
            return false;
        }
        self.send_frame(ctx, conn, kind, || {
            RpcFrame::push(stream_id, kind.name, body.to_json())
        });
        true
    }

    /// Handles of all live client connections.
    pub fn clients(&self) -> impl Iterator<Item = StreamHandle> + '_ {
        self.conns.keys().copied()
    }

    fn send_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        kind: &'static FlowKind,
        frame: impl FnOnce() -> RpcFrame,
    ) {
        // `frame` converts the body, so its cost is charged to rpc.
        let bytes = {
            let _enc = ctx.profile_scope("rpc.encode");
            encode_frame(&frame())
        };
        // Reply/push edges are logical shard cut edges; they ride inside
        // the stream payload, so shardscope samples them at encode time.
        ctx.shard_logical(kind.name, bytes.len());
        ctx.send_to(
            self.stack,
            &flows::SOCK_CMD,
            Box::new(SockCmd::StreamSend {
                handle: conn,
                bytes,
            }),
        );
    }
}
