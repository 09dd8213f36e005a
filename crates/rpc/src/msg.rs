//! RPC frame format.
//!
//! Frames are length-prefixed JSON documents — the simulation analog of
//! gRPC's HTTP/2 frames carrying protobuf. JSON keeps the simulated wire
//! self-describing and debuggable; the framing and delivery semantics
//! (ordered, reliable, multiplexed by id) are what matter for fidelity.
//! Bodies are typed (`&impl Serialize`) going in and a [`Value`] coming
//! out, which the receiver decodes into its own type.

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Kind of RPC frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcKind {
    /// A unary request expecting exactly one response.
    Request,
    /// Successful response.
    Response,
    /// Error response (application or transport level).
    Error,
    /// One item of a server-push stream (used by desired-state sync).
    Push,
}

/// One RPC frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpcFrame {
    /// Correlates responses to requests. For `Push` frames the id is a
    /// server-chosen stream id.
    pub id: u64,
    pub kind: RpcKind,
    /// Fully-qualified method name, e.g. `"subscriberdb.ListSubscribers"`.
    /// Empty for responses.
    pub method: String,
    /// Payload document.
    pub body: Value,
}

impl RpcFrame {
    pub fn request(id: u64, method: &str, body: Value) -> Self {
        RpcFrame {
            id,
            kind: RpcKind::Request,
            method: method.to_string(),
            body,
        }
    }

    pub fn response(id: u64, body: Value) -> Self {
        RpcFrame {
            id,
            kind: RpcKind::Response,
            method: String::new(),
            body,
        }
    }

    pub fn error(id: u64, message: &str) -> Self {
        RpcFrame {
            id,
            kind: RpcKind::Error,
            method: String::new(),
            body: Value::String(message.to_string()),
        }
    }

    pub fn push(stream_id: u64, method: &str, body: Value) -> Self {
        RpcFrame {
            id: stream_id,
            kind: RpcKind::Push,
            method: method.to_string(),
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn frame_constructors() {
        let r = RpcFrame::request(1, "m.Do", json!({"x": 1}));
        assert_eq!(r.kind, RpcKind::Request);
        assert_eq!(r.method, "m.Do");
        let e = RpcFrame::error(1, "boom");
        assert_eq!(e.kind, RpcKind::Error);
        assert_eq!(e.body, Value::String("boom".into()));
    }

    #[test]
    fn serde_roundtrip() {
        let f = RpcFrame::push(9, "sync.State", json!({"sessions": [1, 2, 3]}));
        let s = serde_json::to_string(&f).unwrap();
        let back: RpcFrame = serde_json::from_str(&s).unwrap();
        assert_eq!(back, f);
    }
}
