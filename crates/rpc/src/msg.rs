//! RPC frame format.
//!
//! A frame is a binary envelope around an opaque body — the simulation
//! analog of a gRPC message on an HTTP/2 stream:
//!
//! ```text
//! [u32 len][u8 kind][u64 id][u8 method_len][method][body]
//! ```
//!
//! `len` counts every byte after itself, `kind` is an [`RpcKind`] tag,
//! and `method` is UTF-8 (empty on responses and errors). The envelope is
//! all the transport parses; the body stays bytes until the receiving
//! handler decodes it into its own type with [`crate::decode`], inside
//! the `rpc.decode` scope.
//!
//! A body is anything that implements [`Body`]. Control messages are
//! serde types whose JSON document is rendered once and appended to the
//! frame buffer; they are a small share of the bytes, so one hand-written
//! codec per message is not worth it. The AGW checkpoint brings its own
//! binary encoding, which is copied into the frame as is and which the
//! orchestrator stores without parsing. An error frame's body is the
//! reason text.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Kind of RPC frame. The discriminant is the wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RpcKind {
    /// A unary request expecting exactly one response.
    Request = 0,
    /// Successful response.
    Response = 1,
    /// Error response (application or transport level).
    Error = 2,
    /// One item of a server-push stream (used by desired-state sync).
    Push = 3,
}

impl RpcKind {
    /// The kind a wire tag names, if any.
    pub fn from_tag(tag: u8) -> Option<RpcKind> {
        match tag {
            0 => Some(RpcKind::Request),
            1 => Some(RpcKind::Response),
            2 => Some(RpcKind::Error),
            3 => Some(RpcKind::Push),
            _ => None,
        }
    }
}

/// One decoded envelope.
#[derive(Debug, Clone)]
pub struct RpcFrame {
    /// Correlates responses to requests. For `Push` frames the id is a
    /// server-chosen stream id.
    pub id: u64,
    pub kind: RpcKind,
    /// Fully-qualified method name, e.g. `"subscriberdb.ListSubscribers"`.
    /// Empty for responses.
    pub method: String,
    /// The body, undecoded: a window onto the received frame.
    pub body: Bytes,
}

/// Equal envelopes with equal body contents. (`Bytes` equality also
/// compares where the window sits in its allocation, and a received body
/// is a window onto a larger buffer.)
impl PartialEq for RpcFrame {
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.kind, &self.method) == (other.id, other.kind, &other.method)
            && self.body.as_ref() == other.body.as_ref()
    }
}

/// A message that can ride as a frame body.
pub trait Body {
    /// Append the encoded body to the frame buffer.
    fn encode_body(&self, out: &mut Vec<u8>);
}

/// A message that can be read back from a frame body.
pub trait FromBody: Sized {
    fn from_body(body: &Bytes) -> Option<Self>;
}

/// Control messages: one JSON document.
impl<T: Serialize + ?Sized> Body for T {
    fn encode_body(&self, out: &mut Vec<u8>) {
        let mut json = String::new();
        self.to_json().render(&mut json);
        out.extend_from_slice(json.as_bytes());
    }
}

impl<T: Deserialize> FromBody for T {
    fn from_body(body: &Bytes) -> Option<Self> {
        serde_json::from_slice(body).ok()
    }
}

/// An error frame's body: the reason text as UTF-8.
pub(crate) struct ErrorText<'a>(pub &'a str);

impl Body for ErrorText<'_> {
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

    #[test]
    fn kind_tags_roundtrip() {
        for kind in [RpcKind::Request, RpcKind::Response, RpcKind::Error, RpcKind::Push] {
            assert_eq!(RpcKind::from_tag(kind as u8), Some(kind));
        }
        assert_eq!(RpcKind::from_tag(4), None);
    }

    #[test]
    fn json_bodies_roundtrip() {
        let v = json!({"sessions": [1, 2, 3]});
        let mut out = Vec::new();
        v.encode_body(&mut out);
        assert_eq!(out, br#"{"sessions":[1,2,3]}"#);
        assert_eq!(Value::from_body(&Bytes::from(out)), Some(v));
        assert_eq!(u32::from_body(&Bytes::from_static(b"{")), None);
    }
}
