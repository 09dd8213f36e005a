//! Framing over the byte stream.
//!
//! The stream transport delivers byte chunks with arbitrary segmentation
//! (MTU-sized segments, possibly coalesced); the [`Framer`] reassembles
//! complete `[u32 len][u8 kind][u64 id][u8 method_len][method][body]`
//! frames (see [`crate::msg`]). It parses only the envelope: each body
//! comes out as a window onto the received bytes, not a copy, and is
//! decoded later by the handler that owns its type ([`decode`]).

use crate::msg::{Body, FromBody, RpcFrame, RpcKind};
use bytes::{BufMut, Bytes, BytesMut};
use magma_sim::Ctx;
use std::ops::Range;

/// Envelope bytes between the length prefix and the method name.
const HEADER: usize = 1 + 8 + 1;

/// Encode one frame, length prefix included. The body appends itself to
/// the frame buffer after the envelope.
pub fn encode_frame(kind: RpcKind, id: u64, method: &str, body: &(impl Body + ?Sized)) -> Bytes {
    debug_assert!(method.len() <= u8::MAX as usize, "method name too long: {method}");
    let mut out = Vec::with_capacity(4 + HEADER + method.len() + 64);
    out.put_u32(0); // length, patched below
    out.put_u8(kind as u8);
    out.put_u64(id);
    out.put_u8(method.len() as u8);
    out.put_slice(method.as_bytes());
    body.encode_body(&mut out);
    let len = (out.len() - 4) as u32;
    if let Some(prefix) = out.get_mut(..4) {
        prefix.copy_from_slice(&len.to_be_bytes());
    }
    Bytes::from(out)
}

/// [`encode_frame`] inside the `rpc.encode` scope, so the layer table
/// charges the body's conversion to rpc.
pub(crate) fn encode_scoped(
    ctx: &mut Ctx<'_>,
    kind: RpcKind,
    id: u64,
    method: &str,
    body: &(impl Body + ?Sized),
) -> Bytes {
    let _enc = ctx.profile_scope("rpc.encode");
    encode_frame(kind, id, method, body)
}

/// Decode a frame body into the handler's type, inside the `rpc.decode`
/// scope so the layer table charges the conversion to rpc. `None` when
/// the body is not a valid encoding of `T`.
pub fn decode<T: FromBody>(ctx: &mut Ctx<'_>, body: &Bytes) -> Option<T> {
    let _dec = ctx.profile_scope("rpc.decode");
    T::from_body(body)
}

/// Count frames a [`Framer`] skipped as undecodable. Client and server
/// share the counter; nothing is registered until a frame is dropped.
pub(crate) fn count_malformed(ctx: &mut Ctx<'_>, malformed: u64) {
    if malformed > 0 {
        ctx.registry()
            .counter_add("rpc.frames_malformed_total", malformed as f64);
    }
}

/// A parsed envelope whose body is a range of the reassembly buffer.
struct Envelope {
    kind: RpcKind,
    id: u64,
    method: String,
    body: Range<usize>,
}

/// Parse the envelope of one frame (`frame` excludes the length prefix
/// and starts at `at` in the buffer). `None` on an unknown kind, a method
/// length past the frame's end, or a method that is not UTF-8.
fn parse_envelope(frame: &[u8], at: usize) -> Option<Envelope> {
    let (&tag, rest) = frame.split_first()?;
    let kind = RpcKind::from_tag(tag)?;
    let id = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
    let (&method_len, rest) = rest.get(8..)?.split_first()?;
    let method = std::str::from_utf8(rest.get(..method_len as usize)?).ok()?;
    let body_at = at + HEADER + method_len as usize;
    Some(Envelope {
        kind,
        id,
        method: method.to_string(),
        body: body_at..at + frame.len(),
    })
}

/// Streaming reassembler for length-prefixed frames.
#[derive(Debug, Default)]
pub struct Framer {
    buf: BytesMut,
}

impl Framer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed received bytes; returns all complete frames now available and
    /// the number of complete frames skipped because their envelope did
    /// not parse (the caller exports that count).
    pub fn push(&mut self, bytes: &[u8]) -> (Vec<RpcFrame>, u64) {
        self.buf.extend_from_slice(bytes);
        let mut envelopes = Vec::new();
        let mut malformed = 0;
        let mut at = 0;
        while let Some(&[b0, b1, b2, b3]) = self.buf.get(at..at + 4) {
            let len = u32::from_be_bytes([b0, b1, b2, b3]) as usize;
            let Some(frame) = self.buf.get(at + 4..at + 4 + len) else {
                break;
            };
            match parse_envelope(frame, at + 4) {
                Some(e) => envelopes.push(e),
                None => malformed += 1,
            }
            at += 4 + len;
        }
        if at == 0 {
            return (Vec::new(), malformed);
        }
        // One copy of the consumed bytes; every body is a window onto it.
        let consumed = self.buf.split_to(at).freeze();
        let frames = envelopes
            .into_iter()
            .map(|e| RpcFrame {
                id: e.id,
                kind: e.kind,
                method: e.method,
                body: consumed.slice(e.body),
            })
            .collect();
        (frames, malformed)
    }

    /// Bytes currently buffered awaiting more data.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn frame(kind: RpcKind, id: u64, method: &str, body: &[u8]) -> RpcFrame {
        RpcFrame {
            id,
            kind,
            method: method.to_string(),
            body: Bytes::copy_from_slice(body),
        }
    }

    #[test]
    fn single_frame_roundtrip() {
        let enc = encode_frame(RpcKind::Request, 7, "svc.Method", &json!({"a": true}));
        assert_eq!(&enc[..4], &(enc.len() as u32 - 4).to_be_bytes());
        let mut fr = Framer::new();
        let (got, malformed) = fr.push(&enc);
        assert_eq!(got, vec![frame(RpcKind::Request, 7, "svc.Method", br#"{"a":true}"#)]);
        assert_eq!(malformed, 0);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn fragmented_delivery_reassembles() {
        let body = json!({"payload": "x".repeat(100)});
        let enc = encode_frame(RpcKind::Request, 1, "m", &body);
        let mut fr = Framer::new();
        let mut got = Vec::new();
        for chunk in enc.chunks(7) {
            got.extend(fr.push(chunk).0);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body.as_ref(), serde_json::to_vec(&body).unwrap());
    }

    #[test]
    fn coalesced_frames_all_emitted() {
        let mut all = Vec::new();
        all.extend_from_slice(&encode_frame(RpcKind::Request, 1, "a", &json!(1)));
        all.extend_from_slice(&encode_frame(RpcKind::Response, 1, "", &json!(2)));
        all.extend_from_slice(&encode_frame(RpcKind::Push, 9, "s", &json!(3)));
        let mut fr = Framer::new();
        let (got, _) = fr.push(&all);
        assert_eq!(
            got,
            vec![
                frame(RpcKind::Request, 1, "a", b"1"),
                frame(RpcKind::Response, 1, "", b"2"),
                frame(RpcKind::Push, 9, "s", b"3"),
            ]
        );
    }

    #[test]
    fn malformed_envelopes_skipped() {
        let good = encode_frame(RpcKind::Response, 2, "", &json!("ok"));
        let mut b = BytesMut::new();
        // Too short for the header.
        b.put_u32(3);
        b.put_slice(b"???");
        // Unknown kind.
        b.put_u32(HEADER as u32);
        b.put_u8(9);
        b.put_u64(1);
        b.put_u8(0);
        // Method length past the frame's end.
        b.put_u32(HEADER as u32 + 2);
        b.put_u8(RpcKind::Request as u8);
        b.put_u64(1);
        b.put_u8(5);
        b.put_slice(b"ab");
        // Method not UTF-8.
        b.put_u32(HEADER as u32 + 1);
        b.put_u8(RpcKind::Push as u8);
        b.put_u64(1);
        b.put_u8(1);
        b.put_u8(0xFF);
        b.extend_from_slice(&good);
        let mut fr = Framer::new();
        let (got, malformed) = fr.push(&b);
        assert_eq!(got, vec![frame(RpcKind::Response, 2, "", br#""ok""#)]);
        assert_eq!(malformed, 4, "every bad envelope is counted");
        assert_eq!(fr.buffered(), 0);
    }
}
