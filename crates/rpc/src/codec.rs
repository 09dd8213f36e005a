//! Length-prefixed framing over the byte stream.
//!
//! The stream transport delivers byte chunks with arbitrary segmentation
//! (MTU-sized segments, possibly coalesced); the [`Framer`] reassembles
//! complete `[u32 length][json]` frames.

use crate::msg::RpcFrame;
use bytes::{BufMut, Bytes, BytesMut};
use magma_sim::Ctx;
use serde::Serialize;

/// Encode one frame with its length prefix.
pub fn encode_frame(frame: &RpcFrame) -> Bytes {
    let body = frame.to_json().to_string();
    let mut b = BytesMut::with_capacity(4 + body.len());
    b.put_u32(body.len() as u32);
    b.put_slice(body.as_bytes());
    b.freeze()
}

/// Count frames a [`Framer`] skipped as undecodable. Client and server
/// share the counter; nothing is registered until a frame is dropped.
pub(crate) fn count_malformed(ctx: &mut Ctx<'_>, malformed: u64) {
    if malformed > 0 {
        ctx.registry()
            .counter_add("rpc.frames_malformed_total", malformed as f64);
    }
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
    /// the number of complete frames skipped because their body did not
    /// decode (the caller exports that count).
    pub fn push(&mut self, bytes: &[u8]) -> (Vec<RpcFrame>, u64) {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut malformed = 0;
        while let Some(&[b0, b1, b2, b3]) = self.buf.get(..4) {
            let len = u32::from_be_bytes([b0, b1, b2, b3]) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            let _ = self.buf.split_to(4);
            let body = self.buf.split_to(len);
            match serde_json::from_slice::<RpcFrame>(&body) {
                Ok(frame) => out.push(frame),
                Err(_) => malformed += 1,
            }
        }
        (out, malformed)
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

    #[test]
    fn single_frame_roundtrip() {
        let f = RpcFrame::request(7, "svc.Method", json!({"a": true}));
        let enc = encode_frame(&f);
        let mut fr = Framer::new();
        let (got, malformed) = fr.push(&enc);
        assert_eq!(got, vec![f]);
        assert_eq!(malformed, 0);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn fragmented_delivery_reassembles() {
        let f = RpcFrame::request(1, "m", json!({"payload": "x".repeat(100)}));
        let enc = encode_frame(&f);
        let mut fr = Framer::new();
        let mut got = Vec::new();
        for chunk in enc.chunks(7) {
            got.extend(fr.push(chunk).0);
        }
        assert_eq!(got, vec![f]);
    }

    #[test]
    fn coalesced_frames_all_emitted() {
        let f1 = RpcFrame::request(1, "a", json!(1));
        let f2 = RpcFrame::response(1, json!(2));
        let f3 = RpcFrame::push(9, "s", json!(3));
        let mut all = Vec::new();
        all.extend_from_slice(&encode_frame(&f1));
        all.extend_from_slice(&encode_frame(&f2));
        all.extend_from_slice(&encode_frame(&f3));
        let mut fr = Framer::new();
        let (got, _) = fr.push(&all);
        assert_eq!(got, vec![f1, f2, f3]);
    }

    #[test]
    fn garbage_json_skipped() {
        let mut b = BytesMut::new();
        b.put_u32(3);
        b.put_slice(b"???");
        let good = RpcFrame::response(2, json!("ok"));
        b.extend_from_slice(&encode_frame(&good));
        let mut fr = Framer::new();
        let (got, malformed) = fr.push(&b);
        assert_eq!(got, vec![good]);
        assert_eq!(malformed, 1, "the undecodable frame is counted");
    }
}
