//! Property test on the `Framer`: a stream of valid binary-envelope
//! frames mixed with corrupt envelopes, cut at arbitrary points,
//! reassembles into exactly the valid frames in order, counts every
//! corrupt one, and leaves nothing buffered.

use bytes::{BufMut, Bytes, BytesMut};
use magma_rpc::{encode_frame, Framer, RpcFrame, RpcKind};
use proptest::prelude::*;
use serde_json::json;

/// Envelope bytes between the length prefix and the method name:
/// `[u8 kind][u64 id][u8 method_len]`.
const HEADER: usize = 1 + 8 + 1;

/// One length-prefixed unit of the stream.
#[derive(Debug, Clone)]
enum Item {
    Good(RpcFrame),
    /// A frame with a correct length prefix whose envelope is invalid.
    Corrupt(Vec<u8>),
}

fn arb_frame() -> impl Strategy<Value = RpcFrame> {
    (
        0u8..4,
        any::<u64>(),
        "[a-z.]{0,12}",
        any::<u32>(),
        "[ a-z0-9\"\\\\]{0,40}",
    )
        .prop_map(|(k, id, method, n, s)| {
            let body = json!({ "n": n, "s": s });
            RpcFrame {
                id,
                kind: RpcKind::from_tag(k).unwrap(),
                method,
                body: Bytes::from(serde_json::to_vec(&body).unwrap()),
            }
        })
}

/// Encode `f` through the production path: a JSON body rendered into the
/// frame buffer must come out as the same bytes.
fn encode(f: &RpcFrame) -> Bytes {
    let body: serde_json::Value = serde_json::from_slice(&f.body).unwrap();
    encode_frame(f.kind, f.id, &f.method, &body)
}

/// Envelopes that can never parse: shorter than the fixed header, an
/// unknown kind byte, a method length past the frame's end, and a method
/// that is not UTF-8. Lengths are exact, so the stream stays in sync.
fn arb_corrupt() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..HEADER),
        (4u8..=255, any::<u64>(), "[a-z]{0,8}", any::<u8>()).prop_map(|(k, id, m, b)| {
            let mut v = vec![k];
            v.put_u64(id);
            v.put_u8(m.len() as u8);
            v.put_slice(m.as_bytes());
            v.push(b);
            v
        }),
        (0u8..4, any::<u64>(), "[a-z]{0,8}", 1u8..40).prop_map(|(k, id, m, over)| {
            let mut v = vec![k];
            v.put_u64(id);
            v.put_u8((m.len() as u8).saturating_add(over));
            v.put_slice(m.as_bytes());
            v
        }),
        (0u8..4, any::<u64>(), "[a-z]{0,8}", 0x80u8..=0xFF).prop_map(|(k, id, m, bad)| {
            let mut v = vec![k];
            v.put_u64(id);
            v.put_u8(m.len() as u8 + 1);
            v.push(bad);
            v.put_slice(m.as_bytes());
            v.put_slice(b"{}");
            v
        }),
    ]
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        arb_frame().prop_map(Item::Good),
        arb_frame().prop_map(Item::Good),
        arb_corrupt().prop_map(Item::Corrupt),
    ]
}

proptest! {
    #[test]
    fn segmented_stream_yields_good_frames_and_counts_corrupt_ones(
        items in proptest::collection::vec(arb_item(), 0..24),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let mut stream = BytesMut::new();
        let mut want = Vec::new();
        let mut corrupt = 0;
        for item in items {
            match item {
                Item::Good(f) => {
                    stream.extend_from_slice(&encode(&f));
                    want.push(f);
                }
                Item::Corrupt(frame) => {
                    stream.put_u32(frame.len() as u32);
                    stream.put_slice(&frame);
                    corrupt += 1;
                }
            }
        }
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();

        let mut fr = Framer::new();
        let (mut got, mut malformed) = (Vec::new(), 0);
        let mut at = 0;
        for cut in cuts {
            let (frames, bad) = fr.push(&stream[at..cut]);
            got.extend(frames);
            malformed += bad;
            at = cut;
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(malformed, corrupt);
        prop_assert_eq!(fr.buffered(), 0);
    }
}
