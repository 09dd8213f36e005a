//! Property test on the `Framer`: a stream of valid frames and corrupt
//! bodies, cut at arbitrary points, reassembles into exactly the valid
//! frames in order, counts every corrupt body, and leaves nothing
//! buffered.

use bytes::{BufMut, BytesMut};
use magma_rpc::{encode_frame, Framer, RpcFrame};
use proptest::prelude::*;
use serde_json::json;

/// One length-prefixed unit of the stream.
#[derive(Debug, Clone)]
enum Item {
    Good(RpcFrame),
    /// A body with a correct length prefix that is not an `RpcFrame`.
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
        .prop_map(|(kind, id, method, n, s)| {
            let body = json!({ "n": n, "s": s });
            match kind {
                0 => RpcFrame::request(id, &method, body),
                1 => RpcFrame::response(id, body),
                2 => RpcFrame::error(id, &s),
                _ => RpcFrame::push(id, &method, body),
            }
        })
}

/// Bodies that can never decode: empty, not UTF-8, JSON of the wrong
/// shape, and a real frame cut short.
fn arb_corrupt() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|mut b| {
            b.insert(0, 0xFF);
            b
        }),
        any::<u64>().prop_map(|id| format!("{{\"id\":{id}}}").into_bytes()),
        "[0-9]{1,8}".prop_map(String::into_bytes),
        (arb_frame(), any::<usize>()).prop_map(|(f, cut)| {
            let enc = encode_frame(&f);
            let body = &enc[4..];
            body[..cut % body.len()].to_vec()
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
                    stream.extend_from_slice(&encode_frame(&f));
                    want.push(f);
                }
                Item::Corrupt(body) => {
                    stream.put_u32(body.len() as u32);
                    stream.put_slice(&body);
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
