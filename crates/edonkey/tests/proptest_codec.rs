//! Property-based tests for the eDonkey codec: every message the encoder
//! can produce must decode back to itself, and the decoder must never
//! panic on arbitrary bytes.

use etw_edonkey::decoder::{validate, DecodeOutcome, Decoder};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::{FileEntry, Message, ServerAddr, Source};
use etw_edonkey::search::{BoolOp, NumCmp, SearchExpr};
use etw_edonkey::tags::{Tag, TagList, TagName, TagValue};
use proptest::prelude::*;

fn arb_file_id() -> impl Strategy<Value = FileId> {
    any::<[u8; 16]>().prop_map(FileId)
}

fn arb_client_id() -> impl Strategy<Value = ClientId> {
    any::<u32>().prop_map(ClientId)
}

fn arb_tag_name() -> impl Strategy<Value = TagName> {
    prop_oneof![
        any::<u8>().prop_map(TagName::Special),
        "[a-z]{2,12}".prop_map(TagName::Named),
    ]
}

fn arb_tag() -> impl Strategy<Value = Tag> {
    (
        arb_tag_name(),
        prop_oneof![
            "[ -~]{0,40}".prop_map(TagValue::Str),
            any::<u32>().prop_map(TagValue::U32),
        ],
    )
        .prop_map(|(name, value)| Tag { name, value })
}

fn arb_tag_list() -> impl Strategy<Value = TagList> {
    prop::collection::vec(arb_tag(), 0..6).prop_map(TagList)
}

fn arb_entry() -> impl Strategy<Value = FileEntry> {
    (arb_file_id(), arb_client_id(), any::<u16>(), arb_tag_list()).prop_map(
        |(file_id, client_id, port, tags)| FileEntry {
            file_id,
            client_id,
            port,
            tags,
        },
    )
}

fn arb_expr() -> impl Strategy<Value = SearchExpr> {
    let leaf = prop_oneof![
        "[a-z0-9 ]{1,20}".prop_map(SearchExpr::Keyword),
        ("[ -~]{0,16}", arb_tag_name())
            .prop_map(|(value, name)| SearchExpr::MetaStr { name, value }),
        (
            any::<u32>(),
            arb_tag_name(),
            prop_oneof![Just(NumCmp::Min), Just(NumCmp::Max)]
        )
            .prop_map(|(value, name, cmp)| SearchExpr::MetaNum { name, cmp, value }),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        (
            prop_oneof![Just(BoolOp::And), Just(BoolOp::Or), Just(BoolOp::AndNot)],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, left, right)| SearchExpr::Bool {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u32>().prop_map(|challenge| Message::StatusRequest { challenge }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(challenge, users, files)| {
            Message::StatusResponse {
                challenge,
                users,
                files,
            }
        }),
        Just(Message::ServerDescRequest),
        ("[ -~]{0,30}", "[ -~]{0,60}")
            .prop_map(|(name, description)| { Message::ServerDescResponse { name, description } }),
        Just(Message::GetServerList),
        prop::collection::vec(
            (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| ServerAddr { ip, port }),
            0..20
        )
        .prop_map(|servers| Message::ServerList { servers }),
        arb_expr().prop_map(|expr| Message::SearchRequest { expr }),
        prop::collection::vec(arb_entry(), 0..5)
            .prop_map(|results| Message::SearchResponse { results }),
        prop::collection::vec(arb_file_id(), 1..10)
            .prop_map(|file_ids| Message::GetSources { file_ids }),
        (
            arb_file_id(),
            prop::collection::vec(
                (arb_client_id(), any::<u16>())
                    .prop_map(|(client_id, port)| Source { client_id, port }),
                0..30
            )
        )
            .prop_map(|(file_id, sources)| Message::FoundSources { file_id, sources }),
        prop::collection::vec(arb_entry(), 0..5).prop_map(|files| Message::OfferFiles { files }),
    ]
}

/// Body of `truncation_always_detected`: any prefix truncation of a
/// valid message is rejected — with one protocol-faithful exception:
/// GetSources carries no count field (its fileID list length is implied
/// by the datagram length), so cutting it at a 16-byte boundary yields a
/// valid, shorter GetSources. For every other message the formats are
/// explicitly sized and truncation must error.
fn check_truncation_detected(msg: Message, frac: f64) -> TestCaseResult {
    prop_assume!(!matches!(msg, Message::GetSources { .. }));
    let buf = msg.encode();
    if buf.len() > 2 {
        let cut = 2 + ((buf.len() - 2) as f64 * frac) as usize;
        if cut < buf.len() {
            prop_assert!(Message::decode(&buf[..cut]).is_err());
        }
    }
    Ok(())
}

/// Body of `get_sources_truncation`, the GetSources exception pinned
/// down: truncation at a 16-byte boundary decodes to the prefix of the
/// fileID list; anywhere else it errors.
fn check_get_sources_truncation(ids: Vec<FileId>, cut: usize) -> TestCaseResult {
    let n = ids.len();
    let msg = Message::GetSources {
        file_ids: ids.clone(),
    };
    let buf = msg.encode();
    let cut = 2 + (cut % (buf.len() - 3));
    let body = cut - 2;
    let out = Message::decode(&buf[..cut]);
    if body.is_multiple_of(16) && body > 0 {
        let k = body / 16;
        prop_assert!(k < n);
        match out {
            Ok(Message::GetSources { file_ids }) => {
                prop_assert_eq!(file_ids, ids[..k].to_vec());
            }
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    } else {
        prop_assert!(out.is_err());
    }
    Ok(())
}

// The recorded cases in `proptest_codec.proptest-regressions`, which the
// vendored runner does not replay.

/// A GetSources cut at a 16-byte boundary is the documented exception,
/// so the truncation property must set it aside rather than fail.
#[test]
fn truncation_always_detected_get_sources_on_id_boundary() {
    let msg = Message::GetSources {
        file_ids: vec![FileId([0; 16]); 5],
    };
    let out = check_truncation_detected(msg, 0.8002475179749063);
    assert!(matches!(out, Err(TestCaseError::Reject(_))), "{out:?}");
}

#[test]
fn get_sources_truncation_header_only() {
    check_get_sources_truncation(vec![FileId([0; 16]); 2], 31).unwrap();
}

proptest! {
    /// Encode → decode is the identity on all representable messages.
    #[test]
    fn round_trip(msg in arb_message()) {
        let buf = msg.encode();
        let got = Message::decode(&buf).expect("decode of encoder output");
        prop_assert_eq!(got, msg);
    }

    /// Structural validation accepts everything the encoder emits.
    #[test]
    fn validation_accepts_encoded(msg in arb_message()) {
        prop_assert!(validate(&msg.encode()).is_ok());
    }

    /// The two-step decoder classifies arbitrary bytes without panicking,
    /// and its counters always balance.
    #[test]
    fn decoder_total_function(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut d = Decoder::new();
        let _ = d.push(&data);
        let s = d.stats();
        prop_assert_eq!(
            s.handled,
            s.decoded + s.structurally_invalid + s.decode_failed + s.not_edonkey
        );
    }

    /// See [`check_truncation_detected`].
    #[test]
    fn truncation_always_detected(msg in arb_message(), frac in 0.0f64..1.0) {
        check_truncation_detected(msg, frac)?;
    }

    /// See [`check_get_sources_truncation`].
    #[test]
    fn get_sources_truncation(ids in prop::collection::vec(arb_file_id(), 2..8),
                              cut in 1usize..100) {
        check_get_sources_truncation(ids, cut)?;
    }

    /// Flipping the protocol marker is always classified NotEdonkey.
    #[test]
    fn marker_flip_detected(msg in arb_message(), marker in 0u8..=255) {
        prop_assume!(marker != 0xE3);
        let mut buf = msg.encode();
        buf[0] = marker;
        let mut d = Decoder::new();
        prop_assert!(matches!(d.push(&buf), DecodeOutcome::NotEdonkey));
    }

    /// Search expressions round-trip independently (deeper trees than the
    /// whole-message generator uses).
    #[test]
    fn expr_round_trip(expr in arb_expr()) {
        use etw_edonkey::wire::{Reader, Writer};
        let mut w = Writer::new();
        expr.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let got = SearchExpr::decode(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");
        prop_assert_eq!(got, expr);
    }

    /// MD4 incremental equals one-shot for arbitrary data and chunking.
    #[test]
    fn md4_incremental(data in prop::collection::vec(any::<u8>(), 0..300),
                       chunk in 1usize..64) {
        use etw_edonkey::md4::{md4, Md4};
        let mut h = Md4::new();
        for piece in data.chunks(chunk) {
            h.update(piece);
        }
        prop_assert_eq!(h.finalize(), md4(&data));
    }
}
