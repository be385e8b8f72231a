//! Property tests for the request canonicalization layer: the cache
//! key must be a function of request *meaning*, never of spelling.

use eh_fleet::{Engine, TrackerKind};
use eh_serve::{Json, Op, WhatIfRequest};
use proptest::prelude::*;

/// A small whitespace alphabet indexed by two drawn bits per slot.
const WS: [&str; 4] = ["", " ", "\n\t", "  \r\n "];

fn ws(bits: u64, slot: usize) -> &'static str {
    WS[((bits >> (2 * (slot % 32))) & 3) as usize]
}

fn parse(text: &str) -> WhatIfRequest {
    let json = Json::parse(text).expect("test body is valid JSON");
    WhatIfRequest::from_json(Op::WhatIf, &json, 10_000).expect("test body is a valid request")
}

/// Renders `fields` as a JSON object in the given member order,
/// optionally sprinkling whitespace drawn from `wsbits` around the
/// separators.
fn render(fields: &[(String, String)], order: &[usize], wsbits: Option<u64>) -> String {
    let mut out = String::from("{");
    for (slot, &idx) in order.iter().enumerate() {
        if slot > 0 {
            out.push(',');
        }
        if let Some(bits) = wsbits {
            out.push_str(ws(bits, slot));
        }
        out.push('"');
        out.push_str(&fields[idx].0);
        out.push('"');
        if let Some(bits) = wsbits {
            out.push_str(ws(bits, slot + order.len()));
        }
        out.push(':');
        out.push_str(&fields[idx].1);
    }
    out.push('}');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_is_invariant_under_key_order_and_whitespace(
        nodes in 1..500u64,
        seed in 0..(1u64 << 53),
        tracker_idx in 0..11usize,
        engine_idx in 0..2usize,
        dt in 60.0..3600.0f64,
        shard in 1..64u64,
        rot in 0..11usize,
        reverse in 0..2u32,
        wsbits in 0..u64::MAX,
    ) {
        let fields: Vec<(String, String)> = vec![
            ("nodes".to_owned(), nodes.to_string()),
            ("seed".to_owned(), seed.to_string()),
            (
                "tracker".to_owned(),
                format!("\"{}\"", TrackerKind::ALL[tracker_idx].label()),
            ),
            (
                "engine".to_owned(),
                format!("\"{}\"", Engine::ALL[engine_idx].label()),
            ),
            ("dt_s".to_owned(), format!("{dt:?}")),
            ("shard_size".to_owned(), shard.to_string()),
            ("obs".to_owned(), "false".to_owned()),
            ("pv_cache".to_owned(), "true".to_owned()),
            ("tolerances".to_owned(), "\"production\"".to_owned()),
            ("trace_decimate".to_owned(), "600".to_owned()),
            (
                "placements".to_owned(),
                "{\"window\": 1,  \"interior\" : 2.0, \"outdoor\": 5e-1}".to_owned(),
            ),
        ];
        let base: Vec<usize> = (0..fields.len()).collect();
        let mut shuffled = base.clone();
        shuffled.rotate_left(rot % fields.len());
        if reverse == 1 {
            shuffled.reverse();
        }

        let plain = parse(&render(&fields, &base, None));
        let respelled = parse(&render(&fields, &shuffled, Some(wsbits)));
        prop_assert_eq!(plain.hash(), respelled.hash());
        prop_assert_eq!(plain.canonical_json(), respelled.canonical_json());
        prop_assert_eq!(&plain, &respelled);

        // Canonicalization is a fixed point: re-parsing the canonical
        // text reproduces the request and therefore the cache key. The
        // canonical form echoes the route-derived `op`, which bodies
        // must not carry, so strip it before re-submitting.
        let body = match Json::parse(&plain.canonical_json()).unwrap() {
            Json::Obj(members) => {
                Json::Obj(members.into_iter().filter(|(k, _)| k != "op").collect())
            }
            other => other,
        };
        let roundtrip = parse(&body.to_canonical_string());
        prop_assert_eq!(plain.hash(), roundtrip.hash());
        prop_assert_eq!(plain.canonical_json(), roundtrip.canonical_json());
    }

    #[test]
    fn number_spelling_does_not_change_the_hash(
        nodes in 1..1000u64,
        dt in 60.0..3600.0f64,
    ) {
        // Shortest-round-trip, plain display and scientific notation
        // all denote the same f64, so they must share a cache key.
        let spellings = [format!("{dt:?}"), format!("{dt}"), format!("{dt:e}")];
        let requests: Vec<WhatIfRequest> = spellings
            .iter()
            .map(|s| parse(&format!("{{\"nodes\":{nodes},\"dt_s\":{s}}}")))
            .collect();
        prop_assert_eq!(requests[0].hash(), requests[1].hash());
        prop_assert_eq!(requests[0].hash(), requests[2].hash());
        // An integral node count spelled in scientific notation too.
        let sci = parse(&format!("{{\"nodes\":{}e1,\"dt_s\":{:?}}}", nodes, dt));
        let lit = parse(&format!("{{\"nodes\":{},\"dt_s\":{:?}}}", nodes * 10, dt));
        prop_assert_eq!(sci.hash(), lit.hash());
    }

    #[test]
    fn defaults_are_spelling_invariant(seed in 0..(1u64 << 53)) {
        // Omitting a field and spelling its default explicitly must
        // land on the same cache entry.
        let implicit = parse(&format!("{{\"seed\":{seed}}}"));
        let explicit = parse(&format!(
            "{{\"seed\":{seed},\"nodes\":100,\"tracker\":\"focv\",\"engine\":\"vectorized\",\
             \"shard_size\":32,\"obs\":false,\"pv_cache\":true,\
             \"tolerances\":\"production\",\"dt_s\":600.0,\"trace_decimate\":600}}"
        ));
        prop_assert_eq!(implicit.hash(), explicit.hash());
        prop_assert_eq!(implicit.canonical_json(), explicit.canonical_json());
    }
}
