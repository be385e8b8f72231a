//! Property tests for the request canonicalization layer: the cache
//! key must be a function of request *meaning*, never of spelling.
//! Fuzz properties over the JSON parser and the request validators:
//! no input panics them, and a request body they refuse is a 400.

use eh_fleet::{Engine, TrackerKind};
use eh_serve::{CampaignRequest, Json, Op, WhatIfRequest};
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

/// Parses `text`, which must not panic; a value it parses renders
/// canonically to text that parses back to the same value. The
/// canonical form is injective up to member order, so that holds when
/// the reparsed value renders to the same text. Returns whether `text`
/// parsed.
fn parse_round_trips(text: &str) -> bool {
    let Ok(value) = Json::parse(text) else {
        return false;
    };
    let canonical = value.to_canonical_string();
    let again = Json::parse(&canonical).map(|v| v.to_canonical_string());
    assert_eq!(again, Ok(canonical), "{text:?}");
    true
}

/// Scalars that are JSON: numbers at the edges of the `f64` range,
/// escapes, a surrogate pair and raw multi-byte text.
const JSON_SCALARS: &str = r#"0 -0 -0.0 1.5e-7 12345678901234567890 1e308 -2.5E+3 4.9e-324
    true false null "" "a\"b\\" "\u00e9\n\t\/" "\ud83d\ude00" "é😀""#;
/// Scalar-like tokens that are not JSON: an out-of-range number, a
/// leading zero, a bare dot, a broken literal, lone surrogates and an
/// unknown escape.
const NOT_JSON: &str = r#"1e999 01 1. nul "\ud83d" "\udc00" "\x""#;
/// Distinct object keys, escapes among them.
const KEYS: &str = r#""a" "b" "" "\u0041" "é" "k\"""#;
/// Structural characters, whitespace and a raw control character.
const PUNCTUATION: &str = "{}[],: \n\"\\\u{1}";

/// Appends to `out` a document spelled from `draws`, nested at most
/// seven deep, with distinct keys in each object and one scalar in
/// eight not JSON. Returns whether the whole text is JSON.
fn document(draws: &mut impl Iterator<Item = usize>, depth: usize, out: &mut String) -> bool {
    let kind = draws.next().unwrap_or(0);
    if depth > 6 || kind % 4 < 2 {
        let json = kind % 32 >= 4;
        let words: Vec<&str> = if json { JSON_SCALARS } else { NOT_JSON }
            .split_whitespace()
            .collect();
        out.push_str(words[kind / 32 % words.len()]);
        return json;
    }
    let (object, len, first_key) = (kind % 4 == 3, draws.next().unwrap_or(0) % 4, kind / 4);
    let keys: Vec<&str> = KEYS.split_whitespace().collect();
    out.push(if object { '{' } else { '[' });
    let mut json = true;
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if object {
            out.push_str(keys[(first_key + i) % keys.len()]);
            out.push(':');
        }
        json &= document(draws, depth + 1, out);
    }
    out.push(if object { '}' } else { ']' });
    json
}

/// An object over `keys` (space-separated) spelled from `picks`: each
/// pick names a key, the first use of a key wins, and its value may
/// have any type and lie in range or out.
fn request_body(keys: &str, picks: &[usize]) -> Json {
    const VALUES: &str = r#"0 1 -1 0.05 0.5 7 8 32 45.5 -91 600 3600 86400 4096 4097 3650 1e300
        9007199254740993 true false null "" [] {} "focv" "oracle" "vectorized" "per-node"
        "production" "arid" "radio" "bogus" {"window":1} {"window":0,"interior":0}
        {"outdoor":-1,"sun":2} {"window":1e308,"interior":1e308}"#;
    let keys: Vec<&str> = keys.split_whitespace().collect();
    let values: Vec<&str> = VALUES.split_whitespace().collect();
    let mut members: Vec<String> = Vec::new();
    for &pick in picks {
        let key = format!("\"{}\":", keys[pick % keys.len()]);
        if !members.iter().any(|m| m.starts_with(&key)) {
            members.push(key + values[pick / keys.len() % values.len()]);
        }
    }
    Json::parse(&format!("{{{}}}", members.join(","))).expect("request bodies are JSON")
}

proptest! {
    #[test]
    fn json_parse_survives_arbitrary_bytes(raw in proptest::collection::vec(0..256u32, 0..2048)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        parse_round_trips(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_strings_never_panic_and_documents_round_trip(
        draws in proptest::collection::vec(0..1024usize, 0..96),
    ) {
        let mut text = String::new();
        let json = document(&mut draws.iter().copied(), 0, &mut text);
        prop_assert!(parse_round_trips(&text) || !json, "JSON refused: {text:?}");
        // The same draws as a soup of every token.
        let words = [JSON_SCALARS, NOT_JSON, KEYS].map(str::split_whitespace).into_iter().flatten();
        let tokens: Vec<String> =
            words.map(str::to_owned).chain(PUNCTUATION.chars().map(String::from)).collect();
        parse_round_trips(&draws.iter().map(|&i| tokens[i % tokens.len()].as_str()).collect::<String>());
    }

    #[test]
    fn request_validators_answer_ok_or_400(picks in proptest::collection::vec(0..100_000usize, 0..16)) {
        let whatif = request_body(
            "nodes seed tracker engine placements tolerances dt_s trace_decimate pv_cache obs \
             shard_size",
            &picks,
        );
        for op in [Op::WhatIf, Op::Compare, Op::Stream] {
            if let Err(e) = WhatIfRequest::from_json(op, &whatif, 10_000) {
                prop_assert_eq!(e.status(), 400, "{} for {}", e, whatif.to_canonical_string());
            }
        }
        let campaign = request_body(
            "nodes seed days epoch_days latitude climate load tracker engine drift \
             fault_probability dt_s shard_size",
            &picks,
        );
        if let Err(e) = CampaignRequest::from_json(&campaign, 10_000) {
            prop_assert_eq!(e.status(), 400, "{} for {}", e, campaign.to_canonical_string());
        }
    }
}
