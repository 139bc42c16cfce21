//! Property tests for the wire layer (vendored proptest):
//!
//! * HTTP request framing: `parse(render(req)) == req` for arbitrary
//!   methods, paths, queries, header sets and binary bodies.
//! * JSON: `parse(render(v)) == v` for arbitrary value trees (finite
//!   numbers), and `render` is injective enough to be stable.
//! * Protocol: `SubmitRequest` and `SimResult` survive the full
//!   encode → render → parse → decode pipeline unchanged.
//! * Exactness of the fast paths: an integer token parses to the bits
//!   `str::parse::<f64>` gives; the JSON and `/metrics` number rules print
//!   the bytes of their references; every row key is its own JSON text.

use proptest::prelude::*;
use sd_serve::http::{read_request, Request};
use sd_serve::json::{needs_no_escape, Json};
use sd_serve::metrics::{ROWS, TENANT_ROWS};
use sd_serve::proto::{decode_result, encode_result, SubmitRequest};
use std::io::Cursor;

// ----- generators -----

fn token(rng: &mut proptest::TestRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len())] as char)
        .collect()
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..3,
        1usize..12,
        0usize..10,
        0usize..4,
        proptest::collection::vec(any::<u8>(), 0..200),
        any::<u64>(),
    )
        .prop_map(|(m, path_len, q_len, n_headers, body, seed)| {
            let mut rng = proptest::TestRng::new(seed);
            let method = ["GET", "POST", "DELETE"][m as usize].to_string();
            let seg = token(&mut rng, b"abcdefghij0123456789_-.", path_len);
            let mut req = Request::new(&method, &format!("/{seg}"));
            if q_len > 0 {
                req.query = token(&mut rng, b"abc=&123", q_len);
            }
            for i in 0..n_headers {
                let name = format!("x-{}-{}", token(&mut rng, b"abcdef", 4), i);
                let len = 1 + rng.below(20);
                let value = token(&mut rng, b"abcdef ghij,;=/0123456789", len);
                req.headers.push((name, value.trim().to_string()));
            }
            req.body = body;
            req
        })
}

fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    if depth == 0 {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            (-1.0e12f64..1.0e12).prop_map(Json::Num),
            (0u64..1_000_000).prop_map(|v| Json::Num(v as f64)),
            (0usize..12, any::<u64>()).prop_map(|(len, seed)| {
                let mut rng = proptest::TestRng::new(seed);
                Json::Str(token(&mut rng, b"ab\"\\\ncd {}:,[]\te\xc3\xa9", len))
            }),
        ]
        .boxed()
    } else {
        prop_oneof![
            arb_json(0),
            proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
            (proptest::collection::vec(arb_json(depth - 1), 0..4), any::<u64>()).prop_map(
                |(vals, seed)| {
                    let mut rng = proptest::TestRng::new(seed);
                    Json::Obj(
                        vals.into_iter()
                            .enumerate()
                            .map(|(i, v)| {
                                (format!("k{}-{}", i, token(&mut rng, b"abc", 3)), v)
                            })
                            .collect(),
                    )
                }
            ),
        ]
        .boxed()
    }
}

// ----- properties -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn http_request_roundtrips(req in arb_request()) {
        let wire = req.render();
        let back = read_request(&mut Cursor::new(wire))
            .expect("rendered request parses")
            .expect("not EOF");
        prop_assert_eq!(&back.method, &req.method);
        prop_assert_eq!(&back.path, &req.path);
        prop_assert_eq!(&back.query, &req.query);
        prop_assert_eq!(&back.body, &req.body);
        // Every original header survives (renderer may add content-length).
        for (k, v) in &req.headers {
            prop_assert_eq!(back.header(k), Some(v.as_str()), "header {}", k);
        }
    }

    #[test]
    fn json_roundtrips(v in arb_json(3)) {
        let text = v.render();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "render produced unparsable `{}`", text);
        prop_assert_eq!(back.unwrap(), v, "wire text {}", text);
    }

    #[test]
    fn json_parse_never_panics_on_mutations(v in arb_json(2), cut in 0usize..64) {
        // Truncating valid documents must fail cleanly, never panic.
        let text = v.render();
        let cut = cut.min(text.len());
        let _ = Json::parse(&text[..cut]);
        let _ = Json::parse(&text[cut..]);
    }

    #[test]
    fn submit_request_roundtrips(
        procs in 1u64..10_000,
        req_time in 0u64..1_000_000,
        run_time in 1u64..1_000_000,
        submit in proptest::prop_oneof![Just(None), (0u64..1_000_000_000).prop_map(Some)],
        malleable in proptest::prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        trace_id in proptest::prop_oneof![Just(None), (1u64..1_000_000_000).prop_map(Some)],
        tenant in proptest::prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
        project in proptest::prop_oneof![Just(None), (0u64..100).prop_map(Some)],
    ) {
        let r = SubmitRequest { procs, req_time, run_time, submit, malleable, trace_id, tenant, project };
        let text = r.encode().render();
        let back = SubmitRequest::decode(&Json::parse(&text).unwrap());
        prop_assert_eq!(back.unwrap(), r);
    }

    #[test]
    fn sim_result_roundtrips_with_exact_floats(
        energy in -1.0e9f64..1.0e9,
        n_outcomes in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = proptest::TestRng::new(seed);
        let outcomes: Vec<slurm_sim::JobOutcome> = (0..n_outcomes).map(|i| {
            let submit = rng.below(10_000) as u64;
            let start = submit + rng.below(5_000) as u64;
            let end = start + 1 + rng.below(100_000) as u64;
            slurm_sim::JobOutcome {
                id: cluster::JobId(i as u64 + 1),
                submit: simkit::SimTime(submit),
                start: simkit::SimTime(start),
                end: simkit::SimTime(end),
                nodes: 1 + rng.below(100) as u32,
                procs: 1 + rng.below(4_000) as u64,
                req_time: rng.below(1_000_000) as u64,
                static_runtime: 1 + rng.below(500_000) as u64,
                malleable_backfilled: rng.below(2) == 0,
                was_mate: rng.below(2) == 0,
                tenant: rng.below(97) as u32,
                app: if rng.below(3) == 0 {
                    Some(workload::APPS[rng.below(workload::APPS.len())].id)
                } else {
                    None
                },
            }
        }).collect();
        let r = slurm_sim::SimResult {
            scheduler: "sd-policy",
            first_submit: simkit::SimTime(rng.below(1000) as u64),
            last_end: simkit::SimTime(rng.below(1_000_000) as u64),
            makespan: rng.below(1_000_000) as u64,
            energy_joules: energy,
            leftover_pending: rng.below(5),
            leftover_running: rng.below(5),
            stats: slurm_sim::SimStats {
                started_static: rng.below(1000) as u64,
                started_malleable: rng.below(1000) as u64,
                sched_passes: rng.below(100_000) as u64,
                passes_skipped: rng.below(100_000) as u64,
                peak_profile_len: rng.below(10_000),
                ..Default::default()
            },
            outcomes,
        };
        let text = encode_result(&r).render();
        let back = decode_result(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, r);
    }
}

// ----- exactness of the fast paths -----

/// The JSON number rule as written before the digit loop (the reference
/// `json.rs`'s unit tests keep too).
fn old_render_num(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// An integer token of 1–20 digits with no leading zero, signed or not;
/// `-0` among them.
fn integer_token(rng: &mut proptest::TestRng) -> String {
    let sign = if rng.below(2) == 0 { "-" } else { "" };
    let len = 1 + rng.below(20);
    let first = if len == 1 { rng.below(10) } else { 1 + rng.below(9) };
    let rest = token(rng, b"0123456789", len - 1);
    format!("{sign}{first}{rest}")
}

/// An `f64` drawn where the number rules switch paths: around 10¹⁵ and
/// 2⁵³ (a few ulps either side, integral or not), ±0, subnormals, and
/// plain fractions.
fn edge_f64(rng: &mut proptest::TestRng) -> f64 {
    let near = |rng: &mut proptest::TestRng, at: f64| {
        let ulps = rng.below(64) as i64 - 32;
        f64::from_bits((at.to_bits() as i64 + ulps) as u64)
    };
    let v = match rng.below(6) {
        0 => near(rng, 1e15),
        1 => near(rng, 9_007_199_254_740_992.0),
        2 => [0.0, -0.0][rng.below(2)],
        3 => f64::from_bits(1 + rng.below(1 << 40) as u64),
        4 => rng.below(1 << 30) as f64 + rng.below(1000) as f64 / 1000.0,
        _ => (rng.below(1 << 53) as u64) as f64 * [1.0, 0.5, 2.0, 1024.0][rng.below(4)],
    };
    if rng.below(2) == 0 { -v } else { v }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn integer_tokens_parse_to_the_bits_str_parse_gives(seed in any::<u64>()) {
        let mut rng = proptest::TestRng::new(seed);
        let text = integer_token(&mut rng);
        let want: f64 = text.parse().unwrap();
        let got = Json::parse(&text).unwrap().as_f64().unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", text);
    }

    #[test]
    fn numbers_print_the_bytes_of_their_references(seed in any::<u64>()) {
        let mut rng = proptest::TestRng::new(seed);
        let v = edge_f64(&mut rng);
        let mut json = String::new();
        sd_obs::push_json_num(&mut json, v);
        prop_assert_eq!(&json, &old_render_num(v), "JSON {:?}", v);
        prop_assert_eq!(&Json::Num(v).render(), &json, "JSON {:?}", v);
        let mut metrics = String::new();
        sd_obs::push_f64(&mut metrics, v);
        prop_assert_eq!(metrics, format!("{v}"), "/metrics {:?}", v);
    }
}

#[test]
fn every_row_key_is_its_own_json_text() {
    let keys = ROWS.iter().map(|r| r.key).chain(TENANT_ROWS.iter().map(|r| r.key));
    for key in keys {
        assert!(needs_no_escape(key), "{key:?} needs an escape");
        assert_eq!(Json::Str(key.into()).render(), format!("\"{key}\""));
    }
}
