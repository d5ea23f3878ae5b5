//! Property-based tests of the serving tier's two contracts that must
//! hold for *arbitrary* inputs:
//!
//! * the hand-rolled HTTP parser never panics, parses back exactly what
//!   [`encode_request`] produces, treats every strict prefix of a valid
//!   request as incomplete (never as complete or invalid), and rejects
//!   oversized input with typed errors;
//! * deadline-shed accounting is **exact**: over any mix of instantly
//!   expiring and never-expiring deadlines across two models,
//!   `completed + failed + shed == submitted`, the shed count equals
//!   precisely the number of already-expired deadlines submitted, and
//!   every server total is the sum of the per-model series.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array, parse_request};
use mfdfp_serve::{
    HttpConfig, ModelRegistry, ModelSnapshot, Priority, ServeConfig, ServeError, Server,
    SubmitOptions,
};
use mfdfp_tensor::TensorRng;
use proptest::prelude::*;

/// One shared calibrated network (3×16×16 input, 10 classes): the
/// accounting property needs a real model but not a fresh one per case.
fn shared_qnet() -> &'static QuantizedNet {
    static QNET: OnceLock<QuantizedNet> = OnceLock::new();
    QNET.get_or_init(|| {
        let mut rng = TensorRng::seed_from(77);
        let mut net = zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng).unwrap();
        let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
        let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
        QuantizedNet::from_network(&net, &plan).unwrap()
    })
}

/// Draws a string over `alphabet` with a length in `[min_len, max_len)`.
fn string_of(
    alphabet: &'static [u8],
    min_len: usize,
    max_len: usize,
) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..alphabet.len(), min_len..max_len)
        .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i] as char).collect())
}

/// RFC 7230 token characters (header names, methods).
const TOKEN_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
/// Path characters the round-trip property exercises.
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";
/// Printable header-value characters, space excluded at the edges by a
/// trim in the strategy (the parser trims values, so untrimmed values
/// would not round-trip verbatim).
const VALUE_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 !#$%&'()*+,./;<=>?@[]^_`{|}~-";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the parser — every outcome is a typed
    /// tri-state, and a reported `consumed` never overruns the buffer.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..2048),
    ) {
        let config =
            HttpConfig { max_head_bytes: 256, max_body_bytes: 512, ..HttpConfig::default() };
        match parse_request(&bytes, &config) {
            Ok(Some((_, consumed))) => prop_assert!(consumed <= bytes.len()),
            Ok(None) => prop_assert!(bytes.len() <= 256 + 512 + 4),
            Err(e) => {
                let status = e.status();
                prop_assert!((400..=599).contains(&status), "status {status} out of range");
            }
        }
    }

    /// Arbitrary bytes never panic the body parser either.
    #[test]
    fn f32_body_parser_never_panics(
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
    ) {
        let _ = parse_f32_array(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → parse is the identity on method, path, headers and body;
    /// and every strict prefix of the encoding is *incomplete*, never
    /// complete and never an error (truncation is always recoverable).
    #[test]
    fn valid_requests_round_trip_and_prefixes_are_partial(
        method_idx in 0usize..3,
        path_tail in string_of(PATH_CHARS, 0, 24),
        names in proptest::collection::vec(string_of(TOKEN_CHARS, 1, 16), 0..4),
        values in proptest::collection::vec(
            string_of(VALUE_CHARS, 0, 24).prop_map(|s| s.trim().to_string()),
            0..4,
        ),
        body in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        let method = ["GET", "POST", "PUT"][method_idx];
        let path = format!("/{path_tail}");
        let headers: Vec<(&str, &str)> = names
            .iter()
            .zip(&values)
            // content-length/connection/transfer-encoding carry parser
            // semantics; the identity property uses neutral names only.
            .filter(|(n, _)| {
                !["content-length", "connection", "transfer-encoding"]
                    .contains(&n.to_ascii_lowercase().as_str())
            })
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let bytes = encode_request(method, &path, &headers, &body);
        let config = HttpConfig::default();

        let (parsed, consumed) = parse_request(&bytes, &config)
            .expect("valid encoding must parse")
            .expect("complete encoding must be complete");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(parsed.method.as_str(), method);
        prop_assert_eq!(parsed.path.as_str(), path.as_str());
        prop_assert_eq!(&parsed.body, &body);
        for (name, value) in &headers {
            prop_assert_eq!(parsed.header(name), Some(*value));
        }

        // Check a spread of prefixes (every index would be O(n²) work).
        for cut in [0, 1, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            if cut < bytes.len() {
                let outcome = parse_request(&bytes[..cut], &config);
                prop_assert_eq!(outcome, Ok(None), "prefix of {} bytes must be partial", cut);
            }
        }
    }

    /// The f32 wire format round-trips bit-exactly for arbitrary finite
    /// values — the foundation of the HTTP tier's bit-exactness tests.
    #[test]
    fn f32_wire_format_is_bit_exact(
        values in proptest::collection::vec(-1e30f32..1e30, 0..64),
    ) {
        let encoded = format_f32_array(&values);
        let decoded = parse_f32_array(encoded.as_bytes()).expect("round trip must parse");
        prop_assert_eq!(values.len(), decoded.len());
        for (a, b) in values.iter().zip(&decoded) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Oversized heads and bodies are rejected with their own typed
    /// errors, at the configured limits exactly.
    #[test]
    fn oversized_input_is_typed(head_limit in 32usize..128, body_limit in 1usize..64) {
        let config = HttpConfig {
            max_head_bytes: head_limit,
            max_body_bytes: body_limit,
            ..HttpConfig::default()
        };
        // A head one byte past the limit (no terminator yet).
        let long = vec![b'G'; head_limit + 1];
        prop_assert_eq!(parse_request(&long, &config).unwrap_err().status(), 431);
        // A declared body one byte past the limit.
        let request =
            format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body_limit + 1);
        if request.len() <= head_limit {
            prop_assert_eq!(
                parse_request(request.as_bytes(), &config).unwrap_err().status(),
                413
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact shed accounting: submit a random mix of already-expired
    /// (zero) and never-expiring deadlines across both priority lanes and
    /// two models; afterwards `completed + failed + shed == submitted`
    /// holds exactly, with `shed` equal to precisely the expired-deadline
    /// count, and each total equals the sum over the model series.
    #[test]
    fn deadline_shed_accounting_is_exact(
        kinds in proptest::collection::vec((0u8..3, proptest::bool::ANY, 0usize..2), 1..40),
    ) {
        const MODELS: [&str; 2] = ["m", "n"];
        let qnet = shared_qnet();
        let registry = Arc::new(ModelRegistry::new());
        for name in MODELS {
            registry.register(name, qnet.clone());
        }
        let server = Server::start(
            registry,
            ServeConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 8,
                max_wait: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::seed_from(5);

        let mut expected_shed = 0u64;
        let mut expected_completed = 0u64;
        let mut tickets = Vec::new();
        for (kind, high, model) in &kinds {
            // kind 0: no deadline; 1: never-expiring; 2: already expired.
            let deadline = match kind {
                0 => None,
                1 => Some(Duration::from_secs(600)),
                _ => Some(Duration::ZERO),
            };
            if *kind == 2 {
                expected_shed += 1;
            } else {
                expected_completed += 1;
            }
            let opts = SubmitOptions {
                deadline,
                priority: if *high { Priority::High } else { Priority::Normal },
            };
            let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
            // Closed-loop below capacity: submission cannot be rejected.
            let name = MODELS[*model];
            tickets.push((*kind, name, server.submit_with(name, img, opts).unwrap()));
        }
        let mut shed_seen = 0u64;
        for (kind, name, ticket) in tickets {
            match ticket.wait() {
                Ok(_) => prop_assert!(kind != 2, "expired deadline must never serve"),
                Err(ServeError::DeadlineExceeded { model }) => {
                    prop_assert_eq!(model.as_str(), name);
                    prop_assert_eq!(kind, 2, "live deadline must never shed");
                    shed_seen += 1;
                }
                Err(e) => return Err(format!("unexpected error: {e}")),
            }
        }
        let snap = server.metrics();
        prop_assert_eq!(snap.submitted, kinds.len() as u64);
        prop_assert_eq!(snap.shed, expected_shed);
        prop_assert_eq!(shed_seen, expected_shed);
        prop_assert_eq!(snap.completed, expected_completed);
        prop_assert_eq!(snap.failed, 0);
        prop_assert_eq!(
            snap.completed + snap.failed + snap.shed,
            snap.submitted,
            "accounting must balance exactly"
        );
        // Totals are sums over the model series, histograms element-wise.
        let sum = |field: fn(&ModelSnapshot) -> u64| snap.models.iter().map(field).sum::<u64>();
        prop_assert_eq!(snap.submitted, sum(|m| m.submitted));
        prop_assert_eq!(snap.completed, sum(|m| m.completed));
        prop_assert_eq!(snap.failed, sum(|m| m.failed));
        prop_assert_eq!(snap.shed, sum(|m| m.shed));
        prop_assert_eq!(snap.quota_rejected, sum(|m| m.quota_rejected));
        let mut batches = vec![0u64; snap.batch_histogram.len()];
        for m in &snap.models {
            prop_assert!(m.batch_histogram.len() <= batches.len());
            for (total, count) in batches.iter_mut().zip(&m.batch_histogram) {
                *total += count;
            }
            prop_assert_eq!(m.in_flight, 0, "every slot must be released");
        }
        prop_assert_eq!(&snap.batch_histogram, &batches);
        server.shutdown();
    }
}
