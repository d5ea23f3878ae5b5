//! End-to-end tests of the HTTP/1.1 front-end over real loopback
//! sockets: bit-exact inference round-trips, typed error statuses,
//! deadline shedding as `504`, keep-alive, and the metrics/models
//! endpoints.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array};
use mfdfp_serve::{HttpConfig, HttpServer, ModelRegistry, ServeConfig, Server};
use mfdfp_tensor::{Tensor, TensorRng};

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes).
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

/// Starts a one-model server + HTTP front-end on an ephemeral port.
fn start_http(qnet: &QuantizedNet, config: ServeConfig) -> (HttpServer, Arc<Server>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", qnet.clone());
    let server = Arc::new(Server::start(registry, config).unwrap());
    let http = HttpServer::bind(Arc::clone(&server), "127.0.0.1:0", HttpConfig::default()).unwrap();
    (http, server)
}

/// Writes raw bytes, reads exactly one HTTP response: `(status, body)`.
fn roundtrip(stream: &mut TcpStream, bytes: &[u8]) -> (u16, String) {
    stream.write_all(bytes).unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    read_responses(stream, 1).remove(0)
}

/// Reads `count` pipelined responses off one connection, in order.
fn read_responses(stream: &mut TcpStream, count: usize) -> Vec<(u16, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut out = Vec::new();
    while out.len() < count {
        let framed = buf.windows(4).position(|w| w == b"\r\n\r\n").and_then(|p| {
            let head = String::from_utf8_lossy(&buf[..p]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))?
                .trim()
                .parse()
                .ok()?;
            (buf.len() >= p + 4 + length).then_some((p + 4, p + 4 + length))
        });
        let Some((head_end, end)) = framed else {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed with {} of {count} responses sent", out.len());
            buf.extend_from_slice(&chunk[..n]);
            continue;
        };
        let status = String::from_utf8_lossy(&buf[..head_end]).split(' ').nth(1).unwrap().parse();
        out.push((status.unwrap(), String::from_utf8_lossy(&buf[head_end..end]).into_owned()));
        buf.drain(..end);
    }
    assert!(buf.is_empty(), "bytes after the last response: {buf:?}");
    out
}

/// Tears the tier down: stops the acceptor, waits for connection handler
/// threads to release their `Arc<Server>` clones (they exit on EOF once
/// the client streams are dropped), then shuts the server down.
fn finish(http: HttpServer, mut server: Arc<Server>) {
    http.shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(server) {
            Ok(owned) => {
                owned.shutdown();
                return;
            }
            Err(shared) => {
                server = shared;
                assert!(std::time::Instant::now() < deadline, "handler threads did not exit");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn extract_logits(body: &str) -> Vec<f32> {
    let start = body.find("\"logits\":").unwrap() + "\"logits\":".len();
    let end = body[start..].find(']').unwrap() + start + 1;
    parse_f32_array(&body.as_bytes()[start..end]).unwrap()
}

#[test]
fn infer_round_trip_is_bit_exact_and_keep_alive_works() {
    let qnet = tiny_qnet(11);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let mut rng = TensorRng::seed_from(3);

    // Several requests on ONE connection: keep-alive must hold, and
    // every decoded response must be bit-identical to direct inference.
    for i in 0..4 {
        let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
        let body = format_f32_array(img.as_slice());
        let bytes = encode_request("POST", "/v1/infer/tiny", &[], body.as_bytes());
        let (status, response) = roundtrip(&mut stream, &bytes);
        assert_eq!(status, 200, "request {i}: {response}");
        assert!(response.contains("\"model\":\"tiny\""));
        assert!(response.contains("\"version\":1"));
        let direct = qnet.logits(&img).unwrap();
        let served = extract_logits(&response);
        assert_eq!(direct.as_slice().len(), served.len());
        for (a, b) in direct.as_slice().iter().zip(&served) {
            assert_eq!(a.to_bits(), b.to_bits(), "served logits not bit-exact");
        }
    }
    drop(stream);
    finish(http, server);
}

#[test]
fn error_paths_map_to_typed_statuses() {
    let qnet = tiny_qnet(13);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let addr = http.local_addr();
    let connect = || TcpStream::connect(addr).unwrap();

    // Unknown model → 404.
    let body = format_f32_array(&vec![0.1f32; 768]);
    let (status, response) =
        roundtrip(&mut connect(), &encode_request("POST", "/v1/infer/ghost", &[], body.as_bytes()));
    assert_eq!(status, 404, "{response}");
    assert_eq!(response, r#"{"error":"no model named \"ghost\" is registered"}"#);

    // Wrong input size → 400 with the model's expectation in the message.
    let (status, response) =
        roundtrip(&mut connect(), &encode_request("POST", "/v1/infer/tiny", &[], b"[1.0,2.0]"));
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("768"), "{response}");

    // Poison body → 400, typed.
    let (status, response) =
        roundtrip(&mut connect(), &encode_request("POST", "/v1/infer/tiny", &[], b"[1.0,NaN,2.0]"));
    assert_eq!(status, 400, "{response}");

    // Unknown route → 404; wrong method → 405.
    let (status, response) = roundtrip(&mut connect(), &encode_request("GET", "/nope", &[], b""));
    assert_eq!((status, response.as_str()), (404, r#"{"error":"unknown route"}"#));
    let (status, _) = roundtrip(&mut connect(), &encode_request("GET", "/v1/infer/tiny", &[], b""));
    assert_eq!(status, 405);
    let (status, _) = roundtrip(&mut connect(), &encode_request("POST", "/v1/metrics", &[], b"x"));
    assert_eq!(status, 405);

    // Bad deadline / priority headers → 400.
    let (status, _) = roundtrip(
        &mut connect(),
        &encode_request("POST", "/v1/infer/tiny", &[("x-mfdfp-deadline-us", "soon")], b"[]"),
    );
    assert_eq!(status, 400);
    let (status, _) = roundtrip(
        &mut connect(),
        &encode_request("POST", "/v1/infer/tiny", &[("x-mfdfp-priority", "vip")], b"[]"),
    );
    assert_eq!(status, 400);

    // Oversized declared body → 413 from the declaration alone.
    let (status, _) = roundtrip(
        &mut connect(),
        b"POST /v1/infer/tiny HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status, 413);

    // Malformed request line → 400.
    let (status, _) = roundtrip(&mut connect(), b"garbage\r\n\r\n");
    assert_eq!(status, 400);

    // Unsupported version → 505.
    let (status, _) = roundtrip(&mut connect(), b"GET /v1/models HTTP/3.0\r\n\r\n");
    assert_eq!(status, 505);

    finish(http, server);
}

#[test]
fn expired_deadline_sheds_as_504_and_counts() {
    let qnet = tiny_qnet(17);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let mut rng = TensorRng::seed_from(5);
    let img: Tensor = rng.gaussian([3, 16, 16], 0.0, 0.7);
    let body = format_f32_array(img.as_slice());

    // A zero deadline has always expired by batch formation: the request
    // must shed deterministically — typed 504, counted, no inference.
    let bytes =
        encode_request("POST", "/v1/infer/tiny", &[("x-mfdfp-deadline-us", "0")], body.as_bytes());
    let (status, response) = roundtrip(&mut stream, &bytes);
    assert_eq!(status, 504, "{response}");
    assert!(response.contains("shed"), "{response}");

    // A generous deadline serves normally on the same connection.
    let bytes = encode_request(
        "POST",
        "/v1/infer/tiny",
        &[("x-mfdfp-deadline-us", "60000000")],
        body.as_bytes(),
    );
    let (status, _) = roundtrip(&mut stream, &bytes);
    assert_eq!(status, 200);

    let snap = server.metrics();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.submitted, 2);
    drop(stream);
    finish(http, server);
}

#[test]
fn metrics_and_models_endpoints_serve_json() {
    let qnet = tiny_qnet(19);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    server.registry().register("second", tiny_qnet(23));
    server.swap_model("second", tiny_qnet(29)).unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    let (status, body) = roundtrip(&mut stream, &encode_request("GET", "/v1/models", &[], b""));
    assert_eq!(status, 200);
    assert_eq!(
        body, r#"{"models":[{"name":"second","version":2},{"name":"tiny","version":1}]}"#,
        "golden bytes: names sorted, each with its current version"
    );

    // Serve one request, then the metrics document must reflect it.
    let mut rng = TensorRng::seed_from(7);
    let img: Tensor = rng.gaussian([3, 16, 16], 0.0, 0.7);
    let body = format_f32_array(img.as_slice());
    let (status, _) =
        roundtrip(&mut stream, &encode_request("POST", "/v1/infer/tiny", &[], body.as_bytes()));
    assert_eq!(status, 200);

    let (status, body) = roundtrip(&mut stream, &encode_request("GET", "/v1/metrics", &[], b""));
    assert_eq!(status, 200);
    assert!(body.contains("\"completed\":1"), "{body}");
    assert!(body.contains("\"shard_depths\":["), "{body}");
    assert!(body.contains("\"shed\":0"), "{body}");
    drop(stream);
    finish(http, server);
}

#[test]
fn http_shutdown_stops_accepting_but_server_survives() {
    let qnet = tiny_qnet(31);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let addr = http.local_addr();
    http.shutdown();
    // New connections are refused or die without a response…
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let bytes = encode_request("GET", "/v1/models", &[], b"");
            stream.write_all(&bytes).is_err() || {
                let mut out = Vec::new();
                stream.read_to_end(&mut out).map(|n| n == 0).unwrap_or(true)
            }
        }
    };
    assert!(refused, "acceptor must be gone after shutdown");
    // …but the in-process server still serves.
    let mut rng = TensorRng::seed_from(9);
    let img: Tensor = rng.gaussian([3, 16, 16], 0.0, 0.7);
    let response = server.submit("tiny", img).unwrap().wait().unwrap();
    assert_eq!(response.model, "tiny");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut server = server;
    loop {
        match Arc::try_unwrap(server) {
            Ok(owned) => {
                owned.shutdown();
                break;
            }
            Err(shared) => {
                server = shared;
                assert!(std::time::Instant::now() < deadline, "handler threads did not exit");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Like [`start_http`] but with a custom [`HttpConfig`].
fn start_http_with(qnet: &QuantizedNet, http_config: HttpConfig) -> (HttpServer, Arc<Server>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", qnet.clone());
    let server = Arc::new(Server::start(registry, ServeConfig::default()).unwrap());
    let http = HttpServer::bind(Arc::clone(&server), "127.0.0.1:0", http_config).unwrap();
    (http, server)
}

#[test]
fn idle_keep_alive_connection_is_answered_408_and_reaped() {
    let qnet = tiny_qnet(17);
    let (http, server) = start_http_with(
        &qnet,
        HttpConfig {
            idle_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    // A completed request resets the idle clock: the connection is
    // healthy keep-alive first.
    let img = TensorRng::seed_from(5).gaussian([3, 16, 16], 0.0, 0.7);
    let body = format_f32_array(img.as_slice());
    let bytes = encode_request("POST", "/v1/infer/tiny", &[], body.as_bytes());
    let (status, _) = roundtrip(&mut stream, &bytes);
    assert_eq!(status, 200);

    // Then silence: at the deadline the server answers 408 and closes,
    // releasing the connection slot instead of leaking it forever.
    let idle_started = std::time::Instant::now();
    let (status, response) = read_response(&mut stream);
    assert_eq!(status, 408, "an idle connection must be answered 408: {response}");
    assert!(response.contains("idle"), "the 408 body must say why: {response}");
    assert!(
        idle_started.elapsed() >= Duration::from_millis(150),
        "the reap must honour the configured idle window"
    );
    // The connection is closed after the 408 (EOF, not more data).
    let mut tail = [0u8; 16];
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    assert!(matches!(stream.read(&mut tail), Ok(0) | Err(_)), "connection must be closed");

    assert_eq!(server.metrics().http_idle_closed, 1, "the reap must be counted");
    drop(stream);
    finish(http, server);
}

#[test]
fn slow_loris_partial_head_is_held_to_the_same_deadline() {
    let qnet = tiny_qnet(18);
    let (http, server) = start_http_with(
        &qnet,
        HttpConfig {
            idle_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(20),
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    // Drip a partial request head, never completing it. Each drip lands
    // well inside the read timeout, but only a *complete* request resets
    // the idle deadline — so the drip-feed is reaped exactly like a
    // silent peer would be.
    let started = std::time::Instant::now();
    stream.write_all(b"POST /v1/infer/tiny HTT").unwrap();
    std::thread::sleep(Duration::from_millis(60));
    stream.write_all(b"P/1.1\r\nContent-").unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let _ = stream.write_all(b"Length: 10\r\n");

    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 408, "a slow-loris drip must be reaped, not served forever");
    assert!(started.elapsed() >= Duration::from_millis(150));
    assert_eq!(server.metrics().http_idle_closed, 1);
    drop(stream);
    finish(http, server);
}

#[test]
fn health_and_ready_endpoints_serve_the_healing_surface() {
    let qnet = tiny_qnet(19);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();

    // One served request first: a model's breaker is created lazily on
    // its first admission, and health must then surface it.
    let img = TensorRng::seed_from(6).gaussian([3, 16, 16], 0.0, 0.7);
    let infer =
        encode_request("POST", "/v1/infer/tiny", &[], format_f32_array(img.as_slice()).as_bytes());
    let (status, _) = roundtrip(&mut stream, &infer);
    assert_eq!(status, 200);

    let (status, body) = roundtrip(&mut stream, &encode_request("GET", "/v1/health", &[], b""));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"shards\":["), "{body}");
    assert!(body.contains("\"breakers\":{"), "{body}");
    assert!(body.contains("\"degrade_level\":0"), "{body}");
    assert!(body.contains("\"respawns\":0"), "{body}");
    assert!(body.contains("\"heartbeat_ages_ms\":["), "{body}");
    // The default config breaks per model: the registered model's
    // breaker must be surfaced closed.
    assert!(body.contains("\"tiny\":{\"state\":\"closed\""), "{body}");

    let (status, body) = roundtrip(&mut stream, &encode_request("GET", "/v1/ready", &[], b""));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"ready\":true}");

    // Wrong method: same 405 contract as the other GET endpoints.
    let (status, _) = roundtrip(&mut stream, &encode_request("POST", "/v1/health", &[], b"{}"));
    assert_eq!(status, 405);

    drop(stream);
    finish(http, server);
}

fn assert_bit_exact(qnet: &QuantizedNet, img: &Tensor, response: &str) {
    let direct = qnet.logits(img).unwrap();
    let served = extract_logits(response);
    assert_eq!(direct.as_slice().len(), served.len());
    for (a, b) in direct.as_slice().iter().zip(&served) {
        assert_eq!(a.to_bits(), b.to_bits(), "served logits not bit-exact");
    }
}

/// However the request bytes are cut into reads — byte by byte, exactly
/// at the head terminator, or two requests in one segment — the handler
/// answers exactly as it does for one request per write.
#[test]
fn request_framing_does_not_depend_on_how_bytes_arrive() {
    let qnet = tiny_qnet(37);
    let (http, server) = start_http(&qnet, ServeConfig::default());
    let mut rng = TensorRng::seed_from(41);
    let imgs: Vec<Tensor> = (0..4).map(|_| rng.gaussian([3, 16, 16], 0.0, 0.7)).collect();
    let requests: Vec<Vec<u8>> = imgs
        .iter()
        .map(|img| {
            let body = format_f32_array(img.as_slice());
            encode_request("POST", "/v1/infer/tiny", &[], body.as_bytes())
        })
        .collect();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // 1-byte drips: head and body both arrive one byte per segment.
    for byte in &requests[0] {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let (status, response) = read_response(&mut stream);
    assert_eq!(status, 200, "{response}");
    assert_bit_exact(&qnet, &imgs[0], &response);

    // Split exactly at the head terminator: the head is parsed alone,
    // the body arrives afterwards (the pause makes that the likely
    // arrival; the answer is the same either way).
    let head_end = requests[1].windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    stream.write_all(&requests[1][..head_end]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(&requests[1][head_end..]).unwrap();
    let (status, response) = read_response(&mut stream);
    assert_eq!(status, 200, "{response}");
    assert_bit_exact(&qnet, &imgs[1], &response);

    // Two pipelined requests in one write: two replies, in order.
    stream.write_all(&[&requests[2][..], &requests[3][..]].concat()).unwrap();
    let replies = read_responses(&mut stream, 2);
    for ((status, response), img) in replies.iter().zip(&imgs[2..]) {
        assert_eq!(*status, 200, "{response}");
        assert_bit_exact(&qnet, img, response);
    }

    assert_eq!(server.metrics().completed, 4);
    drop(stream);
    finish(http, server);
}

#[test]
fn body_limit_is_inclusive_and_enforced_from_the_declaration() {
    let qnet = tiny_qnet(43);
    let img = TensorRng::seed_from(47).gaussian([3, 16, 16], 0.0, 0.7);
    let body = format_f32_array(img.as_slice());
    let (http, server) =
        start_http_with(&qnet, HttpConfig { max_body_bytes: body.len(), ..Default::default() });

    // A body of exactly `max_body_bytes` is served.
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let (status, response) =
        roundtrip(&mut stream, &encode_request("POST", "/v1/infer/tiny", &[], body.as_bytes()));
    assert_eq!(status, 200, "{response}");
    assert_bit_exact(&qnet, &img, &response);
    drop(stream);

    // One byte more is refused from the head alone: no body byte is
    // ever sent, so a handler that waited to read one would hang here.
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let head =
        format!("POST /v1/infer/tiny HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len() + 1);
    let (status, response) = roundtrip(&mut stream, head.as_bytes());
    assert_eq!(status, 413, "{response}");
    assert_eq!(server.metrics().submitted, 1);
    drop(stream);
    finish(http, server);
}

/// A connection that never sends a byte is reaped like any other: the
/// handler has nothing to parse, re-arms no socket timeout between its
/// equal read slices, and still answers `408` at the idle deadline.
#[test]
fn silent_fresh_connection_is_reaped_at_the_idle_deadline() {
    let qnet = tiny_qnet(53);
    let (http, server) = start_http_with(
        &qnet,
        HttpConfig {
            idle_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(20),
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    let connected = std::time::Instant::now();
    let (status, response) = read_response(&mut stream);
    assert_eq!(status, 408, "{response}");
    assert!(connected.elapsed() >= Duration::from_millis(150));
    assert_eq!(server.metrics().http_idle_closed, 1);
    drop(stream);
    finish(http, server);
}
