//! Never-panic property of the campaign server's request reader: any
//! byte string a client can put on the socket — noise, or a valid
//! `POST /campaign` with a few bytes flipped — gets a reply or a closed
//! connection within the client timeout. No handler thread panics, the
//! exchange never hangs, and the server keeps answering `/health`.
//!
//! Own test binary: the panic hook it installs is process-global.

use proptest::prelude::*;
use snoc_bench::serve::Server;
use snoc_core::{CampaignSpec, SetupSpec};
use snoc_traffic::TrafficPattern;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

/// Set by the panic hook when a server-side thread panics: a handler
/// thread or a campaign worker, which are unnamed. A test thread is
/// named by libtest (or is `main`), so a failing assertion fails its own
/// test and no later one.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// One cacheless server for the whole binary, with a short client
/// timeout so a request the server is still waiting on ends quickly.
fn server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if thread::current().name().is_none() {
                PANICKED.store(true, Ordering::SeqCst);
            }
            default_hook(info);
        }));
        let server = Server::bind("127.0.0.1:0", None, 1)
            .expect("bind")
            .with_client_timeout(Duration::from_millis(300));
        let addr = server.local_addr().expect("bound").to_string();
        thread::spawn(move || server.run());
        addr
    })
}

/// Writes `bytes`, half-closes, and reads the reply to EOF. `None`
/// when the server neither answered nor hung up within 5 s.
fn exchange(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // The server may answer (431, 413) and hang up mid-write.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => Some(reply),
        // A reset after a complete early reply is still an answer.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => Some(reply),
        Err(_) => None,
    }
}

/// `body` as a `POST /campaign` request.
fn submission(body: &str) -> Vec<u8> {
    format!(
        "POST /campaign HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A valid spec small enough that any byte-flipped variant that still
/// parses simulates in milliseconds (flips cannot add digits).
fn valid_spec() -> String {
    let mut spec = CampaignSpec::new("fuzz");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![0.01];
    spec.warmup = 10;
    spec.measure = 20;
    spec.to_json()
}

fn valid_request() -> Vec<u8> {
    submission(&valid_spec())
}

fn assert_alive_and_calm() -> Result<(), TestCaseError> {
    let health = exchange(b"GET /health HTTP/1.1\r\n\r\n");
    prop_assert!(
        health.is_some_and(|r| r.starts_with(b"HTTP/1.1 200")),
        "server stopped answering /health"
    );
    prop_assert!(!PANICKED.load(Ordering::SeqCst), "a server thread panicked");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_get_an_answer_or_a_hangup(seed in 0u64..u64::MAX, len in 0usize..600) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        prop_assert!(exchange(&bytes).is_some(), "exchange hung");
        assert_alive_and_calm()?;
    }

    #[test]
    fn byte_flipped_submissions_get_an_answer_or_a_hangup(
        seed in 0u64..u64::MAX,
        flips in 1usize..5,
    ) {
        const SPICE: &[u8] = b"{}[]\",:\\-.e09 \r\n\xff\x00";
        let mut rng = TestRng::from_name(&seed.to_string());
        let mut request = valid_request();
        for _ in 0..flips {
            let at = (rng.next_u64() % request.len() as u64) as usize;
            request[at] = SPICE[(rng.next_u64() % SPICE.len() as u64) as usize];
        }
        if rng.next_u64() & 3 == 0 {
            request.truncate((rng.next_u64() % request.len() as u64) as usize);
        }
        prop_assert!(exchange(&request).is_some(), "exchange hung");
        assert_alive_and_calm()?;
    }
}

#[test]
fn the_unmutated_submission_is_served() {
    let reply = exchange(&valid_request()).expect("answered");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("\"event\": \"done\""), "{text}");
}

/// A request the server cannot take as sent is refused with a 400
/// whose JSON error names the problem and the part it is in: a body is
/// neither decoded lossily (a setup would run, and be cached, under a
/// `U+FFFD` name nobody sent) nor read as empty, and a request line or
/// header that is not UTF-8 gets an answer, not a closed socket. Two
/// `Content-Length` headers that differ, in either order, leave the
/// body's end unknown (RFC 9112 §6.3): no body is read by either one.
#[test]
fn undecodable_bodies_and_lengths_are_refused_with_400() {
    let mut spec = CampaignSpec::new("fuzz");
    spec.setups = vec![SetupSpec::new("sn54")];
    spec.setups[0].name = "sn54 @".to_string();
    let mut body = spec.to_json().into_bytes();
    let at = body.iter().position(|&b| b == b'@').expect("the marker");
    body[at] = 0xff;
    let mut not_utf8 = format!(
        "POST /campaign HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    not_utf8.extend(body);
    let bad_length = b"POST /campaign HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}".to_vec();
    let bad_path = b"GET /st\xffats HTTP/1.1\r\n\r\n".to_vec();
    let bad_header = b"GET /stats HTTP/1.1\r\nX-A: \xff\xfe\r\n\r\n".to_vec();
    let valid = valid_spec();
    let lengths = |first: usize, second: usize| {
        format!(
            "POST /campaign HTTP/1.1\r\nContent-Length: {first}\r\n\
             Content-Length: {second}\r\n\r\n{valid}"
        )
        .into_bytes()
    };
    let conflicting = "conflicting Content-Length headers";
    for (request, names) in [
        (not_utf8, "body is not UTF-8"),
        (bad_length, "Content-Length `abc`"),
        (bad_path, "request line is not UTF-8: invalid byte at 7"),
        (bad_header, "header line is not UTF-8: invalid byte at 5"),
        (lengths(valid.len(), 3), conflicting),
        (lengths(3, valid.len()), conflicting),
    ] {
        let reply = String::from_utf8(exchange(&request).expect("answered")).expect("utf-8");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let (_, body) = reply.split_once("\r\n\r\n").expect("a body");
        let error = snoc_core::json::parse(body).expect("a JSON body");
        let error = error
            .get("error")
            .and_then(|e| e.as_str())
            .expect("an error");
        assert!(error.contains(names), "{error}");
    }
    assert_alive_and_calm().unwrap();
}

/// Specs the parser accepts but no simulator can run (`tests/specs/`;
/// an unknown workload name is the one the parser itself refuses) are
/// refused before the `200 OK` header goes out; a handler that found
/// out at the first point would panic with the stream open.
#[test]
fn well_formed_specs_that_cannot_run_are_refused_with_400() {
    for (name, parses) in [
        ("duplicate_name", true),
        ("cbr0", true),
        ("faults_ugal", true),
        ("phantom_router", true),
        ("unknown_workload", false),
        ("xy_off_fbf", true),
        ("shards", true),
        ("repeated_pattern", true),
        ("unsorted_loads", true),
    ] {
        let path = format!(
            "{}/../../tests/specs/unrunnable_{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let body = std::fs::read_to_string(&path).expect("fixture exists");
        assert_eq!(CampaignSpec::from_json(&body).is_ok(), parses, "{name}");
        let reply = exchange(&submission(&body)).expect("answered");
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 400"), "{name}: {text}");
        assert!(text.contains("{\"error\": "), "{name}: {text}");
        assert_alive_and_calm().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
