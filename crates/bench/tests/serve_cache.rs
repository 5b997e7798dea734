//! Integration test for `snoc serve`: ephemeral port, two concurrent
//! clients with overlapping specs, JSONL streaming, and the shared
//! warm cache.

use snoc_bench::serve::{fetch_stats, submit, Server, SubmitOutcome};
use snoc_core::json::{self, JsonValue};
use snoc_core::{Campaign, CampaignSpec, SetupSpec};
use snoc_traffic::TrafficPattern;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snoc_srv_test_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny spec over `loads`; all client specs share every other
/// coordinate, so equal loads mean equal cache keys.
fn spec(name: &str, loads: &[f64]) -> CampaignSpec {
    let mut s = CampaignSpec::new(name);
    s.setups = vec![SetupSpec::new("sn54")];
    s.patterns = vec![TrafficPattern::Random];
    s.loads = loads.to_vec();
    s.warmup = 150;
    s.measure = 500;
    s
}

/// Submits a spec and returns the outcome plus every streamed line.
fn run_client(addr: &str, spec: &CampaignSpec) -> (SubmitOutcome, Vec<String>) {
    let mut lines = Vec::new();
    let outcome = submit(addr, &spec.to_json(), |line| lines.push(line.to_string()))
        .expect("submit succeeds");
    (outcome, lines)
}

#[test]
fn concurrent_clients_share_one_warm_cache() {
    let dir = tmp("overlap");
    let server =
        Server::bind("127.0.0.1:0", Some(dir.to_str().expect("utf-8 path")), 2).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // Overlap: both specs share loads 0.02 and 0.05; spec B adds 0.08.
    // Whichever job the FIFO queue runs first simulates its own points;
    // the other replays the overlap — so across both jobs exactly the
    // 3-point union is simulated and exactly the 2-point overlap hits,
    // regardless of arrival order.
    let spec_a = spec("client-a", &[0.02, 0.05]);
    let spec_b = spec("client-b", &[0.02, 0.05, 0.08]);
    let (addr_a, addr_b) = (addr.clone(), addr.clone());
    let a = thread::spawn(move || run_client(&addr_a, &spec_a));
    let b = thread::spawn(move || run_client(&addr_b, &spec_b));
    let (outcome_a, lines_a) = a.join().expect("client a");
    let (outcome_b, lines_b) = b.join().expect("client b");

    assert_eq!(outcome_a.points, 2, "spec A streams one event per point");
    assert_eq!(outcome_b.points, 3, "spec B streams one event per point");
    assert_eq!(
        outcome_a.cache_hits + outcome_b.cache_hits,
        2,
        "the overlap is computed once and replayed once"
    );
    assert_eq!(
        outcome_a.cache_misses + outcome_b.cache_misses,
        3,
        "exactly the union of loads is simulated"
    );

    // Every streamed line is well-formed single-line JSON with the
    // protocol's event shape, ending in exactly one done event.
    for lines in [&lines_a, &lines_b] {
        for line in lines {
            let v =
                json::parse(line.as_str()).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
            match v.get("event").and_then(JsonValue::as_str) {
                Some("point") => {
                    let p = v.get("point").expect("point payload");
                    assert!(p.get("load").is_some() && p.get("latency").is_some());
                }
                Some("done") => {
                    assert!(v.get("result").is_some());
                }
                other => panic!("unknown event {other:?} in `{line}`"),
            }
        }
        let done_count = lines.iter().filter(|l| l.contains("\"done\"")).count();
        assert_eq!(done_count, 1);
        assert!(lines
            .last()
            .expect("nonempty")
            .contains("\"event\": \"done\""));
    }

    // A resubmission of spec A replays fully from the warm cache.
    let (again, _) = run_client(&addr, &spec("client-a-again", &[0.02, 0.05]));
    assert_eq!(again.cache_misses, 0, "identical rerun simulates nothing");
    assert_eq!(again.cache_hits, 2);

    // Lifetime server stats aggregate across all three jobs.
    let stats = fetch_stats(&addr).expect("stats");
    let v = json::parse(&stats).expect("stats is JSON");
    assert_eq!(v.get("jobs_done").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(v.get("cache_entries").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(v.get("cache_hits").and_then(JsonValue::as_u64), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_specs_get_a_400_not_a_hang() {
    let server = Server::bind("127.0.0.1:0", None, 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    let err = submit(&addr, "{\"schema\": \"nope\"}", |_| {}).expect_err("must fail");
    assert!(
        err.to_string().contains("schema"),
        "server error is forwarded: {err}"
    );
}

#[test]
fn huge_content_length_gets_a_413_without_allocation() {
    let server = Server::bind("127.0.0.1:0", None, 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // An unauthenticated client claiming a terabyte body must get a
    // clean 413 — the server sizes no buffer from the header.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: 1000000000000\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    assert!(response.contains("4 MiB limit"), "{response}");
}

#[test]
fn endless_header_line_gets_a_431_not_unbounded_memory() {
    let server = Server::bind("127.0.0.1:0", None, 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // Exactly the line cap with no newline: the server must stop
    // buffering there and reject, instead of growing a String forever.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(stream, "GET /stats HTTP/1.1\r\n").unwrap();
    stream.write_all(&vec![b'a'; 8 << 10]).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
}

#[test]
fn stalled_clients_are_disconnected_not_leaked() {
    let server = Server::bind("127.0.0.1:0", None, 1)
        .expect("bind")
        .with_client_timeout(Duration::from_millis(200));
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // A client that promises a body and then goes silent: the read
    // timeout must fail the pending read and close the socket instead
    // of pinning a handler thread on it forever.
    let start = Instant::now();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 64\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    // Returns (closed socket or reset) once the server gives up; a
    // hang here would trip the harness timeout instead.
    let _ = stream.read_to_string(&mut response);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stalled client held the connection for {:?}",
        start.elapsed()
    );

    // Same for a half-written header line with no newline in sight.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(stream, "GET /sta").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);

    // The server stayed serviceable throughout.
    let (outcome, _) = run_client(&addr, &spec("after-stall", &[0.02]));
    assert_eq!(outcome.points, 1);
}

#[test]
fn stats_surface_corrupt_cache_lines() {
    let dir = tmp("corrupt_stats");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("points.jsonl"), b"{\"key\": \"to\xffrn").unwrap();
    let server =
        Server::bind("127.0.0.1:0", Some(dir.to_str().expect("utf-8 path")), 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    let stats = fetch_stats(&addr).expect("stats");
    let v = json::parse(&stats).expect("stats is JSON");
    assert_eq!(v.get("corrupt_lines").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(v.get("cache_entries").and_then(JsonValue::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_without_cache_still_serves() {
    let server = Server::bind("127.0.0.1:0", None, 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    let (outcome, _) = run_client(&addr, &spec("uncached", &[0.02]));
    assert_eq!(outcome.points, 1);
    assert_eq!((outcome.cache_hits, outcome.cache_misses), (0, 0));
}

#[test]
fn a_cacheless_server_never_opens_a_path_the_client_names() {
    let server = Server::bind("127.0.0.1:0", None, 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    let dir = tmp("client_named");
    let mut named = spec("client-named", &[0.02]);
    named.cache_dir = Some(dir.to_str().expect("utf-8 path").to_string());
    let (outcome, _) = run_client(&addr, &named);
    assert_eq!(outcome.points, 1);
    assert_eq!((outcome.cache_hits, outcome.cache_misses), (0, 0));
    assert!(!dir.exists(), "the server created {}", dir.display());
}

#[test]
fn a_client_that_hangs_up_costs_one_failed_write_and_the_job_still_fills_the_cache() {
    let dir = tmp("hangup");
    let server =
        Server::bind("127.0.0.1:0", Some(dir.to_str().expect("utf-8 path")), 1).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // Read the response head, then close: every event the job still
    // has to report goes to a dead socket.
    let abandoned = spec("abandoned", &[0.02, 0.05, 0.08]);
    let body = abandoned.to_json();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut head = [0u8; 15];
    stream.read_exact(&mut head).expect("response head");
    assert_eq!(&head, b"HTTP/1.1 200 OK");
    drop(stream);

    // The job runs to completion regardless and is counted …
    let jobs_done = || {
        let stats = fetch_stats(&addr).expect("stats");
        let v = json::parse(&stats).expect("stats is JSON");
        v.get("jobs_done")
            .and_then(JsonValue::as_u64)
            .expect("counter")
    };
    let start = Instant::now();
    while jobs_done() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "job never finished"
        );
        thread::sleep(Duration::from_millis(20));
    }
    // … and left every point behind for the next client.
    let (again, _) = run_client(&addr, &abandoned);
    assert_eq!((again.cache_hits, again.cache_misses), (3, 0));
    assert_eq!(jobs_done(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_bytes_are_the_in_process_bytes() {
    let dir = tmp("bytes");
    let server =
        Server::bind("127.0.0.1:0", Some(dir.to_str().expect("utf-8 path")), 2).expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    thread::spawn(move || server.run());

    // Two curves, one of which saturates and is refined: the stream is
    // in completion order, the result in curve and load order, and a
    // bisection can land where the two share no line.
    let mut spec = spec("bytes", &[0.05, 0.6]);
    spec.patterns.push(TrafficPattern::Adversarial1);
    spec.refine_rounds = 2;
    let expected = Campaign::from_spec(&spec).expect("valid spec").run();

    for pass in ["cold", "warm"] {
        let (outcome, lines) = run_client(&addr, &spec);
        assert_eq!(outcome.points as usize, expected.points.len(), "{pass}");
        let (done, points) = lines.split_last().expect("a done event");
        let mut streamed: Vec<&str> = points.iter().map(String::as_str).collect();
        let mut want: Vec<String> = expected
            .points
            .iter()
            .map(|p| format!("{{\"event\": \"point\", \"point\": {}}}", p.to_json_line()))
            .collect();
        streamed.sort_unstable();
        want.sort_unstable();
        assert_eq!(streamed, want, "{pass}: point events");
        assert_eq!(
            *done,
            format!(
                "{{\"event\": \"done\", \"cache_hits\": {}, \"cache_misses\": {}, \"result\": {}}}",
                outcome.cache_hits,
                outcome.cache_misses,
                json::compact(&expected.to_json()),
            ),
            "{pass}: done event"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
