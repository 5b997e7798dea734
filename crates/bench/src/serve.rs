//! Long-running campaign server: `snoc serve`.
//!
//! A std-only HTTP/JSONL server (no async runtime — the build is
//! offline) that accepts campaign specs and streams results back as
//! they are simulated. All jobs share one warm
//! [`PointCache`], so concurrent clients reuse each other's points and
//! a resubmitted spec replays entirely from cache.
//!
//! # Protocol
//!
//! Plain HTTP/1.1, one request per connection (`Connection: close`):
//!
//! - `POST /campaign` with a `slim_noc-spec-v1` JSON body starts a job.
//!   The response body is JSON-lines, flushed per event:
//!   - `{"event": "point", "point": {…}}` for every finished point
//!     (the object is exactly a [`SweepPoint`] line of the sweep
//!     schema), in completion order;
//!   - `{"event": "done", "cache_hits": H, "cache_misses": M,
//!     "result": {…}}` last, with the full `slim_noc-sweep-v1`/`-v2`
//!     result compacted to one line.
//! - `GET /stats` returns one JSON line of lifetime server counters.
//! - `GET /health` returns `{"ok": true}`.
//!
//! Jobs execute one at a time under a FIFO queue while each job's
//! points still fan out over the sweep engine's worker threads. That
//! keeps cache accounting deterministic — a given point is simulated by
//! exactly one job and every later job hits it — without giving up
//! point-level parallelism.
//!
//! [`PointCache`]: snoc_core::PointCache
//! [`SweepPoint`]: snoc_core::SweepPoint

use snoc_core::json::{self, Floats, Layout::Inline, Raw, Reader, Value, Writer};
use snoc_core::{Campaign, CampaignSpec, PointCache, SweepPoint};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Default per-operation socket timeout on accepted client
/// connections. A client that connects and then goes silent (or stops
/// reading its response) holds a handler thread; the timeout fails the
/// pending read/write and releases the thread instead of pinning it
/// forever. Applies per blocking operation, not per connection — a
/// long job streaming points for minutes is fine as long as the client
/// keeps consuming them.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound campaign server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    client_timeout: Duration,
}

struct ServerState {
    /// The shared warm cache (`None` = in-memory-less server: every job
    /// simulates everything).
    cache: Option<Arc<PointCache>>,
    /// Worker threads per job (0 = one per core).
    threads: usize,
    /// FIFO job queue (ticket lock): jobs run one at a time, in arrival
    /// order.
    queue: JobQueue,
    jobs_done: AtomicU64,
}

/// A ticket lock: `enter` takes the next ticket and blocks until it is
/// served, so jobs run strictly in arrival order (a plain `Mutex` may
/// hand off unfairly).
struct JobQueue {
    next_ticket: AtomicU64,
    serving: Mutex<u64>,
    turn: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            next_ticket: AtomicU64::new(0),
            serving: Mutex::new(0),
            turn: Condvar::new(),
        }
    }

    fn enter(&self) -> JobTicket<'_> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let mut serving = self.serving.lock().expect("job queue");
        while *serving != ticket {
            serving = self.turn.wait(serving).expect("job queue");
        }
        JobTicket { queue: self }
    }
}

struct JobTicket<'a> {
    queue: &'a JobQueue,
}

impl Drop for JobTicket<'_> {
    fn drop(&mut self) {
        let mut serving = self.queue.serving.lock().expect("job queue");
        *serving += 1;
        self.queue.turn.notify_all();
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and opens the
    /// shared cache when `cache_dir` is given.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-open failures.
    pub fn bind(addr: &str, cache_dir: Option<&str>, threads: usize) -> io::Result<Server> {
        let cache = match cache_dir {
            Some(dir) => Some(Arc::new(PointCache::open(dir)?)),
            None => None,
        };
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServerState {
                cache,
                threads,
                queue: JobQueue::new(),
                jobs_done: AtomicU64::new(0),
            }),
            client_timeout: CLIENT_IO_TIMEOUT,
        })
    }

    /// Overrides the per-operation client socket timeout (default 10 s;
    /// tests shrink it to exercise the stalled-client path quickly).
    #[must_use]
    pub fn with_client_timeout(mut self, timeout: Duration) -> Self {
        self.client_timeout = timeout;
        self
    }

    /// The bound address (the actual port when bound ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: accepts connections, one handler thread each.
    /// Returns only if the listener itself fails.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            // Best-effort: a socket that rejects timeouts still gets
            // served, it just keeps the old pin-forever behavior.
            let _ = stream.set_read_timeout(Some(self.client_timeout));
            let _ = stream.set_write_timeout(Some(self.client_timeout));
            let state = Arc::clone(&self.state);
            thread::spawn(move || {
                // A dropped (or timed-out) client connection only
                // cancels that reply.
                let _ = handle(stream, &state);
            });
        }
        Ok(())
    }
}

/// Largest accepted `POST /campaign` body. The `Content-Length` header
/// is client-controlled, so it is checked against this cap *before* any
/// buffer is sized from it.
const MAX_BODY: u64 = 4 << 20;

/// Largest accepted request/header line. Reads go through
/// [`read_line_bounded`] so a client that never sends a newline cannot
/// grow a `String` without bound.
const MAX_LINE: u64 = 8 << 10;

/// Reads one HTTP line into `buf`. Returns the byte count, or `None`
/// when the client sent [`MAX_LINE`] bytes without a newline.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
) -> io::Result<Option<usize>> {
    let n = reader.by_ref().take(MAX_LINE).read_line(buf)?;
    if n as u64 == MAX_LINE && !buf.ends_with('\n') {
        return Ok(None);
    }
    Ok(Some(n))
}

/// Reads one HTTP request, dispatches, writes one response.
fn handle(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let too_long = |stream: &mut TcpStream| {
        let reason = "Request Header Fields Too Large";
        refuse(stream, 431, reason, "header line too long")
    };
    let mut request = String::new();
    if read_line_bounded(&mut reader, &mut request)?.is_none() {
        return too_long(&mut stream);
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    // The raw value when it is not a byte count.
    let mut content_length: Result<u64, String> = Ok(0);
    loop {
        let mut header = String::new();
        match read_line_bounded(&mut reader, &mut header)? {
            None => return too_long(&mut stream),
            Some(0) => break,
            Some(_) if header.trim().is_empty() => break,
            Some(_) => {}
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                content_length = value.parse().map_err(|_| value.to_string());
            }
        }
    }
    match (method.as_str(), path.as_str()) {
        ("POST", "/campaign") => {
            let length = match content_length {
                Ok(length) if length > MAX_BODY => {
                    let limit = "body exceeds the 4 MiB limit";
                    return refuse(&mut stream, 413, "Payload Too Large", limit);
                }
                Ok(length) => length,
                Err(value) => {
                    let msg = format!("Content-Length `{value}` is not a byte count");
                    return refuse(&mut stream, 400, "Bad Request", &msg);
                }
            };
            let mut body = vec![0u8; length as usize];
            reader.read_exact(&mut body)?;
            match String::from_utf8(body) {
                Ok(body) => run_job(&mut stream, state, &body),
                Err(e) => {
                    let at = e.utf8_error().valid_up_to();
                    let msg = format!("body is not UTF-8: invalid byte at {at}");
                    refuse(&mut stream, 400, "Bad Request", &msg)
                }
            }
        }
        ("GET", "/stats") => respond(&mut stream, 200, "OK", &stats_json(state)),
        ("GET", "/health") => respond(&mut stream, 200, "OK", &one_field("ok", true)),
        _ => refuse(&mut stream, 404, "Not Found", "unknown endpoint"),
    }
}

/// Parses a spec, queues it, streams its points, reports the result.
fn run_job(stream: &mut TcpStream, state: &ServerState, body: &str) -> io::Result<()> {
    let mut spec = match CampaignSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => return refuse(stream, 400, "Bad Request", &e.to_string()),
    };
    // The server's cache, or none, is authoritative: every client
    // shares it, and no client names a path the server opens.
    spec.cache_dir = None;
    if spec.threads == 0 {
        spec.threads = state.threads;
    }
    let mut campaign = match Campaign::from_spec(&spec) {
        Ok(c) => c,
        Err(e) => return refuse(stream, 400, "Bad Request", &e.to_string()),
    };
    if let Some(cache) = &state.cache {
        campaign = campaign.with_cache(Arc::clone(cache));
    }
    write_head(stream, 200, "OK")?;
    // A point is rendered once: its line goes out in one `write` and
    // is kept, by point seed, for the `done` result. `exact` falls when
    // two different lines come in under one seed (a bisection landing
    // on a grid load, a hash collision): the result is then rendered
    // afresh.
    let out = Mutex::new((&mut *stream, HashMap::new(), true, Ok(())));
    let result = {
        let _turn = state.queue.enter();
        campaign.run_observed(|point| {
            let mut out = out.lock().expect("stream lock");
            let (stream, lines, exact, sent) = &mut *out;
            if sent.is_err() {
                return; // the client hung up: the job still fills the cache
            }
            let line = point.to_json_line();
            let mut event = Writer::new(FLOATS);
            event
                .object(Inline)
                .field("event", "point")
                .field("point", Raw(&line));
            *sent = stream.write_all((event.finish() + "\n").as_bytes());
            match lines.entry(point.seed) {
                Entry::Vacant(slot) => drop(slot.insert(line)),
                Entry::Occupied(kept) => *exact &= *kept.get() == line,
            }
        })
    };
    state.jobs_done.fetch_add(1, Ordering::Relaxed);
    let (stream, lines, exact, sent) = out.into_inner().expect("stream lock");
    sent?;
    let kept = |point: &SweepPoint| match lines.get(&point.seed) {
        Some(line) if exact => Cow::Borrowed(&**line),
        _ => Cow::Owned(point.to_json_line()),
    };
    let mut done = Writer::new(FLOATS);
    done.object(Inline)
        .field("event", "done")
        .field("cache_hits", result.cache_hits)
        .field("cache_misses", result.cache_misses)
        .field("result", Raw(json::compact(&result.to_json_with(kept))));
    stream.write_all((done.finish() + "\n").as_bytes())
}

fn stats_json(state: &ServerState) -> String {
    let (hits, misses, entries, corrupt) = state.cache.as_ref().map_or((0, 0, 0, 0), |c| {
        (c.hits(), c.misses(), c.len() as u64, c.corrupt_lines())
    });
    let mut w = Writer::new(FLOATS);
    w.object(Inline)
        .field("jobs_done", state.jobs_done.load(Ordering::Relaxed))
        .field("cache_hits", hits)
        .field("cache_misses", misses)
        .field("cache_entries", entries)
        .field("corrupt_lines", corrupt);
    w.finish()
}

/// The protocol's objects carry no floats of their own.
const FLOATS: Floats = Floats::Shortest;

/// `{"key": value}`: the body of `/health` and of every refusal.
fn one_field(key: &str, value: impl Value) -> String {
    let mut w = Writer::new(FLOATS);
    w.object(Inline).field(key, value);
    w.finish()
}

/// Answers with `status` and an `{"error": …}` body naming the problem.
fn refuse(stream: &mut TcpStream, status: u16, reason: &str, error: &str) -> io::Result<()> {
    respond(stream, status, reason, &one_field("error", error))
}

/// The response head, in one `write`: the socket is unbuffered.
fn write_head(stream: &mut TcpStream, status: u16, reason: &str) -> io::Result<()> {
    stream.write_all(head(status, reason).as_bytes())
}

fn head(status: u16, reason: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/x-ndjson\r\n\
         Connection: close\r\n\r\n"
    )
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> io::Result<()> {
    stream.write_all(format!("{}{body}\n", head(status, reason)).as_bytes())
}

/// What a completed [`submit`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Streamed `point` events.
    pub points: u64,
    /// Points the server replayed from its cache.
    pub cache_hits: u64,
    /// Points the server simulated.
    pub cache_misses: u64,
}

/// Submits a spec to a running server and streams the response:
/// `on_line` sees every JSONL event line as it arrives.
///
/// # Errors
///
/// Fails on connection errors, non-200 responses (including the
/// server's `{"error": …}` body in the message), a malformed stream, or
/// a stream that ends without a `done` event.
pub fn submit(
    addr: &str,
    spec_json: &str,
    mut on_line: impl FnMut(&str),
) -> io::Result<SubmitOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{spec_json}",
        spec_json.len()
    )?;
    stream.flush()?;
    let reader = BufReader::new(stream);
    let mut lines = reader.lines();
    let status = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))??;
    let ok = status.split_whitespace().nth(1) == Some("200");
    // Skip response headers.
    for line in lines.by_ref() {
        if line?.is_empty() {
            break;
        }
    }
    let mut outcome = SubmitOutcome::default();
    let mut done = false;
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        if !ok {
            return Err(io::Error::other(format!("server: {status}: {line}")));
        }
        on_line(&line);
        // Only the event name and the two counters are read (a field's
        // first occurrence, as `JsonValue::get` had it); the rest of the
        // line — a 100 KB result — is validated, never built.
        let (mut event, mut hits, mut misses) = (None, None, None);
        let count = |r: &mut Reader<'_>| r.number()?.parse::<u64>().map_err(|e| e.to_string());
        let mut reader = Reader::new(&line);
        let fields = reader.object(|r, key| match &*key {
            "event" if event.is_none() => r.string().map(|name| event = Some(name)),
            "cache_hits" if hits.is_none() => count(r).map(|n| hits = Some(n)),
            "cache_misses" if misses.is_none() => count(r).map(|n| misses = Some(n)),
            _ => r.skip(),
        });
        fields
            .and_then(|()| reader.finish())
            .map_err(|e| io::Error::other(format!("bad stream line: {e}: {line}")))?;
        match event.as_deref() {
            Some("point") => outcome.points += 1,
            Some("done") => {
                outcome.cache_hits = hits.unwrap_or(0);
                outcome.cache_misses = misses.unwrap_or(0);
                done = true;
            }
            _ => {}
        }
    }
    if !ok {
        return Err(io::Error::other(format!("server: {status}")));
    }
    if !done {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended before the done event",
        ));
    }
    Ok(outcome)
}

/// Fetches the server's lifetime `/stats` line.
///
/// # Errors
///
/// Fails on connection errors or a non-200 response.
pub fn fetch_stats(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET /stats HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let reader = BufReader::new(stream);
    let mut lines = reader.lines();
    let status = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))??;
    if status.split_whitespace().nth(1) != Some("200") {
        return Err(io::Error::other(format!("server: {status}")));
    }
    for line in lines.by_ref() {
        if line?.is_empty() {
            break;
        }
    }
    lines
        .next()
        .transpose()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty stats body"))
}
