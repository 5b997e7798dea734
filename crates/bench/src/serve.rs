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
//!   The response body is JSON-lines (sent as [below](#batching)):
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
//! # Batching
//!
//! Two buffers carry a job's response. The server writes it through one
//! `BufWriter` (std's 8 KiB), so a replayed job leaves in a few writes
//! of whole lines instead of one per event, under one rule: **no event
//! is held while a simulation is in flight.** The buffer is flushed
//! when a simulation is about to start ([`Observer::simulating`]),
//! after every event while one runs, and after `done`. Each event is
//! rendered once, into the `String` that is written and then kept for
//! the `done` result, which is written compact in one pass. The
//! response head goes into the buffer first and leaves with the first
//! batch: when the buffer fills, or at the first flush, or before the
//! wait when the job has to wait for its turn in the queue. The client
//! ([`submit`]) reads through a 64 KiB buffer, so a batch arrives in
//! one read, and moves each line into one reused `String` to validate
//! it there.
//!
//! [`Observer::simulating`]: snoc_core::Observer::simulating
//! [`PointCache`]: snoc_core::PointCache
//! [`SweepPoint`]: snoc_core::SweepPoint

use snoc_core::json::{Floats, Layout::Compact, Layout::Inline, Reader, Value, Writer};
use snoc_core::{Campaign, CampaignResult, CampaignSpec, Observer, PointCache, SweepPoint};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, BufRead, BufReader, BufWriter, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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

    /// Waits for this job's turn; `waiting` runs first when the turn
    /// has not come yet.
    fn enter(&self, waiting: impl FnOnce()) -> JobTicket<'_> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let mut serving = self.serving.lock().expect("job queue");
        if *serving != ticket {
            drop(serving);
            waiting();
            serving = self.serving.lock().expect("job queue");
        }
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
        // Each handler thread is started before its connection arrives
        // and waits in `accept` itself, so a request wakes the thread
        // that serves it: no spawn and no hand-off on its path. The
        // next one starts as soon as this one has its connection.
        let listener = Arc::new(self.listener);
        loop {
            let (accepted, next) = mpsc::channel();
            let (listener, state) = (Arc::clone(&listener), Arc::clone(&self.state));
            let timeout = self.client_timeout;
            thread::spawn(move || match listener.accept() {
                Err(e) => drop(accepted.send(Err(e))),
                Ok((stream, _)) => {
                    let _ = accepted.send(Ok(()));
                    // Best-effort: a socket that rejects timeouts still
                    // gets served, it just keeps the old pin-forever
                    // behavior.
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                    // A dropped (or timed-out) client connection only
                    // cancels that reply.
                    let _ = handle(stream, &state);
                }
            });
            next.recv().expect("the acceptor reports")?;
        }
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

/// An answer that ends a request before it is dispatched.
struct Refusal {
    status: u16,
    reason: &'static str,
    error: String,
}

/// Reads one HTTP line (the request line or a header, `what`),
/// newline included; empty at the end of the stream. A line the server
/// cannot take is the [`Refusal`] naming it: 431 past [`MAX_LINE`]
/// bytes without a newline, 400 when it is not UTF-8.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    what: &str,
) -> io::Result<Result<String, Refusal>> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE)
        .read_until(b'\n', &mut line)?;
    if n as u64 == MAX_LINE && !line.ends_with(b"\n") {
        return Ok(Err(Refusal {
            status: 431,
            reason: "Request Header Fields Too Large",
            error: "header line too long".to_string(),
        }));
    }
    Ok(String::from_utf8(line).map_err(|e| Refusal {
        status: 400,
        reason: "Bad Request",
        error: format!(
            "{what} is not UTF-8: invalid byte at {at}",
            at = e.utf8_error().valid_up_to()
        ),
    }))
}

/// Reads one HTTP request, dispatches, writes one response.
fn handle(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let refused = |stream: &mut TcpStream, r: Refusal| refuse(stream, r.status, r.reason, &r.error);
    let request = match read_line_bounded(&mut reader, "request line")? {
        Ok(line) => line,
        Err(refusal) => return refused(&mut stream, refusal),
    };
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    // The raw value when it is not a byte count; `None` until a header
    // names it.
    let mut content_length: Option<Result<u64, String>> = None;
    // Differing `Content-Length` values leave the body's end unknown
    // (RFC 9112 §6.3): refused before any of the body is read.
    let mut conflicting = false;
    loop {
        let header = match read_line_bounded(&mut reader, "header line")? {
            Ok(line) => line,
            Err(refusal) => return refused(&mut stream, refusal),
        };
        if header.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                let length = value.parse().map_err(|_| value.to_string());
                conflicting |= content_length.as_ref().is_some_and(|seen| *seen != length);
                content_length = Some(length);
            }
        }
    }
    if conflicting {
        let msg = "conflicting Content-Length headers";
        return refuse(&mut stream, 400, "Bad Request", msg);
    }
    match (method.as_str(), path.as_str()) {
        ("POST", "/campaign") => {
            let length = match content_length.unwrap_or(Ok(0)) {
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
    take_server_fields(&mut spec, state.threads);
    let mut campaign = match Campaign::from_spec(&spec) {
        Ok(c) => c,
        Err(e) => return refuse(stream, 400, "Bad Request", &e.to_string()),
    };
    if let Some(cache) = &state.cache {
        campaign = campaign.with_cache(Arc::clone(cache));
    }
    let events = Events::new(&mut *stream);
    events.send(|out| out.write_all(head(200, "OK").as_bytes()));
    let result = {
        let _turn = state.queue.enter(|| events.send(BufWriter::flush));
        campaign.run_streamed(&events)
    };
    state.jobs_done.fetch_add(1, Ordering::Relaxed);
    let mut stream = events.0.into_inner().expect("stream lock");
    if let Err(e) = stream.sent {
        // The client hung up: what is left in the buffer has nowhere
        // to go.
        drop(stream.out.into_parts());
        return Err(e);
    }
    // The last events go out while `done` is rendered.
    stream.out.flush()?;
    let done = stream.done(&result);
    stream.out.write_all(done.as_bytes())?;
    stream.out.flush()
}

/// Overwrites the fields the server owns, whatever the client sent.
/// The server's cache, or none, is authoritative: every client shares
/// it, and no client names a path the server opens. So are its worker
/// threads: a request that named its own count could make the server
/// spawn one OS thread per curve it lists.
fn take_server_fields(spec: &mut CampaignSpec, threads: usize) {
    spec.cache_dir = None;
    spec.threads = threads;
}

/// A job's events on their way to its client, batched by the rule of
/// the [module docs](self#batching).
struct Events<W: Write>(Mutex<Stream<W>>);

struct Stream<W: Write> {
    out: BufWriter<W>,
    /// Simulations announced whose point is not written yet.
    in_flight: usize,
    /// The first failed write. The client hung up: nothing more is
    /// written, and the job still fills the cache.
    sent: io::Result<()>,
    /// Each point's event by point seed, with where its point line
    /// stands in it, for the `done` result: a point is rendered once.
    /// `exact` falls when two different lines come in under one seed (a
    /// bisection landing on a grid load, a hash collision): the result
    /// is then rendered afresh.
    lines: HashMap<u64, (String, Range<usize>)>,
    exact: bool,
}

impl<W: Write> Events<W> {
    fn new(out: W) -> Self {
        Events(Mutex::new(Stream {
            out: BufWriter::new(out),
            in_flight: 0,
            sent: Ok(()),
            lines: HashMap::new(),
            exact: true,
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Stream<W>> {
        self.0.lock().expect("stream lock")
    }

    /// Writes through the buffer unless a write already failed.
    fn send(&self, write: impl FnOnce(&mut BufWriter<W>) -> io::Result<()>) {
        self.lock().send(write);
    }
}

impl<W: Write> Stream<W> {
    /// The `done` event, its result compact in one pass and each point's
    /// line as it was streamed.
    fn done(&self, result: &CampaignResult) -> String {
        let kept = |point: &SweepPoint| match self.lines.get(&point.seed) {
            Some((event, at)) if self.exact => Cow::Borrowed(&event[at.clone()]),
            _ => Cow::Owned(point.to_json_line()),
        };
        let mut done = Writer::new(FLOATS);
        // The streamed lines and what surrounds them, in one allocation.
        done.reserve(
            self.lines
                .values()
                .map(|(_, at)| at.len() + 1)
                .sum::<usize>()
                + 1024,
        );
        done.object(Inline)
            .field("event", "done")
            .field("cache_hits", result.cache_hits)
            .field("cache_misses", result.cache_misses)
            .key("result");
        result.write_json_with(&mut done, Compact, kept);
        let mut done = done.finish();
        done.push('\n');
        done
    }

    fn send(&mut self, write: impl FnOnce(&mut BufWriter<W>) -> io::Result<()>) {
        if self.sent.is_ok() {
            self.sent = write(&mut self.out);
        }
    }
}

impl<W: Write + Send> Observer for Events<W> {
    fn simulating(&self) {
        let mut stream = self.lock();
        stream.in_flight += 1;
        stream.send(BufWriter::flush);
    }

    fn point(&self, point: &SweepPoint, simulated: bool) {
        let mut event = Writer::new(FLOATS);
        event.object(Inline).field("event", "point").key("point");
        let start = event.written();
        point.write_json(&mut event);
        let line = start..event.written();
        let mut event = event.finish();
        event.push('\n');
        let mut stream = self.lock();
        stream.in_flight -= usize::from(simulated);
        let flush = stream.in_flight > 0;
        stream.send(|out| {
            out.write_all(event.as_bytes())?;
            if flush {
                out.flush()?;
            }
            Ok(())
        });
        let Stream { lines, exact, .. } = &mut *stream;
        match lines.entry(point.seed) {
            Entry::Vacant(slot) => drop(slot.insert((event, line))),
            Entry::Occupied(kept) => {
                let (kept, at) = kept.get();
                *exact &= kept[at.clone()] == event[line];
            }
        }
    }
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
fn one_field(key: &'static str, value: impl Value) -> String {
    let mut w = Writer::new(FLOATS);
    w.object(Inline).field(key, value);
    w.finish()
}

/// Answers with `status` and an `{"error": …}` body naming the problem.
fn refuse(stream: &mut TcpStream, status: u16, reason: &str, error: &str) -> io::Result<()> {
    respond(stream, status, reason, &one_field("error", error))
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

/// The client's read buffer: a batch, or the 55 KB `done` line of a
/// warm 120-point replay, comes in one read, where std's 8 KiB default
/// takes seven for that line.
const READ_BUFFER: usize = 64 << 10;

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
    // One write: the head and the body leave together.
    let request = format!(
        "POST /campaign HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{spec_json}",
        spec_json.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    // Every line of the response goes through this one buffer.
    let mut line = String::new();
    if !next_line(&mut reader, &mut line)? {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
    }
    let status = line.clone();
    let ok = status.split_whitespace().nth(1) == Some("200");
    // Skip response headers.
    while next_line(&mut reader, &mut line)? && !line.is_empty() {}
    let mut outcome = SubmitOutcome::default();
    let mut done = false;
    while next_line(&mut reader, &mut line)? {
        if line.is_empty() {
            continue;
        }
        if !ok {
            return Err(io::Error::other(format!("server: {status}: {line}")));
        }
        on_line(&line);
        let event = read_event(&line)
            .map_err(|e| io::Error::other(format!("bad stream line: {e}: {line}")))?;
        match event.name.as_deref() {
            Some("point") => outcome.points += 1,
            Some("done") => {
                outcome.cache_hits = event.hits.unwrap_or(0);
                outcome.cache_misses = event.misses.unwrap_or(0);
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

/// Reads the next line into `line`, as `BufRead::lines` yields it: the
/// newline and a `\r` before it dropped, and an error for a line that
/// is not UTF-8. `false` at the end of the stream.
fn next_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<bool> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Ok(false);
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    Ok(true)
}

/// What [`submit`] reads of a stream line: the event name and the two
/// counters, each a field's first occurrence (as `JsonValue::get` had
/// it). The rest of the line — a 100 KB result — is validated, never
/// built.
#[derive(Debug, Default, PartialEq)]
struct Event<'a> {
    name: Option<Cow<'a, str>>,
    hits: Option<u64>,
    misses: Option<u64>,
}

/// Reads one stream line: a JSON object and nothing after it.
fn read_event(line: &str) -> Result<Event<'_>, String> {
    let mut event = Event::default();
    let count = |r: &mut Reader<'_>| r.number()?.parse::<u64>().map_err(|e| e.to_string());
    let mut reader = Reader::new(line);
    reader.object(|r, key| match &*key {
        "event" if event.name.is_none() => r.string().map(|name| event.name = Some(name)),
        "cache_hits" if event.hits.is_none() => count(r).map(|n| event.hits = Some(n)),
        "cache_misses" if event.misses.is_none() => count(r).map(|n| event.misses = Some(n)),
        _ => r.skip(),
    })?;
    reader.finish().map(|()| event)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snoc_core::SetupSpec;
    use snoc_power::TechNode;
    use snoc_traffic::TrafficPattern;
    use std::sync::OnceLock;

    /// A client socket that keeps every `write` apart.
    #[derive(Default)]
    struct Recording(Vec<Vec<u8>>);

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn point(i: u64) -> SweepPoint {
        SweepPoint {
            setup: "sn54".to_string(),
            pattern: "RND".to_string(),
            load: 0.01 * (i + 1) as f64,
            seed: i,
            latency: 20.0 + i as f64 / 3.0,
            p99_latency: 40 + i,
            throughput: 0.01 * i as f64,
            avg_hops: 1.75,
            acceptance: 1.0,
            delivered_packets: 100 * i,
            dropped_packets: 0,
            saturated: false,
            drained: true,
            refined: false,
            power: None,
        }
    }

    /// One observer call of the script.
    enum Step {
        Simulating,
        /// Point `i`, simulated or replayed.
        Point(u64, bool),
    }

    #[test]
    fn the_server_owns_the_cache_and_the_worker_threads() {
        let mut spec = CampaignSpec::new("client");
        spec.cache_dir = Some("/client/named".to_string());
        spec.threads = 50_000;
        take_server_fields(&mut spec, 2);
        assert_eq!((spec.cache_dir, spec.threads), (None, 2));
    }

    #[test]
    fn no_event_waits_behind_a_simulation_and_batches_are_whole_lines() {
        use Step::{Point, Simulating};
        // Replays before any simulation; two simulations overlapping
        // with replays between them; then a long run of replays that
        // spans several buffers.
        let mut script = vec![
            Point(0, false),
            Point(1, false),
            Simulating,
            Point(2, false),
        ];
        script.extend([Simulating, Point(3, true), Point(4, false), Point(5, true)]);
        script.extend((6..200).map(|i| Point(i, false)));
        script.extend([Simulating, Point(200, true), Point(201, false)]);
        let events = Events::new(Recording::default());
        let mut in_flight = 0;
        let mut per_event = Vec::new();
        for step in &script {
            match *step {
                Simulating => {
                    in_flight += 1;
                    events.simulating();
                }
                Point(i, simulated) => {
                    in_flight -= usize::from(simulated);
                    events.point(&point(i), simulated);
                    let line = point(i).to_json_line();
                    per_event
                        .extend(format!("{{\"event\": \"point\", \"point\": {line}}}\n").bytes());
                }
            }
            let held = events.lock().out.buffer().len();
            let announced = matches!(step, Simulating);
            assert!(
                held == 0 || in_flight == 0 && !announced,
                "{held} bytes held"
            );
        }
        let mut stream = events.0.into_inner().unwrap();
        stream.sent.unwrap();
        stream.out.flush().unwrap();
        let writes = stream.out.into_inner().map_err(drop).unwrap().0;
        assert!(writes.len() < script.len() / 4, "{} writes", writes.len());
        for write in &writes {
            assert!(write.len() <= 8 << 10 && write.ends_with(b"\n"));
        }
        assert_eq!(writes.concat(), per_event);
        assert_eq!(stream.lines.len(), 202);
        assert!(stream.exact);
    }
    /// The lines a 45 nm campaign streams: its point events in
    /// completion order, then its `done` event.
    fn stream_lines() -> &'static [String] {
        static LINES: OnceLock<Vec<String>> = OnceLock::new();
        LINES.get_or_init(|| {
            let mut spec = CampaignSpec::new("stream");
            spec.setups = vec![SetupSpec::new("sn_s"), SetupSpec::new("t2d3")];
            spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
            spec.loads = vec![0.01, 0.05, 0.3];
            (spec.warmup, spec.measure) = (20, 60);
            spec.refine_rounds = 1;
            spec.power_tech = Some(TechNode::N45);
            let events = Events::new(Recording::default());
            let result = Campaign::from_spec(&spec).unwrap().run_streamed(&events);
            let stream = events.0.into_inner().unwrap();
            let done = stream.done(&result);
            let written = stream.out.into_inner().map_err(drop).unwrap().0.concat();
            let text = String::from_utf8(written).unwrap() + &done;
            text.lines().map(str::to_string).collect()
        })
    }

    /// What [`read_event`] returns, owned.
    type Verdict = Result<(Option<String>, Option<u64>, Option<u64>), String>;

    fn verdict(line: &str) -> Verdict {
        read_event(line).map(|e| (e.name.map(Cow::into_owned), e.hits, e.misses))
    }

    /// The stream-line reader as it stood before the bulk skips: one
    /// byte at a time, recursing once per container, every string
    /// unescaped into a copy. Its verdicts and messages are the ones
    /// [`read_event`] must give.
    struct ByteReader<'a> {
        text: &'a str,
        pos: usize,
        depth: usize,
    }

    impl ByteReader<'_> {
        fn byte(&self, at: usize) -> Option<u8> {
            self.text.as_bytes().get(at).copied()
        }

        fn peek(&mut self) -> Option<u8> {
            while matches!(self.byte(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            self.byte(self.pos)
        }

        fn next_value(&mut self) -> Result<u8, String> {
            let (next, pos) = (self.peek(), self.pos);
            match next {
                _ if self.depth > 64 => Err(format!("nesting deeper than 64 at byte {pos}")),
                None => Err("unexpected end of input".to_string()),
                Some(c) => Ok(c),
            }
        }

        fn unexpected(&self, c: u8) -> String {
            format!("unexpected byte {c:#04x} at {pos}", pos = self.pos)
        }

        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(format!("expected `{lit}` at byte {pos}", pos = self.pos))
            }
        }

        fn number(&mut self) -> Result<&str, String> {
            let start = self.pos;
            let in_run = |c: u8| matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
            let digits = |r: &Self, at: &mut usize| {
                let from = *at;
                while r.byte(*at).is_some_and(|c| c.is_ascii_digit()) {
                    *at += 1;
                }
                *at - from
            };
            let mut at = start + usize::from(matches!(self.byte(start), Some(b'+' | b'-')));
            let mut mantissa = digits(self, &mut at);
            if self.byte(at) == Some(b'.') {
                at += 1;
                mantissa += digits(self, &mut at);
            }
            let mut end = (mantissa > 0).then_some(at);
            if end.is_some() && matches!(self.byte(at), Some(b'e' | b'E')) {
                at += 1;
                at += usize::from(matches!(self.byte(at), Some(b'+' | b'-')));
                end = (digits(self, &mut at) > 0).then_some(at);
            }
            match end {
                Some(end) if !self.byte(end).is_some_and(in_run) => {
                    self.pos = end;
                    Ok(&self.text[start..end])
                }
                _ => {
                    let mut run = start;
                    while self.byte(run).is_some_and(in_run) {
                        run += 1;
                    }
                    let raw = &self.text[start..run];
                    Err(format!("bad number `{raw}` at byte {start}"))
                }
            }
        }

        fn quoted(&mut self) -> Result<String, String> {
            self.pos += 1;
            let mut out = String::new();
            loop {
                match self.byte(self.pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        out.push(match self.byte(self.pos) {
                            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
                            Some(b'n') => '\n',
                            Some(b't') => '\t',
                            Some(b'r') => '\r',
                            Some(b'b') => '\u{8}',
                            Some(b'f') => '\u{c}',
                            Some(b'u') => {
                                let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5);
                                let hex = hex.ok_or("truncated \\u escape")?;
                                let code = hex
                                    .iter()
                                    .try_fold(0, |code, &c| {
                                        Some(code << 4 | char::from(c).to_digit(16)?)
                                    })
                                    .ok_or("bad \\u escape: expected four hex digits")?;
                                self.pos += 4;
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        });
                        self.pos += 1;
                    }
                    Some(_) => {
                        let c = self.text[self.pos..].chars().next().expect("a character");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn members(
            &mut self,
            close: u8,
            mut each: impl FnMut(&mut Self) -> Result<(), String>,
        ) -> Result<(), String> {
            self.pos += 1;
            if self.peek() != Some(close) {
                self.depth += 1;
                loop {
                    each(self)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(c) if c == close => break,
                        _ => {
                            let (close, pos) = (close as char, self.pos);
                            return Err(format!("expected `,` or `{close}` at byte {pos}"));
                        }
                    }
                }
                self.depth -= 1;
            }
            self.pos += 1;
            Ok(())
        }

        fn fields(
            &mut self,
            mut field: impl FnMut(&mut Self, String) -> Result<(), String>,
        ) -> Result<(), String> {
            self.members(b'}', |r| {
                if r.peek() != Some(b'"') {
                    return Err(format!("expected object key at byte {pos}", pos = r.pos));
                }
                let key = r.quoted()?;
                if r.peek() != Some(b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = r.pos));
                }
                r.pos += 1;
                field(r, key)
            })
        }

        fn skip(&mut self) -> Result<(), String> {
            match self.next_value()? {
                b'"' => self.quoted().map(drop),
                b'0'..=b'9' | b'-' => self.number().map(drop),
                b'{' => self.fields(|r, _| r.skip()),
                b'[' => self.members(b']', Self::skip),
                b't' => self.literal("true"),
                b'f' => self.literal("false"),
                b'n' => self.literal("null"),
                c => Err(self.unexpected(c)),
            }
        }

        /// A value that must start with one of `first`.
        fn start(&mut self, first: &[u8]) -> Result<(), String> {
            match self.next_value()? {
                c if first.contains(&c) => Ok(()),
                c => Err(self.unexpected(c)),
            }
        }
    }

    /// [`read_event`] by the byte-at-a-time reader.
    fn by_bytes(line: &str) -> Verdict {
        let mut r = ByteReader {
            text: line,
            pos: 0,
            depth: 0,
        };
        let (mut name, mut hits, mut misses) = (None, None, None);
        let count = |r: &mut ByteReader<'_>| {
            r.start(b"0123456789-")?;
            r.number()?.parse::<u64>().map_err(|e| e.to_string())
        };
        r.start(b"{")?;
        r.fields(|r, key| match key.as_str() {
            "event" if name.is_none() => {
                r.start(b"\"")?;
                r.quoted().map(|n| name = Some(n))
            }
            "cache_hits" if hits.is_none() => count(r).map(|n| hits = Some(n)),
            "cache_misses" if misses.is_none() => count(r).map(|n| misses = Some(n)),
            _ => r.skip(),
        })?;
        match r.peek() {
            None => Ok((name, hits, misses)),
            Some(_) => Err(format!("trailing data at byte {pos}", pos = r.pos)),
        }
    }

    /// One edit of `line` that keeps it UTF-8: a byte flipped to another
    /// ASCII byte, a cut, a character dropped, or one inserted from the
    /// bytes a reader must stop at.
    fn mutate(line: &mut String, rng: &mut TestRng) {
        const INSERTS: [&str; 16] = [
            "\"", "\\", "\u{1}", "\u{1f}", "\t", "\n", "é", "日", "🦀", "{", "[", ",", ":", "-",
            "e", " ",
        ];
        let boundaries: Vec<usize> = line.char_indices().map(|(at, _)| at).collect();
        let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n as u64) as usize;
        let at = match boundaries.len() {
            0 => 0,
            n => boundaries[pick(rng, n)],
        };
        match rng.next_u64() % 4 {
            0 if line.as_bytes().get(at).is_some_and(u8::is_ascii) => {
                let c = char::from((rng.next_u64() % 0x80) as u8);
                line.replace_range(at..=at, c.encode_utf8(&mut [0; 4]));
            }
            1 => line.truncate(at),
            2 if at < line.len() => drop(line.remove(at)),
            _ => line.insert_str(at, INSERTS[pick(rng, INSERTS.len())]),
        }
    }

    #[test]
    fn the_stream_lines_read_as_they_did_byte_at_a_time() {
        let lines = stream_lines();
        assert!(lines.len() > 10 && lines.last().unwrap().contains("slim_noc-sweep-v2"));
        for line in lines {
            assert_eq!(verdict(line), by_bytes(line), "{line}");
            assert!(verdict(line).is_ok(), "{line}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_line_validator_gives_the_byte_at_a_time_verdicts(seed in 0u64..u64::MAX) {
            let lines = stream_lines();
            let mut rng = TestRng::from_name(&seed.to_string());
            for _ in 0..16 {
                let mut line = lines[(rng.next_u64() % lines.len() as u64) as usize].clone();
                for _ in 0..1 + rng.next_u64() % 3 {
                    mutate(&mut line, &mut rng);
                }
                let (fast, slow) = (verdict(&line), by_bytes(&line));
                prop_assert!(fast == slow, "{fast:?} != {slow:?} on `{line}`");
            }
        }
    }

    #[test]
    fn next_line_yields_what_lines_yields() {
        let text = b"a\r\nb\n\nc\r\r\nlast".to_vec();
        let mut bad = text.clone();
        bad.extend_from_slice(b"\n\xff\xfe\nafter\n");
        for bytes in [text, bad] {
            let mut want = io::Cursor::new(&bytes).lines();
            let (mut reader, mut line) = (io::Cursor::new(&bytes), String::new());
            loop {
                let got = next_line(&mut reader, &mut line);
                match (got, want.next()) {
                    (Ok(false), None) => break,
                    (Ok(true), Some(Ok(expected))) => assert_eq!(line, expected),
                    (Err(e), Some(Err(expected))) => {
                        assert_eq!(
                            (e.kind(), e.to_string()),
                            (expected.kind(), expected.to_string())
                        );
                        break;
                    }
                    (got, expected) => panic!("{got:?} against {expected:?}"),
                }
            }
        }
    }
}
