//! `served_mix`: a closed loop of one client against the campaign
//! server, replaying and widening a pre-filled point store.

use crate::campaign::{campaign_twin, run_timed};
use crate::inputs::{self, Request};
use crate::timing::Stopwatch;
use crate::trace::{Layer, Recorder};
use crate::workload::{Counts, Env, Pass, Twin, Workload};
use snoc_bench::serve::{submit, Server};
use snoc_core::json::{self, JsonValue};
use snoc_core::{CachedPoint, Campaign, CampaignSpec, PointCache};
use std::fs;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The store file inside a cache directory (`snoc_core::cache`).
const STORE_FILE: &str = "points.jsonl";

/// A pre-filled point store: seeded filler lines plus the base grid,
/// simulated cold into it. Passes serve from fresh copies.
pub struct Template {
    pub dir: PathBuf,
    pub base_spec: String,
    /// The cold run's result, compacted as the server sends it.
    pub base_result: String,
    pub base_points: usize,
    pub lines: usize,
    /// `(op id, seconds)` of the pre-fill run's points.
    pub prefill_ops: Vec<(String, f64)>,
}

impl Template {
    pub fn build(env: &mut Env) -> Result<Self, String> {
        let io = |what: &str, e: std::io::Error| format!("served_mix: {what}: {e}");
        let dir = env.fresh_dir("served_mix.template");
        let base_spec =
            fs::read_to_string(env.paths.served_base()).map_err(|e| io("read base spec", e))?;
        let keys = fs::read_to_string(env.paths.served_filler_keys())
            .map_err(|e| io("read filler keys", e))?;
        let lines = {
            let cache = PointCache::open(&dir).map_err(|e| io("open template", e))?;
            let filler = CachedPoint {
                latency: 17.25,
                p99_latency: 41,
                throughput: 0.03,
                avg_hops: 1.9,
                acceptance: 1.0,
                delivered_packets: 1_234,
                dropped_packets: 0,
                injected_packets: 1_234,
                drained: true,
                power: None,
            };
            for key in keys.lines() {
                cache.put(key, &filler).map_err(|e| io("put filler", e))?;
            }
            cache.len()
        };
        let spec = CampaignSpec::from_json(&base_spec).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let campaign = Campaign::from_spec(&spec)
            .map_err(|e| e.to_string())?
            .with_cache_dir(&dir)
            .map_err(|e| io("attach template", e))?;
        let (cold, seen) = run_timed(&campaign, start);
        if cold.cache_hits != 0 {
            return Err("served_mix: the pre-fill run was not cold".to_string());
        }
        Ok(Template {
            dir,
            base_spec,
            base_result: json::compact(&cold.to_json()),
            base_points: cold.points.len(),
            lines: lines + cold.points.len(),
            prefill_ops: seen.ops,
        })
    }

    /// Copies the store into a fresh cache directory.
    pub fn copy_to(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::copy(self.dir.join(STORE_FILE), dir.join(STORE_FILE)).map(|_| ())
    }
}

/// Starts a campaign server (one job thread) on a fresh copy of the
/// template and returns its address. `Server` has no shutdown: its
/// accept loop is left parked on a detached thread until exit.
pub fn start_server(template: &Template, dir: &Path) -> std::io::Result<String> {
    template.copy_to(dir)?;
    let dir = dir.to_str().expect("scratch paths are UTF-8");
    let server = Server::bind("127.0.0.1:0", Some(dir), 1)?;
    let addr = server.local_addr()?.to_string();
    std::thread::spawn(move || {
        let _ = server.run();
    });
    Ok(addr)
}

/// One `GET`, returning the body of a 200 response.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    if head.split_whitespace().nth(1) != Some("200") {
        return Err(std::io::Error::other(format!(
            "GET {path}: {}",
            head.lines().next().unwrap_or("")
        )));
    }
    Ok(body.trim_end().to_string())
}

/// What one streamed submission returned.
pub struct Served {
    /// Submission start to the first `point` event, in seconds.
    pub first_point_s: Option<f64>,
    pub points: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The `done` event's compacted result object.
    pub result: String,
}

/// Submits a spec and reads the stream to its `done` event.
pub fn submit_timed(addr: &str, spec_text: &str) -> std::io::Result<Served> {
    let start = Instant::now();
    let mut first_point_s = None;
    let mut result = None;
    let outcome = submit(addr, spec_text, |line| {
        if line.starts_with("{\"event\": \"point\"") {
            first_point_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
        } else if line.starts_with("{\"event\": \"done\"") {
            result = line
                .split_once("\"result\": ")
                .and_then(|(_, rest)| rest.strip_suffix('}'))
                .map(str::to_string);
        }
    })?;
    Ok(Served {
        first_point_s,
        points: outcome.points,
        cache_hits: outcome.cache_hits,
        cache_misses: outcome.cache_misses,
        result: result.ok_or_else(|| std::io::Error::other("done event without a result"))?,
    })
}

/// What one request of the schedule came back with.
enum Reply {
    Campaign(Served),
    Stats(String),
}

pub struct ServedMix {
    template: Template,
    schedule: Vec<Request>,
    widened_specs: Vec<String>,
    /// In-process results of the widened specs, computed on first use
    /// (checking, not set-up).
    widened_results: Option<Vec<String>>,
    window: u64,
    /// Points a widened submission simulates: its new load, once per
    /// setup and pattern.
    widened_misses: u64,
    /// Scratch directories for per-pass store copies.
    pass_dirs: Vec<PathBuf>,
}

impl ServedMix {
    pub fn setup(env: &mut Env) -> Result<Self, String> {
        let template = Template::build(env)?;
        let schedule =
            inputs::read_schedule(&env.paths).map_err(|e| format!("served_mix: schedule: {e}"))?;
        let widened_specs = (0..inputs::WIDENED)
            .map(|k| fs::read_to_string(env.paths.served_widened(k)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("served_mix: read widened spec: {e}"))?;
        let spec = CampaignSpec::from_json(&template.base_spec).map_err(|e| e.to_string())?;
        // Two store copies per pass or twin; named up front so passes
        // never touch `env`.
        let pass_dirs = (0..2).map(|_| env.fresh_dir("served_mix.pass")).collect();
        Ok(ServedMix {
            template,
            schedule,
            widened_specs,
            widened_results: None,
            window: spec.warmup + spec.measure,
            widened_misses: (spec.setups.len() * spec.patterns.len()) as u64,
            pass_dirs,
        })
    }

    fn spec_of(&self, request: Request) -> Option<&str> {
        match request {
            Request::Warm => Some(&self.template.base_spec),
            Request::Widened(k) => Some(&self.widened_specs[k]),
            Request::Stats => None,
        }
    }

    /// A widened spec's result, in process and without the server: on
    /// `cache` when given (its base points replayed), else cold.
    fn run_widened(text: &str, cache: Option<&Arc<PointCache>>) -> String {
        let spec = CampaignSpec::from_json(text).expect("generated spec parses");
        let mut campaign = Campaign::from_spec(&spec).expect("generated spec builds");
        if let Some(cache) = cache {
            campaign = campaign.with_cache(Arc::clone(cache));
        }
        json::compact(&campaign.run().to_json())
    }

    /// The bytes a submission must return. A warm resubmission: what the
    /// base spec yielded cold, in process, when it filled the template.
    /// A widened one: what its spec yields in process on a `PointCache`
    /// over a store copy of its own (`selfcheck` adds the cold run).
    fn reference_of(&mut self, request: Request) -> Result<&str, String> {
        if self.widened_results.is_none() {
            let dir = &self.pass_dirs[1];
            let io = |e: std::io::Error| format!("reference store: {e}");
            self.template.copy_to(dir).map_err(io)?;
            let cache = Arc::new(PointCache::open(dir).map_err(io)?);
            let run = |text: &String| Self::run_widened(text, Some(&cache));
            self.widened_results = Some(self.widened_specs.iter().map(run).collect());
            let _ = fs::remove_dir_all(dir);
        }
        Ok(match request {
            Request::Warm => &self.template.base_result,
            Request::Widened(k) => &self.widened_results.as_ref().expect("filled above")[k],
            Request::Stats => unreachable!("stats requests carry no campaign result"),
        })
    }
}

impl Workload for ServedMix {
    fn setup_ops(&self) -> &[(String, f64)] {
        &self.template.prefill_ops
    }

    fn pass(&mut self) -> Pass {
        let dir = self.pass_dirs[0].clone();
        let sw = Stopwatch::start();
        let start = sw.wall_start();
        let mut ops = Vec::with_capacity(self.schedule.len());
        let mut replies = Vec::with_capacity(self.schedule.len());
        let mut first_op_s = None;
        let started = start_server(&self.template, &dir).map(|addr| {
            for &request in &self.schedule {
                let t = Instant::now();
                let reply = match self.spec_of(request) {
                    Some(spec) => submit_timed(&addr, spec).map(|served| {
                        if let (None, Some(gap)) = (first_op_s, served.first_point_s) {
                            first_op_s = Some((t - start).as_secs_f64() + gap);
                        }
                        Reply::Campaign(served)
                    }),
                    None => http_get(&addr, "/stats").map(Reply::Stats),
                };
                ops.push((request.op_key().to_string(), t.elapsed().as_secs_f64()));
                replies.push(reply);
            }
        });
        let (wall_s, cpu_s) = sw.stop();
        let _ = fs::remove_dir_all(&dir);

        let mut failures = Vec::new();
        let mut result = String::new();
        let (mut window_cycles, mut jobs) = (0, 0);
        if let Err(e) = started {
            ops.push(("server".to_string(), wall_s));
            failures.push(format!("server start: {e}"));
        }
        for (i, reply) in replies.into_iter().enumerate() {
            let request = self.schedule[i];
            let mut fail = |why: String| failures.push(format!("request {i} ({request:?}): {why}"));
            match reply {
                Err(e) => fail(e.to_string()),
                Ok(Reply::Campaign(served)) => {
                    jobs += 1;
                    window_cycles += served.points * self.window;
                    // A warm resubmission replays everything; a widened
                    // one simulates its new load on every curve.
                    let (want_misses, want_points) = match request {
                        Request::Warm => (0, self.template.base_points as u64),
                        _ => (self.widened_misses, served.points),
                    };
                    if served.cache_misses != want_misses
                        || served.cache_hits + served.cache_misses != served.points
                        || served.points != want_points
                    {
                        fail(format!(
                            "{} points, {} hits, {} misses (expected {want_misses} misses)",
                            served.points, served.cache_hits, served.cache_misses
                        ));
                    } else {
                        match self.reference_of(request) {
                            Ok(want) if want == served.result => {}
                            Ok(_) => {
                                fail("served bytes differ from the in-process run".to_string())
                            }
                            Err(e) => fail(e),
                        }
                    }
                    result.push_str(&served.result);
                    result.push('\n');
                }
                Ok(Reply::Stats(stats)) => {
                    let done = json::parse(&stats)
                        .ok()
                        .and_then(|v| v.get("jobs_done").and_then(JsonValue::as_u64));
                    if done != Some(jobs) {
                        fail(format!("stats `{stats}` after {jobs} jobs"));
                    }
                }
            }
        }
        Pass {
            wall_s,
            cpu_s,
            first_op_s: first_op_s.unwrap_or(wall_s),
            ops,
            window_cycles,
            result,
            failed_ops: failures.len(),
            failures,
        }
    }

    /// The schedule replayed in process against a `PointCache` opened on
    /// its own store copy, then served once for the framing: a request's
    /// serve time minus its in-process time is `bench.serve`'s share.
    fn twin(&mut self, rec: &mut Recorder) -> Result<Twin, String> {
        let dir = self.pass_dirs[1].clone();
        let root = rec.open("twin.pass", Layer::Root, None);
        self.template
            .copy_to(&dir)
            .map_err(|e| format!("served_mix twin: copy store: {e}"))?;
        let (_, cache) = rec.time("core.cache.open", Layer::CoreCache, root, || {
            PointCache::open(&dir)
        });
        let cache = cache.map_err(|e| format!("served_mix twin: open store: {e}"))?;
        let mut total = Twin {
            root,
            result: String::new(),
            counts: Counts::default(),
            cache_hits: 0,
            cache_misses: 0,
            failures: Vec::new(),
        };
        let mut in_process_s = Vec::with_capacity(self.schedule.len());
        for &request in &self.schedule {
            let Some(spec) = self.spec_of(request) else {
                in_process_s.push(0.0);
                continue;
            };
            let beside_before = rec.beside_s();
            let at = rec.open("request", Layer::Root, Some(root));
            let twin = campaign_twin(spec, Some(&cache), rec, at)?;
            let (_, compacted) = rec.time("core.json.compact", Layer::CoreSpecJson, at, || {
                json::compact(&twin.result)
            });
            rec.close(at);
            in_process_s.push(rec.duration_s(at) - (rec.beside_s() - beside_before));
            total.result.push_str(&compacted);
            total.result.push('\n');
            total.counts += twin.counts;
            total.cache_hits += twin.cache_hits;
            total.cache_misses += twin.cache_misses;
            total.failures.extend(twin.failures);
        }
        rec.close(root);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
        let served = self.pass();
        total.failures.extend(served.failures);
        for ((_, served_s), in_process_s) in served.ops.iter().zip(in_process_s) {
            rec.append(
                "bench.serve.request",
                Layer::BenchServe,
                root,
                served_s - in_process_s,
            );
        }
        Ok(total)
    }

    /// Warm ≡ cold for the widened specs too: each one run cold, without
    /// any cache, must give the bytes its cache-backed reference gave.
    fn cross_checks(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for k in 0..self.widened_specs.len() {
            let cold = Self::run_widened(&self.widened_specs[k], None);
            match self.reference_of(Request::Widened(k)) {
                Ok(warm) if warm == cold => {}
                Ok(_) => failures.push(format!("widened-{k}: warm and cold bytes differ")),
                Err(e) => failures.push(e),
            }
        }
        failures
    }
}
