//! Content-addressed campaign point cache.
//!
//! Every simulated sweep point is fully determined by its *coordinate*:
//! the setup recipe, the traffic pattern, the exact load bits, the
//! simulation windows, the campaign base seed, and the power technology
//! node (per-point seeds are derived from exactly these, see
//! [`Campaign::point_seed`](crate::Campaign::point_seed)). A
//! [`PointCache`] keys each point by a 128-bit hash of that coordinate
//! salted with [`ENGINE_VERSION`], and persists the measured scalars as
//! JSON-lines under a cache directory.
//!
//! A [`Campaign`](crate::Campaign) with an attached cache
//! ([`Campaign::with_cache_dir`](crate::Campaign::with_cache_dir))
//! consults it before simulating: a widened sweep re-simulates only the
//! points that are genuinely new, and the merged result is
//! **byte-identical** to a cold run of the widened spec — floats are
//! persisted as raw `f64` bit patterns and per-curve state (the
//! zero-load reference latency, saturation flags) is recomputed from
//! the cached scalars through the same
//! [`saturation_heuristic`](snoc_sim::saturation_heuristic) the
//! simulator itself uses.
//!
//! Invalidation is by construction: the salt makes stale entries
//! unreachable (their keys never match), so bumping [`ENGINE_VERSION`]
//! when simulator behavior changes retires an entire cache without
//! deleting files.

use crate::json;
use crate::sweep::PowerPoint;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The engine-version salt mixed into every cache key.
///
/// Bump this whenever simulator behavior changes in a way that alters
/// measured numbers (router pipeline, routing, RNG streams, saturation
/// heuristic, …). Entries written under an older salt remain in the
/// JSONL file but become unreachable — a version bump invalidates a
/// cache without touching the filesystem.
pub const ENGINE_VERSION: &str = "slim_noc-engine-v3";

/// The name of the JSON-lines store inside a cache directory.
const STORE_FILE: &str = "points.jsonl";

/// The spec-derived coordinate of one simulated point — everything the
/// simulation outcome depends on, and nothing it doesn't (thread count
/// and execution order are deliberately absent).
#[derive(Debug, Clone, PartialEq)]
pub struct PointCoord<'a> {
    /// Canonical setup-recipe JSON
    /// ([`SetupSpec::canonical_json`](crate::SetupSpec::canonical_json));
    /// includes the setup *name*, which feeds the per-point seed.
    pub setup_spec: &'a str,
    /// Traffic-pattern short name (`RND`, `ADV1`, …).
    pub pattern: &'a str,
    /// Offered load; hashed by exact bit pattern.
    pub load: f64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Campaign base seed.
    pub base_seed: u64,
    /// Simulation-engine shard count. Only part of the canonical form
    /// when above 1, so keys minted before sharding existed stay valid.
    pub shards: usize,
    /// Power technology node (`45nm`, …) for power-aware campaigns;
    /// `None` for plain latency sweeps.
    pub tech: Option<&'a str>,
}

impl PointCoord<'_> {
    /// The canonical coordinate string that gets hashed into the key.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"setup\": {}, \"pattern\": \"{}\", \"load_bits\": {}, \
             \"warmup\": {}, \"measure\": {}, \"base_seed\": {}",
            self.setup_spec,
            self.pattern,
            self.load.to_bits(),
            self.warmup,
            self.measure,
            self.base_seed,
        );
        if self.shards > 1 {
            let _ = write!(out, ", \"shards\": {}", self.shards);
        }
        if let Some(tech) = self.tech {
            let _ = write!(out, ", \"tech\": \"{tech}\"");
        }
        out.push('}');
        out
    }
}

/// The measured scalars of one point — exactly what is needed to
/// reconstruct its [`SweepPoint`](crate::SweepPoint) bit-for-bit
/// within any (possibly widened) campaign, plus `injected_packets` so
/// the saturation flag can be re-derived against the hosting curve's
/// zero-load reference.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPoint {
    /// Average packet latency in cycles.
    pub latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: u64,
    /// Accepted throughput in flits/node/cycle.
    pub throughput: f64,
    /// Average network hops per packet.
    pub avg_hops: f64,
    /// Fraction of offered packets accepted into injection queues.
    pub acceptance: f64,
    /// Measured packets delivered.
    pub delivered_packets: u64,
    /// Packets dropped by live fault injection. Absent from stored
    /// lines when zero, so fault-free entries keep their pre-fault
    /// wire form.
    pub dropped_packets: u64,
    /// Measured packets injected (saturation-heuristic input).
    pub injected_packets: u64,
    /// Whether the network fully drained.
    pub drained: bool,
    /// Power/area columns (power-aware campaigns only).
    pub power: Option<PowerPoint>,
}

impl CachedPoint {
    /// Serializes as one JSON line (floats as raw bit patterns, so the
    /// round trip is exact for every value including NaN).
    fn to_line(&self, key: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"key\": \"{key}\", \"latency\": {}, \"p99\": {}, \
             \"throughput\": {}, \"avg_hops\": {}, \"acceptance\": {}, \
             \"delivered\": {}, \"injected\": {}, \"drained\": {}",
            self.latency.to_bits(),
            self.p99_latency,
            self.throughput.to_bits(),
            self.avg_hops.to_bits(),
            self.acceptance.to_bits(),
            self.delivered_packets,
            self.injected_packets,
            self.drained,
        );
        if self.dropped_packets > 0 {
            let _ = write!(out, ", \"dropped\": {}", self.dropped_packets);
        }
        if let Some(p) = &self.power {
            let bits = [
                p.power_w,
                p.static_w,
                p.dynamic_w,
                p.area_mm2,
                p.throughput_per_watt,
                p.energy_per_flit_j,
                p.edp_js,
            ]
            .map(|x| x.to_bits().to_string())
            .join(", ");
            let _ = write!(out, ", \"power\": [{bits}]");
        }
        out.push('}');
        out
    }

    /// Parses one JSON line; returns the key alongside the point.
    fn from_line(line: &str) -> Option<(String, CachedPoint)> {
        let v = json::parse(line).ok()?;
        let key = v.get("key")?.as_str()?.to_string();
        let f = |field: &str| Some(f64::from_bits(v.get(field)?.as_u64()?));
        let power = match v.get("power") {
            None => None,
            Some(arr) => {
                let bits = arr.as_arr()?;
                if bits.len() != 7 {
                    return None;
                }
                let mut vals = [0.0f64; 7];
                for (slot, b) in vals.iter_mut().zip(bits) {
                    *slot = f64::from_bits(b.as_u64()?);
                }
                Some(PowerPoint {
                    power_w: vals[0],
                    static_w: vals[1],
                    dynamic_w: vals[2],
                    area_mm2: vals[3],
                    throughput_per_watt: vals[4],
                    energy_per_flit_j: vals[5],
                    edp_js: vals[6],
                })
            }
        };
        Some((
            key,
            CachedPoint {
                latency: f("latency")?,
                p99_latency: v.get("p99")?.as_u64()?,
                throughput: f("throughput")?,
                avg_hops: f("avg_hops")?,
                acceptance: f("acceptance")?,
                delivered_packets: v.get("delivered")?.as_u64()?,
                dropped_packets: match v.get("dropped") {
                    None => 0,
                    Some(d) => d.as_u64()?,
                },
                injected_packets: v.get("injected")?.as_u64()?,
                drained: v.get("drained")?.as_bool()?,
                power,
            },
        ))
    }
}

/// A persistent, thread-safe, content-addressed store of simulated
/// campaign points.
///
/// Shared across campaigns (and across server clients) behind an
/// `Arc`; lookups and inserts lock only briefly, so worker threads stay
/// parallel. Lifetime hit/miss counters aggregate across every
/// campaign that used the cache — per-run counters live on
/// [`CampaignResult`](crate::CampaignResult) instead.
pub struct PointCache {
    dir: PathBuf,
    version: String,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Store lines skipped as unparseable at open time.
    corrupt_lines: u64,
}

struct Inner {
    map: HashMap<String, CachedPoint>,
    store: File,
}

impl fmt::Debug for PointCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointCache")
            .field("dir", &self.dir)
            .field("version", &self.version)
            .field("entries", &self.len())
            .finish()
    }
}

impl PointCache {
    /// Opens (creating if needed) the cache at `dir` under the current
    /// [`ENGINE_VERSION`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or opening
    /// the store file. Malformed store lines are skipped, not errors —
    /// a truncated final line from an interrupted run must not poison
    /// the cache.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<PointCache> {
        Self::open_with_version(dir, ENGINE_VERSION)
    }

    /// Opens the cache under an explicit version salt (tests use this
    /// to prove stale-engine entries never hit).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; see [`PointCache::open`].
    pub fn open_with_version(dir: impl AsRef<Path>, version: &str) -> io::Result<PointCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let path = dir.join(STORE_FILE);
        let mut map = HashMap::new();
        let mut corrupt_lines = 0u64;
        if path.exists() {
            // Split raw bytes rather than iterating `lines()`: a torn
            // final line from an interrupted append may hold arbitrary
            // bytes, and an invalid-UTF-8 read error must degrade to a
            // skipped line, not abort the whole open.
            let bytes = fs::read(&path)?;
            for raw in bytes.split(|&b| b == b'\n') {
                if raw.is_empty() {
                    continue;
                }
                match std::str::from_utf8(raw)
                    .ok()
                    .and_then(CachedPoint::from_line)
                {
                    Some((key, point)) => {
                        map.insert(key, point); // last write wins
                    }
                    None => corrupt_lines += 1,
                }
            }
        }
        let store = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(PointCache {
            dir,
            version: version.to_string(),
            inner: Mutex::new(Inner { map, store }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt_lines,
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of a coordinate: 32 hex chars of a 128-bit
    /// hash over the version salt and the canonical coordinate string.
    #[must_use]
    pub fn key(&self, coord: &PointCoord<'_>) -> String {
        let text = format!("{}\n{}", self.version, coord.canonical());
        let a = mix64(0xcbf2_9ce4_8422_2325, text.as_bytes());
        let b = mix64(0x9e37_79b9_7f4a_7c15 ^ a, text.as_bytes());
        format!("{a:016x}{b:016x}")
    }

    /// Looks up a key, counting the lifetime hit or miss.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CachedPoint> {
        let found = self.inner.lock().expect("cache lock").map.get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a point and appends it to the JSONL store.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write errors.
    pub fn put(&self, key: &str, point: &CachedPoint) -> io::Result<()> {
        // One `write` of the whole line: the store is an unbuffered
        // `O_APPEND` file other processes may share, and a separate
        // write for the newline could land after their payload.
        let mut line = point.to_line(key);
        line.push('\n');
        let mut inner = self.inner.lock().expect("cache lock");
        inner.store.write_all(line.as_bytes())?;
        inner.map.insert(key.to_string(), point.clone());
        Ok(())
    }

    /// Number of reachable entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hits since this cache was opened.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses since this cache was opened.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Store lines skipped as unparseable when this cache was opened
    /// (a torn final line from an interrupted append, a manual edit, a
    /// partial disk write — anything the stored-line parser or
    /// UTF-8 validation rejects).
    #[must_use]
    pub fn corrupt_lines(&self) -> u64 {
        self.corrupt_lines
    }
}

/// FNV-1a with a caller-chosen basis, finished with the splitmix64
/// avalanche — the same construction the per-point seeds use.
fn mix64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snoc_cache_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn coord(load: f64) -> PointCoord<'static> {
        PointCoord {
            setup_spec: "{\"config\": \"sn54\"}",
            pattern: "RND",
            load,
            warmup: 100,
            measure: 400,
            base_seed: 7,
            shards: 1,
            tech: None,
        }
    }

    fn sample() -> CachedPoint {
        CachedPoint {
            latency: 12.625,
            p99_latency: 40,
            throughput: 0.1 + 0.2, // deliberately inexact decimal
            avg_hops: 1.5,
            acceptance: f64::NAN, // bit-exactness must survive NaN
            delivered_packets: 1234,
            dropped_packets: 21,
            injected_packets: 1300,
            drained: true,
            power: Some(PowerPoint {
                power_w: 1.25,
                static_w: 0.5,
                dynamic_w: 0.75,
                area_mm2: 3.0,
                throughput_per_watt: 2.0e9,
                energy_per_flit_j: 5.0e-10,
                edp_js: 1.0e-12,
            }),
        }
    }

    /// The salt and the engine behaviour it was recorded against: the
    /// [`mix64`] hash of `SimReport::to_json` over a pinned mini-matrix
    /// (minimal, UGAL-L, CBR, a seeded 10-link storm, a 2-shard run).
    const FINGERPRINT: (&str, u64) = ("slim_noc-engine-v3", 0x7318_4329_89f0_1c38);

    #[test]
    fn engine_behaviour_moves_only_with_the_salt() {
        use crate::{BufferPreset, FaultsSpec, Setup, StormSpec};
        use snoc_sim::RoutingKind;
        use snoc_traffic::TrafficPattern::{Adversarial1, Random};

        let sn_s = || Setup::paper("sn_s").unwrap().with_seed(11);
        let storm = FaultsSpec {
            events: Vec::new(),
            storm: Some(StormSpec {
                links: 10,
                start: 150,
                window: 200,
                seed: 7,
            }),
        };
        let reports = [
            sn_s().run_load(Random, 0.7, 100, 400),
            sn_s()
                .with_routing(RoutingKind::UgalL)
                .run_load(Random, 0.3, 100, 400),
            sn_s()
                .with_buffers(BufferPreset::Cbr(20))
                .run_load(Random, 0.3, 100, 400),
            sn_s().with_faults(storm).run_load(Random, 0.2, 100, 400),
            sn_s().run_load_sharded(Adversarial1, 0.2, 100, 400, 2),
        ];
        let mut bytes = String::new();
        for r in &reports {
            bytes.push_str(&r.to_json());
            bytes.push('\n');
        }
        let hash = mix64(0xcbf2_9ce4_8422_2325, bytes.as_bytes());
        assert_eq!(
            ENGINE_VERSION, FINGERPRINT.0,
            "salt changed: re-record FINGERPRINT as (ENGINE_VERSION, {hash:#018x})"
        );
        assert_eq!(
            hash, FINGERPRINT.1,
            "simulated bytes moved under salt {ENGINE_VERSION}: cached points are stale — \
             bump ENGINE_VERSION and re-record FINGERPRINT with {hash:#018x}"
        );
    }

    #[test]
    fn keys_depend_on_every_coordinate_and_the_salt() {
        let dir = tmp("keys");
        let cache = PointCache::open(&dir).unwrap();
        let base = cache.key(&coord(0.05));
        assert_eq!(base.len(), 32);
        assert_eq!(base, cache.key(&coord(0.05)), "stable");
        assert_ne!(base, cache.key(&coord(0.06)));
        let mut c = coord(0.05);
        c.pattern = "ADV1";
        assert_ne!(base, cache.key(&c));
        let mut c = coord(0.05);
        c.base_seed = 8;
        assert_ne!(base, cache.key(&c));
        let mut c = coord(0.05);
        c.tech = Some("45nm");
        assert_ne!(base, cache.key(&c));
        let mut c = coord(0.05);
        c.shards = 4;
        assert_ne!(base, cache.key(&c));
        let salted = PointCache::open_with_version(&dir, "other-engine").unwrap();
        assert_ne!(base, salted.key(&coord(0.05)), "salt changes keys");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_bit_exactly_through_disk() {
        let dir = tmp("roundtrip");
        let point = sample();
        let key;
        {
            let cache = PointCache::open(&dir).unwrap();
            key = cache.key(&coord(0.05));
            assert!(cache.get(&key).is_none());
            cache.put(&key, &point).unwrap();
            assert!(cache.get(&key).is_some());
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
        }
        // Fresh process-equivalent: reopen from disk.
        let cache = PointCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        let back = cache.get(&key).expect("persisted");
        assert_eq!(back.latency.to_bits(), point.latency.to_bits());
        assert_eq!(back.throughput.to_bits(), point.throughput.to_bits());
        assert!(back.acceptance.is_nan(), "NaN survives the round trip");
        assert_eq!(back.power, point.power);
        // NaN was checked above; neutralize it so derived PartialEq
        // (NaN != NaN) can compare the rest.
        let mut expect = point.clone();
        expect.acceptance = 0.0;
        let mut got = back.clone();
        got.acceptance = 0.0;
        assert_eq!(got, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_engine_entries_never_hit() {
        let dir = tmp("salt");
        let old = PointCache::open_with_version(&dir, "engine-old").unwrap();
        old.put(&old.key(&coord(0.05)), &sample()).unwrap();
        drop(old);
        let new = PointCache::open(&dir).unwrap();
        assert_eq!(new.len(), 1, "entry still on disk");
        assert!(
            new.get(&new.key(&coord(0.05))).is_none(),
            "but unreachable under the current ENGINE_VERSION"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_skipped_and_last_write_wins() {
        let dir = tmp("corrupt");
        let cache = PointCache::open(&dir).unwrap();
        let key = cache.key(&coord(0.05));
        cache.put(&key, &sample()).unwrap();
        let mut newer = sample();
        newer.delivered_packets = 9_999;
        cache.put(&key, &newer).unwrap();
        drop(cache);
        // Simulate an interrupted append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(STORE_FILE))
            .unwrap();
        write!(f, "{{\"key\": \"trunc").unwrap();
        drop(f);
        let cache = PointCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.corrupt_lines(), 1);
        assert_eq!(cache.get(&key).unwrap().delivered_packets, 9_999);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_appending_concurrently_never_tear_a_line() {
        // Two processes sharing a `--cache-dir` are two `PointCache`
        // handles with two `O_APPEND` descriptors and no common lock.
        let dir = tmp("two_writers");
        const PER_WRITER: usize = 400;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let (dir, start) = (&dir, &start);
                scope.spawn(move || {
                    let cache = PointCache::open(dir).unwrap();
                    start.wait();
                    for i in 0..PER_WRITER {
                        let load = (writer * PER_WRITER + i) as f64;
                        cache.put(&cache.key(&coord(load)), &sample()).unwrap();
                    }
                });
            }
        });
        let cache = PointCache::open(&dir).unwrap();
        assert_eq!(cache.corrupt_lines(), 0);
        assert_eq!(cache.len(), 2 * PER_WRITER);
        for load in 0..2 * PER_WRITER {
            assert!(cache.get(&cache.key(&coord(load as f64))).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_binary_tail_does_not_brick_the_cache() {
        let dir = tmp("torn_tail");
        let cache = PointCache::open(&dir).unwrap();
        let key = cache.key(&coord(0.05));
        cache.put(&key, &sample()).unwrap();
        drop(cache);
        // A crash mid-append can leave arbitrary (non-UTF-8) bytes as
        // the final line; the reopen must skip it, not error out.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(STORE_FILE))
            .unwrap();
        f.write_all(b"{\"key\": \"to\xffrn\x80\xfe").unwrap();
        drop(f);
        let cache = PointCache::open(&dir).expect("torn tail must not abort the open");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.corrupt_lines(), 1);
        let back = cache.get(&key).expect("intact entry still served");
        assert_eq!(back.delivered_packets, sample().delivered_packets);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinate_canonical_form_is_valid_json() {
        let mut c = coord(0.05);
        c.tech = Some("22nm");
        let text = c.canonical();
        assert!(json::parse(&text).is_ok(), "{text}");
        assert!(text.contains("\"load_bits\""));
        assert!(text.contains("\"tech\": \"22nm\""));
        assert!(
            !text.contains("shards"),
            "single-shard coordinates keep their pre-sharding form"
        );
        c.shards = 2;
        let text = c.canonical();
        assert!(json::parse(&text).is_ok(), "{text}");
        assert!(text.contains("\"shards\": 2"));
    }
}
