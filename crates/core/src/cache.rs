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
//! A [`Campaign`](crate::Campaign) with an attached cache (its spec's
//! `cache_dir`, or a shared store through
//! [`Campaign::with_cache`](crate::Campaign::with_cache)) consults it
//! before simulating: a widened sweep re-simulates only the
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
//!
//! A cache remembers the keys it mints for campaigns. Its memo is keyed
//! by a curve's exact canonical text — the coordinate with the load
//! left out ([`PointCoord::canonical`] less the load bits, not a hash of
//! it) — and, within a curve, by the load's bits, so a resubmitted curve
//! costs one lookup per point instead of a hash over the whole text.
//! It holds at most as many curves as the store holds points: a new
//! curve that would exceed that empties it first. It never changes a
//! key's value: a remembered key is the one [`PointCache::key`] mints
//! afresh for the same coordinate, and the memo belongs to one cache,
//! so two salts never share an entry.

use crate::json::{Floats, Layout::Inline, Raw, Reader, Writer};
use crate::sweep::PowerPoint;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Simulation-engine shard count: always 1 from `snoc_core`, whose
    /// campaigns run every point on the monolithic engine. Only part of
    /// the canonical form when above 1, so 1 mints the keys every
    /// store already holds.
    pub shards: usize,
    /// Power technology node (`45nm`, …) for power-aware campaigns;
    /// `None` for plain latency sweeps.
    pub tech: Option<&'a str>,
}

impl PointCoord<'_> {
    /// The canonical coordinate string that gets hashed into the key.
    #[must_use]
    pub fn canonical(&self) -> String {
        let marked = self.marked();
        let (head, tail) = marked.rsplit_once('\0').expect("the load's mark");
        format!("{head}{}{tail}", self.load.to_bits())
    }

    /// [`PointCoord::canonical`] with a NUL where the load bits go — the
    /// one place that knows the form. The points of a curve share it, so
    /// a campaign renders it once per curve ([`PointCache::curve`]), and
    /// the cache remembers the keys it mints under it.
    pub(crate) fn marked(&self) -> String {
        let mut w = Writer::new(Floats::Bits);
        // A NUL marks the load: the writer escapes it out of every
        // string written after it.
        w.object(Inline)
            .field("setup", Raw(self.setup_spec))
            .field("pattern", self.pattern)
            .field("load_bits", Raw('\0'))
            .field("warmup", self.warmup)
            .field("measure", self.measure)
            .field("base_seed", self.base_seed);
        if self.shards > 1 {
            w.field("shards", self.shards);
        }
        if let Some(tech) = self.tech {
            w.field("tech", tech);
        }
        w.finish()
    }
}

/// The cache keys of one curve's points ([`PointCache::curve`]): the
/// curve's [marked](PointCoord::marked) canonical text, and what the
/// cache has minted under it.
#[derive(Debug)]
pub(crate) struct CurveKeys {
    text: String,
    /// Where the load's mark stands in `text`.
    mark: usize,
    minted: Arc<Minted>,
}

/// What a [`PointCache`] remembers of one curve: the state of hash `a`
/// after salt ‖ newline ‖ head, and the value of every key it minted,
/// by the load's bits.
#[derive(Debug)]
struct Minted {
    fnv_head: u64,
    keys: Mutex<HashMap<u64, u128>>,
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
        let mut w = Writer::new(Floats::Bits);
        w.object(Inline)
            .field("key", key)
            .field("latency", self.latency)
            .field("p99", self.p99_latency)
            .field("throughput", self.throughput)
            .field("avg_hops", self.avg_hops)
            .field("acceptance", self.acceptance)
            .field("delivered", self.delivered_packets)
            .field("injected", self.injected_packets)
            .field("drained", self.drained);
        if self.dropped_packets > 0 {
            w.field("dropped", self.dropped_packets);
        }
        if let Some(p) = &self.power {
            w.key("power").list_of(p.columns().map(|(_, x)| x));
        }
        w.finish()
    }

    /// Parses one JSON line; returns the key alongside the point. The
    /// first occurrence of a field counts, later ones and unknown
    /// fields are skipped (and must still be valid JSON), and the line
    /// holds nothing after its object.
    fn from_line(line: &str) -> Option<(Cow<'_, str>, CachedPoint)> {
        /// The `u64` fields, in the order of `nums` below.
        const NUMS: [&str; 8] = [
            "latency",
            "p99",
            "throughput",
            "avg_hops",
            "acceptance",
            "delivered",
            "dropped",
            "injected",
        ];
        /// Reads a field's first occurrence into `slot`.
        fn first<'a, T>(
            slot: &mut Option<T>,
            r: &mut Reader<'a>,
            read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
        ) -> Result<(), String> {
            match slot {
                Some(_) => r.skip(),
                None => read(r).map(|value| *slot = Some(value)),
            }
        }
        fn uint(r: &mut Reader<'_>) -> Result<u64, String> {
            r.number()?.parse().map_err(|_| "not a u64".to_string())
        }
        let (mut key, mut drained, mut power, mut nums) = (None, None, None, [None; 8]);
        let mut r = Reader::new(line);
        r.object(|r, name| match &*name {
            "key" => first(&mut key, r, Reader::string),
            "drained" => first(&mut drained, r, Reader::boolean),
            "power" => first(&mut power, r, |r| {
                let (mut vals, mut n) = ([0.0f64; 7], 0);
                r.array(|r| {
                    *vals.get_mut(n).ok_or("more than 7 power columns")? = f64::from_bits(uint(r)?);
                    n += 1;
                    Ok(())
                })?;
                if n != 7 {
                    return Err("fewer than 7 power columns".to_string());
                }
                Ok(PowerPoint {
                    power_w: vals[0],
                    static_w: vals[1],
                    dynamic_w: vals[2],
                    area_mm2: vals[3],
                    throughput_per_watt: vals[4],
                    energy_per_flit_j: vals[5],
                    edp_js: vals[6],
                })
            }),
            name => match NUMS.iter().position(|field| *field == name) {
                Some(i) => first(&mut nums[i], r, uint),
                None => r.skip(),
            },
        })
        .ok()?;
        r.finish().ok()?;
        let [latency, p99, throughput, avg_hops, acceptance, delivered, dropped, injected] = nums;
        Some((
            key?,
            CachedPoint {
                latency: f64::from_bits(latency?),
                p99_latency: p99?,
                throughput: f64::from_bits(throughput?),
                avg_hops: f64::from_bits(avg_hops?),
                acceptance: f64::from_bits(acceptance?),
                delivered_packets: delivered?,
                dropped_packets: dropped.unwrap_or(0),
                injected_packets: injected?,
                drained: drained?,
                power,
            },
        ))
    }
}

/// A [`CachedPoint`] as the store's map holds it: the scalars inline
/// and the power columns, which most points lack, out of line, so that
/// a map slot, key included, is 96 bytes.
struct Record {
    latency: f64,
    throughput: f64,
    avg_hops: f64,
    acceptance: f64,
    p99_latency: u64,
    delivered_packets: u64,
    dropped_packets: u64,
    injected_packets: u64,
    drained: bool,
    power: Option<Box<PowerPoint>>,
}

const _: () = assert!(std::mem::size_of::<(u128, Record)>() <= 96);

impl From<&CachedPoint> for Record {
    fn from(p: &CachedPoint) -> Self {
        Record {
            latency: p.latency,
            throughput: p.throughput,
            avg_hops: p.avg_hops,
            acceptance: p.acceptance,
            p99_latency: p.p99_latency,
            delivered_packets: p.delivered_packets,
            dropped_packets: p.dropped_packets,
            injected_packets: p.injected_packets,
            drained: p.drained,
            power: p.power.map(Box::new),
        }
    }
}

impl From<&Record> for CachedPoint {
    fn from(r: &Record) -> Self {
        CachedPoint {
            latency: r.latency,
            p99_latency: r.p99_latency,
            throughput: r.throughput,
            avg_hops: r.avg_hops,
            acceptance: r.acceptance,
            delivered_packets: r.delivered_packets,
            dropped_packets: r.dropped_packets,
            injected_packets: r.injected_packets,
            drained: r.drained,
            power: r.power.as_deref().copied(),
        }
    }
}

/// Each byte's value as a lowercase hex digit, or `0xff`.
const HEX: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The value a minted key spells: exactly 32 lowercase hex digits, the
/// only form [`render_key`] writes. Anything else is `None` — no
/// campaign can ever look it up.
fn parse_key(key: &str) -> Option<u128> {
    let digits: &[u8; 32] = key.as_bytes().try_into().ok()?;
    // Branch-free: whether a byte is a letter is a coin flip, and a
    // branch on it cost about 160 ns a key against 30 for the table.
    let (mut value, mut union) = (0u128, 0u8);
    for &c in digits {
        let digit = HEX[usize::from(c)];
        union |= digit;
        value = value << 4 | u128::from(digit & 0xf);
    }
    (union < 16).then_some(value)
}

/// The text form of a key: 32 lowercase hex digits, leading zeros kept.
fn render_key(key: u128) -> String {
    format!("{key:032x}")
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
    /// Every curve whose keys this cache has minted, by its marked
    /// canonical text: the memo behind [`PointCache::curve`].
    curves: Mutex<HashMap<Box<str>, Arc<Minted>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Store lines skipped as unparseable at open time.
    corrupt_lines: u64,
}

struct Inner {
    map: HashMap<u128, Record>,
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
    /// the store file. Malformed store lines, and lines whose key is
    /// not a minted key, are skipped, not errors — a truncated final
    /// line from an interrupted run must not poison the cache.
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
        let store = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(STORE_FILE))?;
        let mut map = HashMap::new();
        let mut corrupt_lines = 0u64;
        // Line by line through one buffer, as raw bytes rather than
        // `lines()`: a torn final line from an interrupted append may
        // hold arbitrary bytes, and an invalid-UTF-8 line must degrade
        // to a skipped line, not abort the whole open.
        let mut reader = BufReader::new(&store);
        let mut line = Vec::new();
        while reader.read_until(b'\n', &mut line)? > 0 {
            let raw = line.strip_suffix(b"\n").unwrap_or(&line);
            if !raw.is_empty() {
                let parsed = std::str::from_utf8(raw)
                    .ok()
                    .and_then(CachedPoint::from_line)
                    .and_then(|(key, point)| Some((parse_key(&key)?, point)));
                match parsed {
                    Some((key, point)) => {
                        map.insert(key, Record::from(&point)); // last write wins
                    }
                    None => corrupt_lines += 1,
                }
            }
            line.clear();
        }
        Ok(PointCache {
            dir,
            version: version.to_string(),
            inner: Mutex::new(Inner { map, store }),
            curves: Mutex::default(),
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
    /// Minted afresh, without the memo (module docs).
    #[must_use]
    pub fn key(&self, coord: &PointCoord<'_>) -> String {
        let text = coord.marked();
        let mark = text.rfind('\0').expect("the load's mark");
        let fnv_head = self.fnv_head(&text[..mark]);
        render_key(self.mint(&text, mark, fnv_head, coord.load.to_bits()))
    }

    /// The keys of the curve whose [marked](PointCoord::marked) text is
    /// `text`, for [`PointCache::key_at`]. A curve met before, by the
    /// exact text, is a lookup: it keeps the keys minted under it. The
    /// memo never holds more curves than the store holds points; a
    /// curve that would break that empties it first.
    pub(crate) fn curve(&self, text: String) -> CurveKeys {
        let mark = text.rfind('\0').expect("the load's mark");
        let mut curves = self.curves.lock().expect("memo lock");
        let minted = match curves.get(&*text) {
            Some(minted) => Arc::clone(minted),
            None => {
                let minted = Arc::new(Minted {
                    fnv_head: self.fnv_head(&text[..mark]),
                    keys: Mutex::default(),
                });
                let points = self.len();
                if curves.len() >= points {
                    curves.clear();
                }
                if points > 0 {
                    curves.insert(text.clone().into_boxed_str(), Arc::clone(&minted));
                }
                minted
            }
        };
        CurveKeys { text, mark, minted }
    }

    /// The value of the [`PointCache::key`] of `curve`'s coordinate at
    /// `load`: the one the curve minted at these load bits, or minted
    /// now and kept.
    pub(crate) fn key_at(&self, curve: &CurveKeys, load: f64) -> u128 {
        let bits = load.to_bits();
        let mut keys = curve.minted.keys.lock().expect("memo lock");
        *keys
            .entry(bits)
            .or_insert_with(|| self.mint(&curve.text, curve.mark, curve.minted.fnv_head, bits))
    }

    /// The state of hash `a` after salt ‖ newline ‖ `head`.
    fn fnv_head(&self, head: &str) -> u64 {
        fnv(0xcbf2_9ce4_8422_2325, &[&*self.version, "\n", head])
    }

    /// The key of the marked `text` at load `bits`: salt ‖ newline ‖
    /// head ‖ load bits ‖ tail, hashed twice. Hash `a` continues from
    /// `fnv_head`, its state after the head; hash `b`, seeded from `a`,
    /// walks the whole text.
    fn mint(&self, text: &str, mark: usize, fnv_head: u64, bits: u64) -> u128 {
        let (head, tail) = (&text[..mark], &text[mark + 1..]);
        let bits = bits.to_string();
        let a = avalanche(fnv(fnv_head, &[&bits, tail]));
        let b = mix64(
            0x9e37_79b9_7f4a_7c15 ^ a,
            &[&*self.version, "\n", head, &bits, tail],
        );
        u128::from(a) << 64 | u128::from(b)
    }

    /// Looks up a key, counting the lifetime hit or miss. A string that
    /// is not a minted key is a counted miss.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CachedPoint> {
        match parse_key(key) {
            Some(key) => self.get_at(key),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`PointCache::get`] of the key with this value.
    pub(crate) fn get_at(&self, key: u128) -> Option<CachedPoint> {
        let found = self.lock().map.get(&key).map(CachedPoint::from);
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
    /// `InvalidInput`, appending nothing, when `key` is not a minted
    /// key; otherwise propagates filesystem write errors.
    pub fn put(&self, key: &str, point: &CachedPoint) -> io::Result<()> {
        let value = parse_key(key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{key}` is not a minted cache key (32 lowercase hex digits)"),
            )
        })?;
        self.put_at(value, point)
    }

    /// [`PointCache::put`] under the key with this value.
    pub(crate) fn put_at(&self, key: u128, point: &CachedPoint) -> io::Result<()> {
        // One `write` of the whole line: the store is an unbuffered
        // `O_APPEND` file other processes may share, and a separate
        // write for the newline could land after their payload.
        let mut line = point.to_line(&render_key(key));
        line.push('\n');
        let mut inner = self.lock();
        inner.store.write_all(line.as_bytes())?;
        inner.map.insert(key, Record::from(point));
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock")
    }

    /// Number of reachable entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
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

    /// Store lines skipped when this cache was opened: a torn final
    /// line from an interrupted append, a manual edit, a partial disk
    /// write — anything the stored-line parser or UTF-8 validation
    /// rejects — and a line whose key is not a minted key.
    #[must_use]
    pub fn corrupt_lines(&self) -> u64 {
        self.corrupt_lines
    }
}

/// FNV-1a over the concatenation of `parts` with a caller-chosen basis,
/// finished with the splitmix64 avalanche: the one hash behind cache
/// keys and per-point seeds.
pub(crate) fn mix64<P: AsRef<[u8]>>(basis: u64, parts: &[P]) -> u64 {
    avalanche(fnv(basis, parts))
}

/// [`mix64`]'s FNV-1a state after `parts`, from state `h`: a text's
/// prefix can be hashed once and its tails continued from the state.
fn fnv<P: AsRef<[u8]>>(mut h: u64, parts: &[P]) -> u64 {
    for &b in parts.iter().flat_map(AsRef::as_ref) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`mix64`]'s splitmix64 finish of an FNV state.
fn avalanche(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    /// (minimal, UGAL-L, CBR, a seeded 10-link storm, ADV1).
    const FINGERPRINT: (&str, u64) = ("slim_noc-engine-v3", 0x7318_4329_89f0_1c38);

    #[test]
    fn engine_behaviour_moves_only_with_the_salt() {
        use crate::{BufferPreset, FaultsSpec, SetupSpec, StormSpec};
        use snoc_sim::RoutingKind;
        use snoc_traffic::TrafficPattern::{Adversarial1, Random};

        let sn_s = |recipe: SetupSpec| recipe.build().unwrap().with_seed(11);
        let plain = || SetupSpec::new("sn_s");
        let ugal = SetupSpec {
            routing: RoutingKind::UgalL,
            ..plain()
        };
        let cbr = SetupSpec {
            buffers: BufferPreset::Cbr(20),
            ..plain()
        };
        let storm = SetupSpec {
            faults: Some(FaultsSpec {
                events: Vec::new(),
                storm: Some(StormSpec {
                    links: 10,
                    start: 150,
                    window: 200,
                    seed: 7,
                }),
            }),
            ..plain()
        };
        let reports = [
            sn_s(plain()).run_load(Random, 0.7, 100, 400),
            sn_s(ugal).run_load(Random, 0.3, 100, 400),
            sn_s(cbr).run_load(Random, 0.3, 100, 400),
            sn_s(storm).run_load(Random, 0.2, 100, 400),
            sn_s(plain()).run_load(Adversarial1, 0.2, 100, 400),
        ];
        let mut bytes = String::new();
        for r in &reports {
            bytes.push_str(&r.to_json());
            bytes.push('\n');
        }
        let hash = mix64(0xcbf2_9ce4_8422_2325, &[&bytes]);
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
    fn piecewise_keys_equal_the_hash_of_the_whole_canonical_string() {
        use crate::{FaultsSpec, SetupSpec, StormSpec};
        let dir = tmp("key_split");
        let cache = PointCache::open(&dir).unwrap();
        let mut storm = SetupSpec::new("sn54");
        storm.name = "sn54 \"storm\"".to_string();
        storm.faults = Some(FaultsSpec {
            events: Vec::new(),
            storm: Some(StormSpec {
                links: 10,
                start: 150,
                window: 200,
                seed: 7,
            }),
        });
        let setups = [
            SetupSpec::new("sn_s").canonical_json(),
            storm.canonical_json(),
        ];
        // Keys `PointCache::key` minted at `13bcf53`, before the split.
        let minted = [
            (0, "RND", None, 1, 1e-9, "2d7affcadfd2aa18003d9b94d5f8780b"),
            (
                0,
                "RND",
                Some("45nm"),
                1,
                123_456.789,
                "74b3a25d9f036f0be74ea691cf8203e2",
            ),
            (0, "fft", None, 1, 0.3, "f576b3aed981f7b612350f33776272e4"),
            (
                1,
                "RND",
                None,
                2,
                123_456.789,
                "758553f00625db2a5f021e0009ec9f12",
            ),
            (
                1,
                "fft",
                Some("45nm"),
                2,
                123_456.789,
                "27d671f68bc149b6f82eddc89f9f5c6b",
            ),
        ];
        let mut pinned = 0;
        for (s, setup_spec) in setups.iter().enumerate() {
            for pattern in ["RND", "fft"] {
                for tech in [None, Some("45nm")] {
                    for shards in [1, 2] {
                        for load in [1e-9, 0.3, 123_456.789] {
                            let coord = PointCoord {
                                setup_spec,
                                pattern,
                                load,
                                warmup: 150,
                                measure: 500,
                                base_seed: 0xC0FFEE,
                                shards,
                                tech,
                            };
                            // The key as it was defined: two passes over
                            // salt, newline, canonical string.
                            let text = format!("{ENGINE_VERSION}\n{}", coord.canonical());
                            let a = mix64(0xcbf2_9ce4_8422_2325, &[&text]);
                            let b = mix64(0x9e37_79b9_7f4a_7c15 ^ a, &[&text]);
                            let key = cache.key(&coord);
                            assert_eq!(key, format!("{a:016x}{b:016x}"), "{text}");
                            // A curve marked at any load mints it too.
                            let marked = PointCoord { load: 7.5, ..coord }.marked();
                            let curve = cache.curve(marked);
                            assert_eq!(render_key(cache.key_at(&curve, load)), key, "{text}");
                            let here = (s, pattern, tech, shards, load);
                            for &(s, pattern, tech, shards, load, want) in &minted {
                                if (s, pattern, tech, shards, load) == here {
                                    assert_eq!(key, want, "{text}");
                                    pinned += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(pinned, minted.len());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hostile store lines with what `from_line` made of each at
    /// `13bcf53`, through `json::parse` and `JsonValue::get`.
    #[test]
    fn hostile_store_lines_load_or_corrupt_as_they_did_through_the_tree() {
        let base = |key: &str| {
            format!(
                "\"key\": \"{key}\", \"latency\": 4623155868060469658, \"p99\": 40, \
                 \"throughput\": 4599075939470750516, \"avg_hops\": 4609434218613702656, \
                 \"acceptance\": 4607182418800017408, \"delivered\": 1234, \
                 \"injected\": 1300, \"drained\": true"
            )
        };
        let one = 1.0f64.to_bits();
        let columns = |n: u64| {
            let bits: Vec<_> = (0..n).map(|i| (one + i).to_string()).collect();
            bits.join(", ")
        };
        let plain = CachedPoint {
            latency: f64::from_bits(4_623_155_868_060_469_658),
            p99_latency: 40,
            throughput: 0.1 + 0.2,
            avg_hops: 1.5,
            acceptance: 1.0,
            delivered_packets: 1234,
            dropped_packets: 0,
            injected_packets: 1300,
            drained: true,
            power: None,
        };
        let dropped = |dropped_packets| CachedPoint {
            dropped_packets,
            ..plain.clone()
        };
        let p = |i: u64| f64::from_bits(one + i);
        let powered = CachedPoint {
            power: Some(PowerPoint {
                power_w: p(0),
                static_w: p(1),
                dynamic_w: p(2),
                area_mm2: p(3),
                throughput_per_watt: p(4),
                energy_per_flit_j: p(5),
                edp_js: p(6),
            }),
            ..plain.clone()
        };
        let reordered = CachedPoint {
            latency: f64::from_bits(3),
            p99_latency: 4,
            throughput: f64::from_bits(5),
            avg_hops: f64::from_bits(6),
            acceptance: f64::from_bits(7),
            delivered_packets: 8,
            dropped_packets: 3,
            injected_packets: 9,
            drained: false,
            power: None,
        };
        let b = base("k");
        let ok = |key: &str, point: &CachedPoint| Some((Cow::from(key.to_string()), point.clone()));
        let table = [
            (format!("{{{b}}}"), ok("k", &plain)),
            // The first occurrence of a field counts …
            (
                format!("{{{}, \"key\": \"k2\"}}", base("k1")),
                ok("k1", &plain),
            ),
            (format!("{{{b}, \"latency\": \"x\"}}"), ok("k", &plain)),
            (
                format!("{{{b}, \"power\": [{}], \"power\": 3}}", columns(7)),
                ok("k", &powered),
            ),
            // … also when it is the ill-typed one.
            (format!("{{\"latency\": \"x\", {b}}}"), None),
            (format!("{{\"key\": 5, {b}}}"), None),
            (
                "{\"drained\": false, \"injected\": 9, \"delivered\": 8, \"dropped\": 3, \
                 \"acceptance\": 7, \"avg_hops\": 6, \"throughput\": 5, \"p99\": 4, \
                 \"latency\": 3, \"key\": \"r\"}"
                    .to_string(),
                ok("r", &reordered),
            ),
            // Unknown fields are skipped, and validated.
            (
                format!("{{\"extra\": {{\"a\": [1, {{\"b\": null}}], \"s\": \"\\u0041\"}}, {b}}}"),
                ok("k", &plain),
            ),
            (format!("{{\"extra\": {{\"a\": 1-2}}, {b}}}"), None),
            (format!("{{{b}, \"extra\": [1,]}}"), None),
            (format!("{{{b}, \"power\": [{}]}}", columns(6)), None),
            (
                format!("{{{b}, \"power\": [{}]}}", columns(7)),
                ok("k", &powered),
            ),
            (format!("{{{b}, \"power\": [{}]}}", columns(8)), None),
            (format!("{{{b}, \"power\": null}}"), None),
            (format!("{{{b}, \"power\": [1.5, {}]}}", columns(6)), None),
            (
                format!("{{{b}, \"dropped\": 18446744073709551615}}"),
                ok("k", &dropped(u64::MAX)),
            ),
            (format!("{{{b}, \"dropped\": 18446744073709551616}}"), None),
            (format!("{{{b}, \"dropped\": null}}"), None),
            (format!("{{{b}, \"dropped\": 007}}"), ok("k", &dropped(7))),
            (format!("{{{b}, \"dropped\": 7.0}}"), None),
            (format!("{{{b}, \"dropped\": 1e2}}"), None),
            (format!("{{{b}, \"dropped\": -0}}"), None),
            // The whole line is one object.
            (format!("{{{b}}} x"), None),
            (format!("{{{b}}}}}"), None),
            (format!(" {{{b}}} \t"), ok("k", &plain)),
            ("[1, 2]".to_string(), None),
            ("7".to_string(), None),
            ("{}".to_string(), None),
            (
                format!("{{{}}}", b.replace("\"injected\": 1300, ", "")),
                None,
            ),
            (format!("{{{}}}", b.replace("true", "\"true\"")), None),
            (
                format!("{{{}}}", base("a\\u0041\\n\\\"b")),
                ok("aA\n\"b", &plain),
            ),
        ];
        for (line, want) in table {
            assert_eq!(CachedPoint::from_line(&line), want, "{line}");
        }
    }

    #[test]
    fn key_values_round_trip_through_their_text_form() {
        let dir = tmp("key_form");
        let cache = PointCache::open(&dir).unwrap();
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = mix64(state, &[b"key"]);
            state
        };
        let mut values: Vec<u128> = (0..1000)
            .map(|_| u128::from(next()) << 64 | u128::from(next()))
            .collect();
        // Leading zeros: every count of them, up to the all-zero key.
        values.extend((0..32).map(|zeros| u128::MAX >> (4 * zeros)));
        values.push(0);
        values.extend((0..1000).map(|i| {
            let curve = cache.curve(coord(f64::from(i)).marked());
            let minted = cache.key_at(&curve, f64::from(i));
            assert_eq!(render_key(minted), cache.key(&coord(f64::from(i))));
            minted
        }));
        for &value in &values {
            let text = render_key(value);
            assert_eq!(text.len(), 32, "{text}");
            assert_eq!(parse_key(&text), Some(value), "{text}");
        }
        assert_eq!(render_key(0), "0".repeat(32));
        // Every ASCII byte at every position: only `0-9a-f` is a digit.
        for at in 0..32 {
            for c in 0..128u8 {
                let mut text = render_key(values[0]).into_bytes();
                text[at] = c;
                let text = String::from_utf8(text).unwrap();
                let digit = c.is_ascii_digit() || (b'a'..=b'f').contains(&c);
                assert_eq!(parse_key(&text).is_some(), digit, "{text:?}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fuzzed curve: a recipe, a pattern, windows, a seed, a shard
    /// count and a tech, strings with quotes, escapes and a NUL.
    fn fuzzed_curve(rng: &mut TestRng) -> (String, String, [u64; 3], usize, Option<String>) {
        use crate::{BufferPreset, FaultsSpec, SetupSpec, StormSpec};
        use snoc_sim::RoutingKind;
        let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n as u64) as usize;
        const NAMES: [&str; 6] = ["sn_s", "cm3", "a \"b\"", "x\\y", "nul\0", "日本"];
        let routing = ["min", "ugal-l", "ugal-g", "val", "xy-adaptive"];
        let buffers = [
            BufferPreset::EbSmall,
            BufferPreset::EbVar,
            BufferPreset::ElLinks,
            BufferPreset::Cbr(rng.next_u64() as usize % 64),
        ];
        let storm = StormSpec {
            links: pick(rng, 20),
            start: rng.next_u64() % 1000,
            window: rng.next_u64() % 1000,
            seed: rng.next_u64(),
        };
        let recipe = SetupSpec {
            name: format!("{}{}", NAMES[pick(rng, NAMES.len())], rng.next_u64() % 4),
            smart: rng.next_u64().is_multiple_of(2),
            buffers: buffers[pick(rng, buffers.len())],
            routing: RoutingKind::from_spec_name(routing[pick(rng, routing.len())])
                .unwrap_or(RoutingKind::Minimal),
            faults: rng.next_u64().is_multiple_of(3).then(|| FaultsSpec {
                events: Vec::new(),
                storm: Some(storm),
            }),
            ..SetupSpec::new(["sn_s", "cm3", "fbf3", "t2d9"][pick(rng, 4)])
        };
        let pattern = NAMES[pick(rng, NAMES.len())].replace("sn_s", "RND");
        let windows = [rng.next_u64() % 100_000, rng.next_u64(), rng.next_u64()];
        let shards = [1, 1, 2, 5][pick(rng, 4)];
        let tech = [None, Some("45nm"), Some("22nm"), Some("\"7\0nm")][pick(rng, 4)];
        (
            recipe.canonical_json(),
            pattern,
            windows,
            shards,
            tech.map(str::to_string),
        )
    }

    /// Loads as a campaign or a hostile spec may name them: signed
    /// zeros, subnormals, 1e-300 to 1e300, any bit pattern, and each
    /// one's neighbours one unit in the last place away.
    fn fuzzed_loads(rng: &mut TestRng) -> Vec<f64> {
        let mut loads = vec![0.0, -0.0, f64::MIN_POSITIVE, 5e-324, 1e-300, 1e300];
        for _ in 0..6 {
            loads.push(f64::from_bits(rng.next_u64() % (1 << 52))); // subnormal
            let decade = (rng.next_u64() % 601) as i32 - 300;
            loads.push((1.0 + rng.next_u64() as f64 / u64::MAX as f64) * 10f64.powi(decade));
            loads.push(f64::from_bits(rng.next_u64()));
            loads.push(f64::from(rng.next_u64() as u32 % 1000) / 1000.0);
        }
        let neighbours: Vec<f64> = loads
            .iter()
            .flat_map(|x| [x.to_bits().wrapping_add(1), x.to_bits().wrapping_sub(1)])
            .map(f64::from_bits)
            .collect();
        loads.extend(neighbours);
        loads
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Memoized keys are the keys [`PointCache::key`] mints afresh,
        /// on a first and a second sight of a curve, under two salts that
        /// never share a memo entry, and from two threads at once.
        #[test]
        fn memoized_keys_are_the_freshly_minted_keys(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let dirs = [tmp(&format!("memo_a_{seed}")), tmp(&format!("memo_b_{seed}"))];
            let caches = [
                PointCache::open(&dirs[0]).unwrap(),
                PointCache::open_with_version(&dirs[1], "other-engine").unwrap(),
            ];
            for cache in &caches {
                // A store of one point holds one curve: each new curve
                // below empties the memo of the one before.
                cache.put(&cache.key(&coord(0.05)), &sample()).unwrap();
            }
            for _ in 0..3 {
                let (recipe, pattern, [warmup, measure, base_seed], shards, tech) =
                    fuzzed_curve(&mut rng);
                let at = |load| PointCoord {
                    setup_spec: &recipe,
                    pattern: &pattern,
                    load,
                    warmup,
                    measure,
                    base_seed,
                    shards,
                    tech: tech.as_deref(),
                };
                let loads = fuzzed_loads(&mut rng);
                let fresh = |cache: &PointCache, load| cache.key(&at(load));
                for sight in 0..2 {
                    let curves = caches.each_ref().map(|c| c.curve(at(0.0).marked()));
                    prop_assert!(!Arc::ptr_eq(&curves[0].minted, &curves[1].minted));
                    for &load in loads.iter().rev().skip(sight) {
                        let [a, b] = [0, 1].map(|i| caches[i].key_at(&curves[i], load));
                        prop_assert_eq!(render_key(a), fresh(&caches[0], load));
                        prop_assert_eq!(render_key(b), fresh(&caches[1], load));
                        prop_assert!(a != b, "two salts, one key");
                    }
                }
                let [a, b] = caches.each_ref().map(|c| c.curves.lock().unwrap().len());
                prop_assert!(a <= caches[0].len() && b <= caches[1].len(), "{a} {b}");
                let minted = std::thread::scope(|scope| {
                    let order = [loads.clone(), loads.iter().rev().copied().collect()];
                    let threads = order.map(|loads| {
                        let (cache, at) = (&caches[0], &at);
                        scope.spawn(move || {
                            let curve = cache.curve(at(0.0).marked());
                            let keys: Vec<u128> =
                                loads.iter().map(|&load| cache.key_at(&curve, load)).collect();
                            loads.into_iter().zip(keys).collect::<Vec<_>>()
                        })
                    });
                    threads.map(|t| t.join().unwrap())
                });
                for (load, key) in minted.into_iter().flatten() {
                    prop_assert_eq!(render_key(key), fresh(&caches[0], load));
                }
            }
            for dir in &dirs {
                let _ = fs::remove_dir_all(dir);
            }
        }
    }

    #[test]
    fn the_memo_holds_no_more_curves_than_the_store_holds_points() {
        let dir = tmp("memo_bound");
        let cache = PointCache::open(&dir).unwrap();
        let curve = |pattern: &str| {
            let marked = PointCoord {
                pattern,
                ..coord(0.0)
            }
            .marked();
            let curve = cache.curve(marked);
            assert_eq!(
                render_key(cache.key_at(&curve, 0.25)),
                cache.key(&PointCoord {
                    pattern,
                    ..coord(0.25)
                })
            );
            cache.curves.lock().unwrap().len()
        };
        // An empty store keeps no curve.
        assert_eq!(curve("A"), 0);
        cache.put(&cache.key(&coord(0.05)), &sample()).unwrap();
        cache.put(&cache.key(&coord(0.06)), &sample()).unwrap();
        // Two points, two curves; a third empties the memo first.
        assert_eq!([curve("A"), curve("B"), curve("A")], [1, 2, 2]);
        assert_eq!(curve("C"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Keys no minting produces, through the store, `get` and `put`:
    /// a skipped line, a counted miss, and `InvalidInput` with nothing
    /// appended. `from_line` itself still reads their lines (the rows
    /// above), so only the key form decides.
    #[test]
    fn non_minted_keys_are_skipped_missed_and_refused() {
        let minted = "008f2e1c69b627392b2556f7abe1c155";
        let hostile = [
            minted.to_uppercase(),
            "008F2e1c69b627392b2556f7abe1c155".to_string(),
            minted[..31].to_string(),
            format!("{minted}0"),
            format!("0{minted}"),
            String::new(),
            "g08f2e1c69b627392b2556f7abe1c155".to_string(),
            "+08f2e1c69b627392b2556f7abe1c155".to_string(),
            " 08f2e1c69b627392b2556f7abe1c155".to_string(),
            "0x8f2e1c69b627392b2556f7abe1c155".to_string(),
            "008f2e1c69b627392b2556f7abe1c15\u{e9}".to_string(),
        ];
        let dir = tmp("non_minted");
        let cache = PointCache::open(&dir).unwrap();
        cache.put(minted, &sample()).unwrap();
        let store = dir.join(STORE_FILE);
        let length = fs::metadata(&store).unwrap().len();
        for (i, key) in hostile.iter().enumerate() {
            let err = cache.put(key, &sample()).expect_err(key);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{key}");
            assert_eq!(fs::metadata(&store).unwrap().len(), length, "{key}");
            assert!(cache.get(key).is_none(), "{key}");
            assert_eq!(cache.misses(), i as u64 + 1, "{key}");
        }
        drop(cache);
        let mut f = OpenOptions::new().append(true).open(&store).unwrap();
        for key in &hostile {
            let line = sample().to_line(key);
            assert!(CachedPoint::from_line(&line).is_some(), "{line}");
            writeln!(f, "{line}").unwrap();
        }
        drop(f);
        let cache = PointCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.corrupt_lines(), hostile.len() as u64);
        assert!(cache.get(minted).is_some());
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
        assert!(crate::json::parse(&text).is_ok(), "{text}");
        assert!(text.contains("\"load_bits\""));
        assert!(text.contains("\"tech\": \"22nm\""));
        assert!(
            !text.contains("shards"),
            "single-shard coordinates keep their pre-sharding form"
        );
        c.shards = 2;
        let text = c.canonical();
        assert!(crate::json::parse(&text).is_ok(), "{text}");
        assert!(text.contains("\"shards\": 2"));
    }
}
