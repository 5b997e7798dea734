//! Seeded input generation.
//!
//! `--seed` is the benchmark's only source of variation. From it this
//! module derives every campaign's `base_seed`, the storm seed, the
//! filler keys of the served store, the new loads and the request order
//! of `served_mix`, and the simulator seed of `big_point`; it writes
//! specs, parameters and key lists into a scratch directory, and the
//! workloads read only those files. The same seed gives the same files.

use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snoc_core::{BufferPreset, CampaignSpec, FaultsSpec, SetupSpec, StormSpec};
use snoc_layout::TechNode;
use snoc_sim::RoutingKind;
use snoc_traffic::TrafficPattern;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The paper's small-class comparison set (N ∈ {192, 200}).
pub const SMALL_CLASS: [&str; 6] = ["cm3", "t2d3", "pfbf3", "pfbf4", "sn_s", "fbf3"];
/// The paper's large-class comparison set (N = 1296).
pub const LARGE_CLASS: [&str; 5] = ["cm9", "t2d9", "pfbf9", "sn_l", "fbf9"];

/// Filler lines in the served store: a working set well above the 120
/// live points, so `PointCache::open` and the key map do real work.
pub const FILLER_LINES: usize = 20_000;
/// Widened submissions per `served_mix` pass.
pub const WIDENED: usize = 12;

/// Window sizes: full size, or `--smoke` (statistically meaningless,
/// every code path still runs).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn windows(self, warmup: u64, measure: u64) -> (u64, u64) {
        if self.smoke {
            (20, 60)
        } else {
            (warmup, measure)
        }
    }
}

/// `big_point`'s `(warmup, measure)` windows.
pub fn big_point_windows(scale: Scale) -> (u64, u64) {
    scale.windows(100, 400)
}

/// One independent 64-bit stream value per (seed, purpose).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn named(config: &str, name: &str, edit: impl FnOnce(&mut SetupSpec)) -> SetupSpec {
    let mut s = SetupSpec::new(config);
    s.name = name.to_string();
    edit(&mut s);
    s
}

/// `fig_cold`: Fig. 12's six SMART small-class setups plus the CBR,
/// UGAL-L and storm variants of `sn_s`, RND + ADV1 over the standard
/// load grid with one knee-refinement round, on two threads.
pub fn fig_cold_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let (warmup, measure) = scale.windows(150, 600);
    let mut spec = CampaignSpec::new("fig_cold");
    spec.setups = SMALL_CLASS
        .iter()
        .map(|n| named(n, n, |s| s.smart = true))
        .collect();
    spec.setups.push(named("sn_s", "sn_s+cbr20", |s| {
        s.smart = true;
        s.buffers = BufferPreset::Cbr(20);
    }));
    spec.setups.push(named("sn_s", "sn_s+ugal-l", |s| {
        s.smart = true;
        s.routing = RoutingKind::UgalL;
    }));
    spec.setups.push(named("sn_s", "sn_s+storm", |s| {
        s.smart = true;
        s.faults = Some(FaultsSpec {
            events: Vec::new(),
            // Ten links fail inside the measured window.
            storm: Some(StormSpec {
                links: 10,
                start: warmup,
                window: measure / 2,
                seed: derive(seed, 2),
            }),
        });
    }));
    spec.patterns = vec![TrafficPattern::Random, TrafficPattern::Adversarial1];
    spec.loads = snoc_bench::load_grid();
    (spec.warmup, spec.measure) = (warmup, measure);
    spec.base_seed = derive(seed, 1);
    spec.refine_rounds = 1;
    spec.threads = 2;
    spec
}

/// `lowload_grid`: both size classes × the paper's four patterns at
/// four loads far below every knee, on one thread.
pub fn lowload_grid_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let mut spec = CampaignSpec::new("lowload_grid");
    spec.setups = SMALL_CLASS
        .iter()
        .chain(&LARGE_CLASS)
        .map(|n| SetupSpec::new(*n))
        .collect();
    spec.patterns = TrafficPattern::paper_set();
    spec.loads = vec![0.002, 0.004, 0.008, 0.016];
    (spec.warmup, spec.measure) = scale.windows(150, 600);
    spec.base_seed = derive(seed, 1);
    spec.threads = 1;
    spec
}

/// The grid the served store is pre-filled with: the small class × four
/// patterns × five loads, with 45 nm power columns.
pub fn served_base_spec(seed: u64, scale: Scale) -> CampaignSpec {
    let mut spec = CampaignSpec::new("served_mix");
    spec.setups = SMALL_CLASS.iter().map(|n| SetupSpec::new(*n)).collect();
    spec.patterns = TrafficPattern::paper_set();
    spec.loads = vec![0.008, 0.016, 0.03, 0.06, 0.1];
    (spec.warmup, spec.measure) = scale.windows(300, 1_200);
    spec.base_seed = derive(seed, 1);
    spec.threads = 1;
    spec.power_tech = Some(TechNode::N45);
    spec
}

/// One request of the `served_mix` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Resubmit the pre-filled base grid: every point is a hit.
    Warm,
    /// Submit widened spec `k`: the base grid gains one new low load,
    /// so 24 points (one per curve) are simulated and stored and the
    /// 120 stored ones replayed.
    Widened(usize),
    /// `GET /stats`.
    Stats,
}

impl Request {
    /// The op id: requests that do the same work share one, so their
    /// floors pool. Every warm resubmission replays the same grid; the
    /// widened ones simulate new loads within 4 % of each other, the
    /// same work to within what a point's own seed changes.
    pub fn op_key(self) -> &'static str {
        match self {
            Request::Warm => "warm",
            Request::Widened(_) => "widened",
            Request::Stats => "stats",
        }
    }

    fn line(self) -> String {
        match self {
            Request::Warm => "POST base".to_string(),
            Request::Widened(k) => format!("POST widened-{k}"),
            Request::Stats => "GET /stats".to_string(),
        }
    }

    fn parse(line: &str) -> Option<Request> {
        match line {
            "POST base" => Some(Request::Warm),
            "GET /stats" => Some(Request::Stats),
            other => other
                .strip_prefix("POST widened-")?
                .parse()
                .ok()
                .map(Request::Widened),
        }
    }
}

/// File names inside the scratch directory.
pub struct Paths {
    dir: PathBuf,
}

impl Paths {
    pub fn new(dir: &Path) -> Self {
        Paths {
            dir: dir.to_path_buf(),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn campaign_spec(&self, workload: &str) -> PathBuf {
        self.dir.join(format!("{workload}.spec.json"))
    }

    pub fn served_base(&self) -> PathBuf {
        self.dir.join("served_mix.base.spec.json")
    }

    pub fn served_widened(&self, k: usize) -> PathBuf {
        self.dir.join(format!("served_mix.widened-{k}.spec.json"))
    }

    pub fn served_schedule(&self) -> PathBuf {
        self.dir.join("served_mix.schedule.txt")
    }

    pub fn served_filler_keys(&self) -> PathBuf {
        self.dir.join("served_mix.filler_keys.txt")
    }

    pub fn big_point_params(&self) -> PathBuf {
        self.dir.join("big_point.params")
    }
}

/// Writes the named workload's inputs for `seed` under `paths`.
///
/// # Errors
///
/// Propagates filesystem errors; an unknown name is an error too.
pub fn generate(paths: &Paths, workload: &str, seed: u64, scale: Scale) -> io::Result<()> {
    fs::create_dir_all(paths.dir())?;
    match workload {
        "fig_cold" => fs::write(
            paths.campaign_spec(workload),
            fig_cold_spec(seed, scale).to_json(),
        ),
        "lowload_grid" => fs::write(
            paths.campaign_spec(workload),
            lowload_grid_spec(seed, scale).to_json(),
        ),
        "served_mix" => generate_served_mix(paths, seed, scale),
        "big_point" => {
            let (warmup, measure) = big_point_windows(scale);
            fs::write(
                paths.big_point_params(),
                format!(
                    "q=27\nconcentration=14\nload=0.02\nwarmup={warmup}\nmeasure={measure}\n\
                     seed={}\n",
                    derive(seed, 5)
                ),
            )
        }
        other => Err(io::Error::other(format!("unknown workload `{other}`"))),
    }
}

fn generate_served_mix(paths: &Paths, seed: u64, scale: Scale) -> io::Result<()> {
    let base = served_base_spec(seed, scale);
    fs::write(paths.served_base(), base.to_json())?;
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, 4));
    // New loads below the base grid, distinct per submission (so each
    // one misses) but within 4 % of each other (so each is the same
    // work); swept first, so a curve that saturates inside the base
    // grid (and stops there) still runs its new point.
    let mut steps: Vec<usize> = (0..WIDENED).collect();
    steps.shuffle(&mut rng);
    for (k, step) in steps.into_iter().enumerate() {
        let mut spec = base.clone();
        spec.loads.insert(0, 0.003 + 0.000_01 * step as f64);
        fs::write(paths.served_widened(k), spec.to_json())?;
    }
    let mut schedule: Vec<Request> = std::iter::repeat_n(Request::Warm, 32)
        .chain((0..WIDENED).map(Request::Widened))
        .chain(std::iter::repeat_n(Request::Stats, 4))
        .collect();
    schedule.shuffle(&mut rng);
    let lines: Vec<String> = schedule.iter().map(|r| r.line()).collect();
    fs::write(paths.served_schedule(), lines.join("\n") + "\n")?;
    let mut keys = String::with_capacity(FILLER_LINES * 33);
    let mut key_rng = ChaCha8Rng::seed_from_u64(derive(seed, 3));
    for _ in 0..FILLER_LINES {
        let _ = writeln!(
            keys,
            "{:016x}{:016x}",
            key_rng.next_u64(),
            key_rng.next_u64()
        );
    }
    fs::write(paths.served_filler_keys(), keys)
}

/// Reads the `served_mix` request schedule back.
///
/// # Errors
///
/// Fails on filesystem errors or an unknown schedule line.
pub fn read_schedule(paths: &Paths) -> io::Result<Vec<Request>> {
    fs::read_to_string(paths.served_schedule())?
        .lines()
        .map(|l| {
            Request::parse(l).ok_or_else(|| io::Error::other(format!("bad schedule line `{l}`")))
        })
        .collect()
}

/// The parameters of `big_point`.
#[derive(Debug, Clone, PartialEq)]
pub struct BigPointParams {
    pub q: usize,
    pub concentration: usize,
    pub load: f64,
    pub warmup: u64,
    pub measure: u64,
    pub seed: u64,
}

/// Reads the `big_point` parameter file back.
///
/// # Errors
///
/// Fails on filesystem errors or a missing or malformed field.
pub fn read_big_point_params(paths: &Paths) -> io::Result<BigPointParams> {
    let text = fs::read_to_string(paths.big_point_params())?;
    let field = |name: &str| -> io::Result<&str> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix('='))
            .ok_or_else(|| io::Error::other(format!("big_point.params: missing `{name}`")))
    };
    fn num<T: std::str::FromStr>(name: &str, raw: &str) -> io::Result<T> {
        raw.parse()
            .map_err(|_| io::Error::other(format!("big_point.params: bad `{name}`")))
    }
    Ok(BigPointParams {
        q: num("q", field("q")?)?,
        concentration: num("concentration", field("concentration")?)?,
        load: num("load", field("load")?)?,
        warmup: num("warmup", field("warmup")?)?,
        measure: num("measure", field("measure")?)?,
        seed: num("seed", field("seed")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        // Beside the test executable: inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("snoc-perf-inputs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_seed_same_files_other_seed_other_files() {
        let read_all = |seed: u64, tag: &str| {
            let dir = scratch(tag);
            let paths = Paths::new(&dir);
            for name in crate::workload::NAMES {
                generate(&paths, name, seed, Scale { smoke: true }).unwrap();
            }
            let mut files: Vec<(String, String)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let p = e.unwrap().path();
                    (
                        p.file_name().unwrap().to_string_lossy().into_owned(),
                        fs::read_to_string(&p).unwrap(),
                    )
                })
                .collect();
            files.sort();
            fs::remove_dir_all(&dir).unwrap();
            files
        };
        let a = read_all(7, "a");
        assert_eq!(a, read_all(7, "b"));
        let c = read_all(8, "c");
        assert_eq!(a.len(), c.len());
        assert!(a.iter().zip(&c).all(|(x, y)| x.0 == y.0 && x.1 != y.1));
    }

    #[test]
    fn schedule_and_params_round_trip() {
        let dir = scratch("rt");
        let paths = Paths::new(&dir);
        for name in ["served_mix", "big_point"] {
            generate(&paths, name, 3, Scale { smoke: false }).unwrap();
        }
        let schedule = read_schedule(&paths).unwrap();
        assert_eq!(schedule.len(), 48);
        let count = |want: fn(&Request) -> bool| schedule.iter().filter(|r| want(r)).count();
        assert_eq!(count(|r| *r == Request::Warm), 32);
        assert_eq!(count(|r| matches!(r, Request::Widened(_))), WIDENED);
        assert_eq!(count(|r| *r == Request::Stats), 4);
        let params = read_big_point_params(&paths).unwrap();
        assert_eq!((params.q, params.concentration), (27, 14));
        assert_eq!((params.warmup, params.measure), (100, 400));
        assert_eq!(params.seed, derive(3, 5));
        // Every widened spec parses and widens the base grid by one load.
        let mut new_loads = Vec::new();
        for k in 0..WIDENED {
            let text = fs::read_to_string(paths.served_widened(k)).unwrap();
            let spec = CampaignSpec::from_json(&text).unwrap();
            assert_eq!((spec.setups.len(), spec.loads.len()), (6, 6));
            new_loads.push(spec.loads[0].to_bits());
        }
        new_loads.sort_unstable();
        new_loads.dedup();
        assert_eq!(new_loads.len(), WIDENED, "distinct per submission");
        fs::remove_dir_all(&dir).unwrap();
    }
}
