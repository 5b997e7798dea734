//! Host clocks and the reductions every timing metric goes through.
//!
//! All times are **host** time. The reductions are the floor-timing
//! rule of the benchmark: a run is many identical passes; a per-op
//! metric takes each op's minimum across passes (op *i* is the same
//! deterministic work in every pass) and only then a percentile over
//! ops; a pass-level metric is the fastest pass after each pass is
//! deflated by its own op-level slowdown ([`deflated_floors`]).
//! Interference on a shared host is additive and bursty, so the floor
//! repeats where a mean or a median of few passes does not (see
//! `benchmark/README.md`).

use std::collections::BTreeMap;
use std::time::Instant;

/// A started wall + process-CPU stopwatch.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn wall_start(&self) -> Instant {
        self.wall
    }

    /// `(wall seconds, process user+sys CPU seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system CPU of every
/// thread of the process, exited threads included, at ns resolution
/// (`/proc/self/stat` only offers 10 ms ticks).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer; `Timespec` is `repr(C)` with the two 64-bit fields that
    // struct has on 64-bit Linux (the only platform this benchmark runs
    // on — it also reads `/proc`), and `ts` outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Runs `f` `reps` times and returns its fastest wall time in seconds
/// together with the last result.
pub fn floor_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

/// Per-op floors across passes, keyed by a pass-independent op id. Ops
/// that repeat the same work within a pass share an id, and with it
/// one floor pooled over all their samples.
#[derive(Default)]
pub struct OpFloors(BTreeMap<String, (f64, usize)>);

impl OpFloors {
    /// Folds one pass's `(op id, seconds)` samples in.
    pub fn record_pass(&mut self, ops: &[(String, f64)]) {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for (key, secs) in ops {
            *seen.entry(key).or_default() += 1;
            let (floor, _) = self.0.entry(key.clone()).or_insert((*secs, 0));
            *floor = floor.min(*secs);
        }
        for (key, count) in seen {
            let (_, per_pass) = self.0.get_mut(key).expect("recorded above");
            *per_pass = (*per_pass).max(count);
        }
    }

    /// Distinct op ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(op id, floor seconds)` of every distinct op, by id.
    pub fn by_id(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(id, &(floor, _))| (id.as_str(), floor))
    }

    /// One floor per op of a pass, ascending: an id that occurs `n`
    /// times in a pass contributes its floor `n` times.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .0
            .values()
            .flat_map(|&(floor, per_pass)| std::iter::repeat_n(floor, per_pass))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The pass-level floors. Each pass is first divided by its own
/// measured slowdown — the sum of its op times over the sum of the
/// per-op floors. The wall metric is the fastest deflated pass; the CPU
/// metric is the *median* deflated pass.
///
/// A plain fastest-pass floor needs one whole pass without
/// interference, which a shared host rarely grants to a pass of a
/// second or more; per-op floors need only one quiet moment per op.
/// Deflating keeps what the ops do not see (set-up inside the pass,
/// thread imbalance, barriers, framing) at its measured size and takes
/// the interference out at the rate the pass's own ops suffered it.
///
/// CPU takes the median because its two disturbances pull apart: cache
/// and SMT contention inflate a pass's CPU with its wall (deflation
/// undoes that), but a stolen vCPU inflates the wall only, so deflating
/// such a pass pushes its CPU *below* the truth and a minimum would
/// pick exactly those.
/// `passes` holds `(wall, cpu, sum of op seconds)` per pass.
pub fn deflated_floors(passes: &[(f64, f64, f64)], op_floor_sum_s: f64) -> (f64, f64) {
    // Never inflate a pass whose ops beat the sum of the floors, and
    // leave one that timed no ops as it is.
    let deflate = |op_sum_s: f64| {
        if op_sum_s > 0.0 {
            (op_floor_sum_s / op_sum_s).min(1.0)
        } else {
            1.0
        }
    };
    let wall_s = passes
        .iter()
        .map(|&(wall_s, _, op_sum_s)| wall_s * deflate(op_sum_s))
        .fold(f64::INFINITY, f64::min);
    let cpu: Vec<f64> = passes
        .iter()
        .map(|&(_, cpu_s, op_sum_s)| cpu_s * deflate(op_sum_s))
        .collect();
    (wall_s, median(&cpu))
}

/// Median of an ascending slice (mean of the middle two when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// The tail rule: the highest percentile that still has at least ten
/// samples beyond it. With fewer than twenty samples no percentile
/// qualifies and the tail is the slowest sample. Returns the value and
/// how many samples lie beyond it.
pub fn tail_sorted(sorted: &[f64]) -> (f64, usize) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n < 20 {
        (sorted[n - 1], 0)
    } else {
        (sorted[n - 11], 10)
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the benchmark driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// 64-bit FNV-1a, the digest of result bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (19.0, 0), "< 20 samples: the slowest");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (10.0, 10));
        let v: Vec<f64> = (1..=136).map(f64::from).collect();
        let (value, beyond) = tail_sorted(&v);
        assert_eq!((value, beyond), (126.0, 10));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn op_floors_keep_each_ops_minimum_across_passes() {
        let mut floors = OpFloors::default();
        for (pass, noise) in [(0, 5.0), (1, 0.0), (2, 9.0)] {
            // Op `op` costs `op + 1`; each pass is clean for some ops.
            let mut ops: Vec<(String, f64)> = (0..4)
                .map(|op| {
                    let hit = if (op + pass) % 3 == 0 {
                        0.0
                    } else {
                        noise + 1.0
                    };
                    (format!("op{op}"), f64::from(op + 1) + hit)
                })
                .collect();
            // "same" occurs twice per pass and pools all six samples.
            ops.push(("same".to_string(), 10.0 + noise));
            ops.push(("same".to_string(), 11.0 + f64::from(pass)));
            floors.record_pass(&ops);
        }
        assert_eq!(floors.len(), 5);
        assert_eq!(floors.sorted(), vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0]);
    }

    #[test]
    fn deflation_removes_the_slowdown_a_passs_own_ops_measured() {
        // Three ops with floors 1, 2, 3 (sum 6) plus 0.6 of work no op
        // sees. Pass A is clean; pass B ran 1.5x slow throughout; pass C
        // took a burst of 4 in one op only. CPU is twice the wall, but
        // C's burst was a stolen vCPU: wall only.
        let passes = [(6.6, 13.2, 6.0), (9.9, 19.8, 9.0), (10.6, 13.2, 10.0)];
        let (wall, cpu) = deflated_floors(&passes, 6.0);
        assert!((wall - 10.6 * 0.6).abs() < 1e-12, "C deflates furthest");
        assert!((cpu - 13.2).abs() < 1e-9, "the median ignores C's 7.92");
        // Every deflated pass lands within the unseen share of the clean one.
        for &(wall, _, sum) in &passes {
            let deflated = wall * 6.0 / sum;
            assert!((6.0..=6.6 + 1e-12).contains(&deflated), "{deflated}");
        }
        // A pass is never inflated, even if its ops beat the floors' sum.
        assert_eq!(deflated_floors(&[(5.0, 5.0, 4.0)], 6.0), (5.0, 5.0));
        // Without ops there is nothing to deflate by.
        assert_eq!(deflated_floors(&[(5.0, 5.0, 0.0)], 0.0), (5.0, 5.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn fnv_digest_is_the_reference_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn floor_of_returns_the_fastest_repetition() {
        let mut calls = 0;
        let (best, last) = floor_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!(last, 3);
        assert!(best >= 0.0 && best.is_finite());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > a);
        assert!(peak_rss_mib() > 0.0);
    }
}
