//! Order statistics over repeated samples, and process-level host readings.

/// Samples of one metric, reported as a median plus the highest tail
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Tail percentiles considered, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `p`-th percentile (0..=100) by linear interpolation between
    /// closest ranks; `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest of [`TAILS`] with at least ten samples above it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.values.len() as f64;
        TAILS.into_iter().find(|p| n * (1.0 - p / 100.0) >= 10.0).map(|p| (p, self.percentile(p)))
    }

    /// One human-readable summary line: median, tail and sample count.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p} {v:.6}"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!("{name}: median {:.6} {unit}; {tail}; n={}", self.median(), self.len())
    }
}

/// Samples split by the trace seed they were measured on. A run cycles
/// through its trace seeds, and their costs differ, so the median of the
/// pooled samples would jump between seeds; the mean of the per-seed
/// medians does not.
#[derive(Debug, Clone, Default)]
pub struct BySeed {
    groups: Vec<Samples>,
}

impl BySeed {
    pub fn push(&mut self, seed_index: usize, value: f64) {
        if self.groups.len() <= seed_index {
            self.groups.resize(seed_index + 1, Samples::default());
        }
        self.groups[seed_index].push(value);
    }

    /// Mean over trace seeds of each seed's median.
    pub fn balanced_median(&self) -> f64 {
        let medians: Vec<f64> = self.groups.iter().map(Samples::median).collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    /// Every sample, whichever seed it came from.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for v in self.groups.iter().flat_map(|g| g.values.iter()) {
            all.push(*v);
        }
        all
    }

    /// One human-readable summary line, as [`Samples::describe`] plus the
    /// per-seed medians and their mean.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let medians: Vec<String> =
            self.groups.iter().map(|g| format!("{:.6}", g.median())).collect();
        format!(
            "{}; per-seed medians [{}], mean {:.6}",
            self.pooled().describe(name, unit),
            medians.join(", "),
            self.balanced_median()
        )
    }
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a valid constant, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, continuing from `hash` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
