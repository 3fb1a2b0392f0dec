//! What one invocation prints: notes for a reader, then one JSON line.

use crate::spec::DigestBook;
use crate::stats::{peak_rss_mb, BySeed, Samples};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "wall_s",
    "sim_muops_per_s",
    "cpu_ns_per_cycle",
    "result_p50_s",
    "result_p90_s",
    "campaigns_per_s",
    "completed_ratio",
    "peak_rss_mb",
];

#[derive(Debug)]
pub struct Report {
    workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            error: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Marks the run failed; the attempt in flight counts as failed.
    pub fn fail(mut self, error: String) -> Self {
        self.failed += 1;
        self.attempted = self.attempted.max(1);
        self.error = Some(error);
        self
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// A median, with its tail and sample count noted.
    pub fn timing(&mut self, name: &str, samples: &Samples, unit: &str) {
        self.metric(name, samples.median(), unit);
        self.note(samples.describe(name, unit));
    }

    /// The mean of per-seed medians, with the pooled tail noted.
    pub fn balanced(&mut self, name: &str, samples: &BySeed, unit: &str) {
        self.metric(name, samples.balanced_median(), unit);
        self.note(samples.describe(name, unit));
    }

    pub fn digest(&mut self, book: &DigestBook) {
        self.note(format!(
            "outcome digest {}: {:016x} over {} distinct campaign(s); repeats agree",
            self.workload,
            book.combined(),
            book.distinct()
        ));
    }

    /// Adds the completion ratio and the process's peak memory.
    pub fn finish(&mut self) {
        let completed = self.attempted - self.failed;
        self.metric("completed_ratio", completed as f64 / self.attempted.max(1) as f64, "ratio");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    pub fn correct(&self) -> bool {
        self.error.is_none()
    }

    /// Every note, then the result object as the last line.
    pub fn print(&self, expected: &[&str]) -> bool {
        for line in &self.notes {
            println!("{line}");
        }
        let mut error = self.error.clone();
        if error.is_none() {
            let missing: Vec<&str> = expected
                .iter()
                .copied()
                .filter(|name| !self.metrics.iter().any(|(n, _, _)| n == name))
                .collect();
            let bad: Vec<&str> = self
                .metrics
                .iter()
                .filter(|(n, v, _)| expected.contains(&n.as_str()) && !v.is_finite())
                .map(|(n, _, _)| n.as_str())
                .collect();
            if !missing.is_empty() || !bad.is_empty() {
                error = Some(format!("metrics missing {missing:?}, not finite {bad:?}"));
            }
        }
        if let Some(e) = &error {
            println!("error: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, v, _)| expected.contains(&n.as_str()) && v.is_finite())
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            error.is_none(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        error.is_none()
    }
}
