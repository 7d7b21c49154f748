//! A lightweight wall-clock benchmark harness: warmup + N timed samples
//! per bench, median/p10/p90 summary, JSON report under `bench_results/`.
//!
//! Used by the `harness = false` bench targets (`crates/bench/benches/
//! paper.rs`, `crates/fabric/benches/transport.rs`). Wall-clock numbers
//! track the *simulator's* speed; the paper's figures are virtual-time
//! measurements and come from `ibflow-bench` instead.
//!
//! CLI behaviour mirrors the standard harness closely enough for cargo:
//! `--test` (passed by `cargo test --benches`) runs every bench once
//! without recording; a bare positional argument filters benches by
//! substring; other flags (e.g. `--bench`) are ignored.

#![expect(
    clippy::disallowed_types,
    reason = "the bench harness exists to measure host wall time; nothing here feeds a simulation result"
)]

use std::time::Instant;

/// Summary statistics over one bench's samples, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// 50th percentile (nearest-rank on sorted samples).
    pub median_ns: u64,
    /// 10th percentile.
    pub p10_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
}

/// One bench's recorded samples plus its summary.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Bench name (unique within the group).
    pub name: String,
    /// Raw samples in execution order, nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Summary statistics.
    pub stats: Stats,
}

/// Computes summary statistics; panics on an empty sample set.
pub fn stats(samples_ns: &[u64]) -> Stats {
    assert!(!samples_ns.is_empty(), "no samples");
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    };
    Stats {
        min_ns: sorted[0],
        mean_ns: (samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64) as u64,
        median_ns: pct(50.0),
        p10_ns: pct(10.0),
        p90_ns: pct(90.0),
    }
}

/// A bench group: register benches with [`Harness::bench`], then call
/// [`Harness::finish`] to print the table and write the JSON report.
pub struct Harness {
    group: String,
    warmup: u32,
    samples: u32,
    test_mode: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness for `group`, reading flags from the process
    /// arguments (see module docs).
    pub fn new(group: &str) -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                test_mode = true;
            } else if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        Harness {
            group: group.to_string(),
            warmup: 1,
            samples: 7,
            test_mode,
            filter,
            results: Vec::new(),
        }
    }

    /// Overrides warmup and sample counts (defaults: 1 warmup, 7 samples).
    pub fn with_samples(mut self, warmup: u32, samples: u32) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.warmup = warmup;
        self.samples = samples;
        self
    }

    /// Runs and records one bench.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        if self.test_mode {
            f();
            println!("test {} ... ok", name);
            return;
        }
        for _ in 0..self.warmup {
            f();
        }
        let mut samples_ns = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            f();
            samples_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let s = stats(&samples_ns);
        println!(
            "{:<44} median {:>12}  p10 {:>12}  p90 {:>12}",
            name,
            fmt_ns(s.median_ns),
            fmt_ns(s.p10_ns),
            fmt_ns(s.p90_ns)
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            samples_ns,
            stats: s,
        });
    }

    /// Prints the summary header and writes `bench_results/<group>.json`.
    /// Returns the path written, or `None` in `--test` mode.
    pub fn finish(self) -> Option<std::path::PathBuf> {
        if self.test_mode {
            return None;
        }
        let dir = match std::env::var("IBFLOW_BENCH_DIR") {
            Ok(d) => std::path::PathBuf::from(d),
            // testutil lives at crates/testutil; the workspace root is two up.
            Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"),
        };
        std::fs::create_dir_all(&dir).expect("create bench_results dir");
        let path = dir.join(format!("{}.json", self.group));
        std::fs::write(&path, to_json(&self.group, self.samples, &self.results))
            .expect("write bench report");
        println!("\n{} benches -> {}", self.results.len(), path.display());
        Some(path)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn to_json(group: &str, samples_per_bench: u32, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"group\": \"{}\",\n", json_escape(group)));
    out.push_str(&format!("  \"samples_per_bench\": {samples_per_bench},\n"));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}, \
             \"mean_ns\": {}, \"min_ns\": {}, \"samples_ns\": [{}]}}{}\n",
            json_escape(&r.name),
            s.median_ns,
            s.p10_ns,
            s.p90_ns,
            s.mean_ns,
            s.min_ns,
            r.samples_ns
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_known_samples() {
        let s = stats(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110]);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.median_ns, 60);
        assert_eq!(s.p10_ns, 20);
        assert_eq!(s.p90_ns, 100);
        assert_eq!(s.mean_ns, 60);
    }

    #[test]
    fn stats_single_sample() {
        let s = stats(&[42]);
        assert_eq!(s.min_ns, 42);
        assert_eq!(s.median_ns, 42);
        assert_eq!(s.p10_ns, 42);
        assert_eq!(s.p90_ns, 42);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn stats_rejects_empty() {
        let _ = stats(&[]);
    }

    #[test]
    fn json_report_shape() {
        let r = BenchResult {
            name: "a\"b".to_string(),
            samples_ns: vec![1, 2, 3],
            stats: stats(&[1, 2, 3]),
        };
        let j = to_json("g", 3, &[r]);
        assert!(j.contains("\"group\": \"g\""));
        assert!(j.contains("a\\\"b"));
        assert!(j.contains("\"samples_ns\": [1, 2, 3]"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500s");
    }
}
