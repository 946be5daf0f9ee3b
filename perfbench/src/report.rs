//! What a run reports: metrics with units, correctness checks, failure
//! counts with their base, and the environment the numbers came from.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(kind, failed, attempted)`: the failure share of each operation
    /// kind, printed with its base.
    pub failures: Vec<(String, u64, u64)>,
}

impl Report {
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Count `failed` failures out of `attempted` operations of one kind.
    pub fn ops(&mut self, kind: &str, failed: u64, attempted: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.push((kind.to_string(), failed, attempted));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Every line of the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        for (kind, failed, attempted) in &self.failures {
            let _ = writeln!(
                out,
                "failures {kind}: {failed} of {attempted} ({:.4}%)",
                share(*failed, *attempted) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "failures total: {} of {} attempted ({:.4}%)",
            self.failed,
            self.attempted,
            share(self.failed, self.attempted) * 100.0
        );
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *ok { "PASS" } else { "FAIL" });
        }
        out
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

pub fn share(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

/// JSON has no NaN or infinity; a value that is not finite is reported as
/// -1 (and no metric is legitimately negative).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Write `contents` to `perfbench/out/<name>` under the working directory
/// (the checkout root), creating the directory.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit, core count and compiler: recorded with every result so a trend
/// stays readable later.
pub fn environment() -> String {
    // Only ask git about a checkout that is itself a repository, never an
    // enclosing one.
    let sha = if Path::new(".git").exists() { run("git", &["rev-parse", "HEAD"]) } else { None }
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!("{{\"git_sha\":\"{sha}\",\"available_parallelism\":{cores},\"rustc\":\"{rustc}\"}}")
}

fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
