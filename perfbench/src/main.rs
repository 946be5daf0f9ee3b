//! hpcmon benchmark: two registered workloads, end-to-end metrics, and a
//! traced per-layer run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dashboard_512|incident_512> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload incident_512_wal_slo` is `incident_512` with the health
//! plane's `store/durability` SLO; its recovery check fails on the current
//! program (see `Workload::Incident512WalSlo`).
//!
//! `--trace 0` runs the assembled system untraced and reports the
//! end-to-end metrics.  `--trace 1` runs the same workload untraced for
//! reference, then re-drives every tick stage from this package through
//! the layer crates' public functions with a span around each call, and
//! reports the per-layer metrics.  Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The process exits non-zero when a correctness check fails.
//!
//! `--seconds` fixes the work, not a deadline: a run times
//! `seconds × rate` ticks (dashboard: rounds), with the rate a 2-core box
//! sustains, so every commit measured with the same arguments does the
//! same work.  Span files and a copy of the output go to `perfbench/out/`.

mod alloc;
mod e2e;
mod report;
mod span;
mod stats;
mod traced;
mod workload;

use report::{environment, peak_rss_mb, write_artifact};
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, not {n}")),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds: num("--seconds")?.max(1), trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let header = format!(
        "environment: {}\nconfig: {}\n",
        environment(),
        w.describe(args.seed, args.seconds)
    );
    print!("{header}");
    // Injected collector panics are caught by the supervisor; keep their
    // default report (a backtrace each) off the output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<&str>().copied().unwrap_or_default();
        if !msg.starts_with("chaos: injected") {
            default_hook(info);
        }
    }));
    let report = if args.trace {
        traced::run(w, args.seed, args.seconds)
    } else {
        let mut report = e2e::run(w, args.seed, args.seconds, false).0;
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report
    };
    let body = format!("{}{}\n", report.render(), report.json());
    let name = format!("result-{}-seed{}-trace{}.txt", w.name(), args.seed, u8::from(args.trace));
    if let Err(e) = write_artifact(&name, &format!("{header}{body}")) {
        eprintln!("perfbench: could not write {name}: {e}");
    }
    print!("{body}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
