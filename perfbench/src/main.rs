//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_raw|train_sz|dist_sz|serve_mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable line per metric (untraced runs add the p90
//! tails of the end-to-end times, which the JSON line leaves out), then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//! The full record (with seed, cores, profile, git rev and
//! `RAYON_NUM_THREADS`) goes to `perfbench/results/`. Exits 1 when an
//! operation or an output check failed, 2 on a bad command line.
//! `--workload all` runs every workload in turn, each in a fresh process
//! of this binary (so process-wide figures such as peak RSS stay per
//! workload), and exits 1 if any of them failed.

use ebtrain_perfbench::harness::{self, Args, Tally};
use ebtrain_perfbench::{dist, layers, serve, train};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Pin the obs configuration the program ships with (metrics and
    // span histograms on, chrome trace off) whatever the environment
    // says; traced runs switch the chrome trace on for their traced
    // phase.
    ebtrain_obs::set_metrics_enabled(true);
    ebtrain_obs::set_hist_enabled(true);
    ebtrain_obs::set_trace_enabled(false);

    let mut tally = Tally::default();
    let mut got = match args.workload.as_str() {
        "train_raw" => train::train_raw(&args, &mut tally),
        "train_sz" => train::train_sz(&args, &mut tally),
        "dist_sz" => dist::dist_sz(&args, &mut tally),
        _ => serve::serve_mixed(&args, &mut tally),
    };
    let mut metrics = if args.trace {
        layers::complete(&layers::PER_LAYER, got, true, &mut tally)
    } else {
        got.add("peak_rss_mib", harness::peak_rss_mib(), "MiB");
        layers::complete(&layers::END_TO_END, got, false, &mut tally)
    };
    let tails = std::mem::take(&mut metrics.tails);
    let result = harness::finish(&args, tally, metrics);

    let dir = Path::new("perfbench/results");
    let stem = format!("{}-trace{}", args.workload, u8::from(args.trace));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), result.record_json()))
        .and_then(|()| {
            if args.trace {
                ebtrain_obs::write_trace_to(&dir.join(format!("{stem}.chrome.json")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }

    let m = &result.meta;
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} profile={} git_rev={} \
         RAYON_NUM_THREADS={}",
        m.workload,
        m.seed,
        m.seconds,
        u8::from(m.trace),
        m.nproc,
        m.profile,
        m.git_rev,
        m.rayon_threads
    );
    for metric in &result.metrics {
        println!(
            "  {:<28} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for (tail, samples) in &tails {
        println!(
            "  {:<28} {:>14.6} {} (p90 of {samples} samples; printed only)",
            tail.name, tail.value, tail.unit
        );
    }
    println!(
        "  {:<28} {:>14.6} frac ({} failed of {} attempted)",
        "error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.summary_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload in a child process with the same seed, seconds and
/// trace flag; their output passes straight through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in harness::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: {w} did not run: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
