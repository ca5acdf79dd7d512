//! The repository benchmark: three seeded workloads against the public
//! API of the workspace crates, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload engine-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` reports the end-to-end
//! metrics of an untraced run; `--trace 1` reports the per-layer
//! metrics of a traced run, measured against an untraced run of the same
//! length. Every answer is checked. The last line of standard output is
//! the result as one JSON object; `README.md` beside this file lists
//! the workloads and metrics.

mod collector;
mod common;
mod engine_paper;
mod layers;
mod serve;

use common::{median, Hist, Metrics, Part, PARTS};
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Variables that silently change the execution mode or the vectorized
/// chunk size of the whole process.
const FORBIDDEN_ENV: [&str; 3] = [
    "SETJOINS_EXECUTION",
    "SETJOINS_TEST_THREADS",
    "SETJOINS_TEST_CHUNK",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or_else(|| missing("--seconds > 0"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Report on standard error how long the step that just ended took.
pub fn progress(step: &str) {
    static LAST: Mutex<Option<Instant>> = Mutex::new(None);
    let mut last = LAST.lock().expect("progress clock poisoned");
    let now = Instant::now();
    if let Some(prev) = *last {
        eprintln!("{step}: {:.2} s", (now - prev).as_secs_f64());
    }
    *last = Some(now);
}

/// The end-to-end metrics every workload shares. `parts` holds, per
/// caller, its parts of the untraced timed phase; throughput is summed
/// over the callers within a part. `window_medians` holds every caller's
/// `common::WindowMedians`. `peak_rss` is read right after the untraced timed
/// phase, so the answer checks that follow do not count.
pub fn put_common(
    m: &mut Metrics,
    setup_s: f64,
    parts: &[[Part; PARTS]],
    window_medians: &[f64],
    peak_rss: f64,
) {
    let mut throughput: Vec<f64> = Vec::new();
    let mut p99 = Vec::new();
    for i in 0..PARTS {
        let mut latency = Hist::default();
        for caller in parts {
            latency.merge(&caller[i].latency);
        }
        throughput.push(parts.iter().map(|caller| caller[i].throughput()).sum());
        p99.push(latency.quantile(0.99));
    }
    let p50 = window_medians.iter().sum::<f64>() / window_medians.len().max(1) as f64;
    m.put("setup_s", setup_s, "s");
    m.put("throughput_ops_s", median(&throughput), "1/s");
    m.put("latency_p50_ms", p50, "ms");
    m.put("latency_p99_ms", median(&p99), "ms");
    m.put("peak_rss_mib", peak_rss, "MiB");
}

fn run(args: &Args) -> Result<common::Outcome, String> {
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "engine-paper" => engine_paper::run(args.seed, seconds, args.trace),
        "serve-hot" => serve::run(serve::Mix::Hot, args.seed, seconds, args.trace),
        "serve-churn" => serve::run(serve::Mix::Churn, args.seed, seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; unset it so the configuration is the pinned one");
        return ExitCode::from(2);
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "config: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"git_revision\": {}, \"rustc\": {}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["-V"])),
    );
    progress("start");
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(bad) = outcome.metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a finite number", bad.name);
        return ExitCode::from(1);
    }
    for m in &outcome.metrics.0 {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
