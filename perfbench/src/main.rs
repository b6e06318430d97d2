//! `perfbench` — one workload of the repository benchmark, in one process.
//!
//! ```text
//! perfbench <campaign|campaign_checked|trace_replay|cosim>
//!           --seed N --seconds S --trace 0|1 [--setup-only] [--out-dir DIR]
//! ```
//!
//! The process sets its workload up (timed as `setup_s`), runs the
//! correctness checks that need no timing, then repeats the workload's
//! timed pass for `--seconds` and reports medians. With `--trace 1` it
//! reports the per-layer ladder instead, from spans recorded around the
//! public calls into each layer. `--setup-only` stops after set-up, so
//! the driver can sample set-up time in fresh processes.
//!
//! The last stdout line is one JSON object: `setup_s`, `attempted`,
//! `failed`, `errors`, `identity` (the simulated-domain counts, which
//! must repeat exactly) and `metrics` (name → `[value, unit]`).

mod campaign;
mod cosim;
mod spans;
mod trace_replay;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

/// What one workload process measured and checked.
#[derive(Default)]
pub struct Run {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub identity: Vec<(&'static str, u64)>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    /// Records a failed check; the first few messages are kept.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
        ok
    }

    /// Adds a worker's attempts, failures and messages to this run.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.expect(false, || e);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds the end-to-end metrics shared by every workload.
    pub fn end_to_end(&mut self, work: Work, walls: &[f64]) {
        eprintln!(
            "perfbench: {} timed passes, wall s min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
            walls.len(),
            percentile(walls.to_vec(), 0.0),
            percentile(walls.to_vec(), 25.0),
            percentile(walls.to_vec(), 50.0),
            percentile(walls.to_vec(), 75.0),
            percentile(walls.to_vec(), 100.0),
        );
        let rate = |amount: f64| median(walls.iter().map(|w| amount / w).collect());
        self.metric("scenarios_per_s", rate(work.scenarios), "1/s");
        self.metric("sim_s_per_host_s", rate(work.sim_s), "s/s");
        self.metric("replay_events_per_s", rate(work.events), "1/s");
        self.metric("setup_s", self.setup_s, "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    fn to_json(&self) -> String {
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"setup_s\": {:e}, \"attempted\": {}, \"failed\": {}, \"errors\": [",
            self.setup_s, self.attempted, self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(j, "{sep}\"{}\"", rtk_analysis::json_escape(e));
        }
        j.push_str("], \"identity\": {");
        for (i, (k, v)) in self.identity.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(j, "{sep}\"{k}\": {v}");
        }
        j.push_str("}, \"metrics\": {");
        for (i, (k, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(j, "{sep}\"{k}\": [{v:e}, \"{unit}\"]");
        }
        j.push_str("}}");
        j
    }
}

/// The fixed work of one timed pass, in the units of the three
/// end-to-end throughputs.
#[derive(Clone, Copy)]
pub struct Work {
    /// Scenario instances run (or trace streams triaged).
    pub scenarios: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Kernel-decision (observation-stream) events covered.
    pub events: f64,
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of a sample.
pub fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Repeats `pass` (which returns its own timed seconds) until `seconds`
/// of wall time have gone by and at least `min_reps` passes ran.
pub fn repeat_for(seconds: f64, min_reps: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        walls.push(pass());
    }
    walls
}

/// Worker threads for the parallel workloads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, in MB (from `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracing overhead of one workload in percent: the traced pass's time
/// over the same pass untraced.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s * 100.0
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = spans::Tracer::new();
    let run = match args.workload.as_str() {
        "campaign" => campaign::run(&args, false, started, &mut tracer),
        "campaign_checked" => campaign::run(&args, true, started, &mut tracer),
        "trace_replay" => trace_replay::run(&args, started, &mut tracer),
        "cosim" => cosim::run(&args, started, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace && !args.setup_only {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| tracer.write_jsonl(&path))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", run.to_json());
}
