//! `trace_replay`: kernel-free triage in memory.
//!
//! Set-up captures each seed's observation stream with
//! `run_scenario_observed`. The timed pass runs, per stream,
//! `encode_trace` → `decode_trace` → `replay_decoded` → `replay_analysis`
//! with no disk I/O, on one thread per core: the codec, the offline
//! oracle and the analyzer do all the work, the engine and kernel none.

use std::path::PathBuf;
use std::time::Instant;

use rtk_analysis::static_verify::Verdict;
use rtk_analysis::trace_codec::{
    decode_trace, encode_trace, TraceHeader, TraceTrailer, TraceTuning,
};
use rtk_core::StampedEvent;
use rtk_farm::replay::{replay_analysis, replay_decoded};
use rtk_farm::{run_scenario_observed, ScenarioSpec, Tuning};

// Streams per pass come from the campaign's seed windows: 1000 streams
// are enough that a window's mix of scenario families, and so its events
// per stream, varies little between windows.
use crate::campaign::{WINDOW as STREAMS, WINDOWS};
use crate::spans::Tracer;
use crate::{median, nproc, overhead_pct, repeat_for, Args, Run, Work};

/// One captured stream and what the live run reported for it.
struct Capture {
    path: PathBuf,
    header: TraceHeader,
    events: Vec<StampedEvent>,
    live_events: u64,
    live_divergence: Option<(u64, String)>,
    sim_ps: u64,
}

/// Simulated-domain counts of one pass; they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    events: u64,
    trace_bytes: u64,
    oracle_events: u64,
    clean_verdicts: u64,
    diverged: u64,
    deadlock_certified: u64,
    schedulable: u64,
    conformance_violations: u64,
}

impl Counts {
    fn identity(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events", self.events),
            ("trace_bytes", self.trace_bytes),
            ("oracle_events", self.oracle_events),
            ("clean_verdicts", self.clean_verdicts),
            ("diverged", self.diverged),
            ("deadlock_certified", self.deadlock_certified),
            ("schedulable", self.schedulable),
            ("conformance_violations", self.conformance_violations),
        ]
    }
}

/// Captures the window's streams on one thread per core.
fn capture(first_seed: u64) -> Vec<Capture> {
    let threads = nproc() as u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let lo = first_seed + STREAMS * w / threads;
                let hi = first_seed + STREAMS * (w + 1) / threads;
                scope.spawn(move || capture_range(lo, hi))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a capture worker panicked"))
            .collect()
    })
}

fn capture_range(lo: u64, hi: u64) -> Vec<Capture> {
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    (lo..hi)
        .map(|seed| {
            let spec = ScenarioSpec::generate(seed, &tuning);
            let (out, events) = run_scenario_observed(&spec, sysc::Runtime::default());
            let mut header = TraceHeader::new(
                seed,
                spec.topology.label(),
                sysc::Runtime::default().as_str(),
            );
            header.tuning = Some(TraceTuning {
                quick: tuning.quick,
                faults: tuning.faults,
            });
            Capture {
                path: PathBuf::from(format!("seed-{seed:010}.rtkt")),
                header,
                events,
                live_events: out.oracle_events,
                live_divergence: out.divergence,
                sim_ps: out.stats.now.as_ps(),
            }
        })
        .collect()
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.events += o.events;
        self.trace_bytes += o.trace_bytes;
        self.oracle_events += o.oracle_events;
        self.clean_verdicts += o.clean_verdicts;
        self.diverged += o.diverged;
        self.deadlock_certified += o.deadlock_certified;
        self.schedulable += o.schedulable;
        self.conformance_violations += o.conformance_violations;
    }
}

/// One untraced triage pass on one thread per core; stream `i` goes to
/// worker `i mod n`. Keeping every core busy makes the pass much less
/// sensitive to other load on the host than a single thread is.
fn parallel_pass(streams: &[Capture], run: &mut Run) -> Counts {
    let n = nproc();
    let results: Vec<(Counts, Run)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .map(|w| {
                scope.spawn(move || {
                    let mut r = Run::default();
                    let c = pass(
                        streams.iter().skip(w).step_by(n),
                        &mut r,
                        false,
                        &mut Tracer::off(),
                    );
                    (c, r)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("a replay worker panicked"))
            .collect()
    });
    let mut c = Counts::default();
    for (counts, r) in results {
        c.add(counts);
        run.absorb(r);
    }
    c
}

/// One triage pass over `streams` on the calling thread. Each stream's
/// round trip, oracle verdict and static analysis must match the live
/// run; `deep` also compares the decoded events one by one.
fn pass<'a>(
    streams: impl Iterator<Item = &'a Capture>,
    run: &mut Run,
    deep: bool,
    tr: &mut Tracer,
) -> Counts {
    let mut c = Counts::default();
    for s in streams {
        let id = Some(s.header.seed);
        let n = s.events.len() as u64;
        let bytes = tr.span("codec.encode", id, |_| {
            encode_trace(&s.header, &s.events, Some(TraceTrailer::clean(n)))
        });
        let decoded = tr.span("codec.decode", id, |_| decode_trace(&bytes));
        c.events += n;
        c.trace_bytes += bytes.len() as u64;
        run.attempted += 1;
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                run.failed += 1;
                run.expect(false, || {
                    format!("seed {}: decode failed: {e:?}", s.header.seed)
                });
                continue;
            }
        };
        let round_trip = if deep {
            decoded.events == s.events
        } else {
            decoded.events.len() == s.events.len()
        };
        let replayed = tr.span("oracle.replay", id, |_| {
            replay_decoded(s.path.clone(), decoded)
        });
        let analysis = tr.span("verify.replay_analysis", id, |_| replay_analysis(&replayed));
        let verdict = &replayed.verdict;
        c.oracle_events += verdict.events_checked;
        c.clean_verdicts += u64::from(verdict.divergence.is_none());
        c.diverged += u64::from(verdict.divergence.is_some());
        let divergence = verdict
            .divergence
            .as_ref()
            .map(|d| (d.index as u64, d.to_string()));
        let same_verdict = verdict.events_checked == s.live_events
            && divergence == s.live_divergence
            && replayed.complete
            && replayed.clean;
        let consistent = match &analysis {
            Ok(a) => {
                c.deadlock_certified += u64::from(a.deadlock == Verdict::Certified);
                c.schedulable += u64::from(a.schedulable == Verdict::Certified);
                c.conformance_violations += a.conformance_violations;
                a.consistent()
            }
            Err(_) => false,
        };
        let ok = round_trip && same_verdict && consistent && divergence.is_none();
        if !run.expect(ok, || {
            format!(
                "seed {}: round trip {round_trip}, verdict as live {same_verdict}, \
                 analysis consistent {consistent}, divergence {divergence:?}",
                s.header.seed
            )
        }) {
            run.failed += 1;
        }
    }
    c
}

pub fn run(args: &Args, started: Instant, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let first_seed = 1 + STREAMS * (args.seed % WINDOWS);

    // Set-up: capture the streams, then one warm-up pass (the first
    // pass's lazy set-up belongs to set-up, not to the timed passes).
    let streams = capture(first_seed);
    let reference = parallel_pass(&streams, &mut run);
    run.setup_s = started.elapsed().as_secs_f64();
    run.identity = reference.identity();
    if args.setup_only {
        return run;
    }
    let deep = pass(streams.iter(), &mut run, true, &mut Tracer::off());
    run.expect(deep == reference, || {
        format!("deep pass {deep:?} vs {reference:?}")
    });

    let work = Work {
        scenarios: streams.len() as f64,
        sim_s: streams.iter().map(|s| s.sim_ps as f64 * 1e-12).sum(),
        events: reference.events as f64,
    };
    if !args.trace {
        let walls = repeat_for(args.seconds, 3, || {
            let t = Instant::now();
            let got = parallel_pass(&streams, &mut run);
            let wall = t.elapsed().as_secs_f64();
            run.expect(got == reference, || {
                format!("pass {got:?} vs {reference:?}")
            });
            wall
        });
        run.end_to_end(work, &walls);
        return run;
    }

    // Traced run. Spans are recorded on one thread, so the traced pass
    // runs serially; serial passes alternate untraced and traced, and the
    // difference of their medians is the tracing overhead.
    let timed = |run: &mut Run, tr: &mut Tracer| {
        let t = Instant::now();
        let got = pass(streams.iter(), run, false, tr);
        let wall = t.elapsed().as_secs_f64();
        run.expect(got == reference, || {
            format!("pass {got:?} vs {reference:?}")
        });
        wall
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let _ = repeat_for(args.seconds, 2, || {
        untraced.push(timed(&mut run, &mut Tracer::off()));
        let wall = tracer.span("replay.pass", None, |tr| timed(&mut run, tr));
        traced.push(wall);
        wall
    });
    let selfs = tracer.self_ns_by_name();
    let s = |name| selfs.get(name).copied().unwrap_or(0) as f64 * 1e-9;
    let passes = traced.len() as f64;
    let events = reference.events as f64 * passes;
    let mb = reference.trace_bytes as f64 * passes * 1e-6;
    run.metric("oracle.events", reference.oracle_events as f64, "count");
    run.metric(
        "oracle.ns_per_event",
        s("oracle.replay") * 1e9 / events,
        "ns",
    );
    run.metric(
        "verify.replay_analysis_ns_per_event",
        s("verify.replay_analysis") * 1e9 / events,
        "ns",
    );
    run.metric(
        "verify.deadlock_certified",
        reference.deadlock_certified as f64,
        "count",
    );
    run.metric("verify.schedulable", reference.schedulable as f64, "count");
    run.metric(
        "verify.contradictions",
        reference.conformance_violations as f64,
        "count",
    );
    run.metric("codec.encode_mb_per_s", mb / s("codec.encode"), "MB/s");
    run.metric("codec.decode_mb_per_s", mb / s("codec.decode"), "MB/s");
    run.metric(
        "codec.bytes_per_event",
        reference.trace_bytes as f64 / reference.events as f64,
        "B",
    );
    run.metric(
        "trace.overhead_pct",
        overhead_pct(median(traced), median(untraced)),
        "%",
    );
    run
}
