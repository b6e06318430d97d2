//! `cosim`: the paper's Table 2 measurement. `paper_scenario(Gui::Off)`
//! (kernel + 8051 BFM + video game + perfect player) driven by
//! `Rtos::run_until` over a long simulated horizon on one thread.
//!
//! A long co-simulation instance runs in blocks of 60 s simulated (one
//! Table 2 run each, 20 blocks per instance); a block's S/R is one
//! sample. The seed chooses how each block is cut into `run_until` segments; the
//! simulated behaviour is the same for every cut.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtk_bench::paper_scenario;
use rtk_core::{ObsEvent, ObsSink};
use rtk_farm::FarmRng;
use rtk_videogame::{Cosim, Gui};
use sysc::{RunOutcome, SimTime};

use crate::spans::Tracer;
use crate::{median, overhead_pct, repeat_for, Args, Run, Work};

/// Simulated time of one block.
const BLOCK_MS: u64 = 60_000;
/// Blocks one instance runs before a fresh one replaces it (build not
/// timed). Over longer horizons the tick count drifts from the block
/// grid (a lost tick now and then), and around block 84 a frame slips,
/// which would break the per-block checks.
const BLOCKS_PER_INSTANCE: u64 = 20;
/// Frames per block: the physics cyclic handler runs every 50 ms.
const FRAMES_PER_BLOCK: u64 = BLOCK_MS / 50;
/// Points per block: the perfect player catches every ball.
const SCORE_PER_BLOCK: u64 = 300;
/// Builds timed for `cosim.build_us` in the traced run.
const TRACED_BUILDS: usize = 16;

/// Counts kernel decisions; attached only in the set-up run.
#[derive(Default)]
struct CountSink(AtomicU64);

impl ObsSink for CountSink {
    fn event(&self, _ev: ObsEvent) {
        // A statistic: publishes no other data.
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// `run_until` offsets within a block: 500–5000 ms segments ending at
/// the block's end.
fn cuts(seed: u64) -> Vec<u64> {
    let mut rng = FarmRng::new(seed);
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < BLOCK_MS {
        at = (at + rng.range(500, 5000)).min(BLOCK_MS);
        cuts.push(at);
    }
    cuts
}

/// Simulated-domain counts; at the end of the first block they must
/// repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    now_ps: u64,
    events_fired: u64,
    process_runs: u64,
    delta_cycles: u64,
    time_advances: u64,
    fast_forwards: u64,
    ticks: u64,
    dispatches: u64,
    preemptions: u64,
    interruptions: u64,
    activations: u64,
    frames: u64,
    score: u64,
    lives: u64,
    game_over: u64,
}

impl Counts {
    fn of(cosim: &Cosim) -> Counts {
        let e = cosim.rtos.engine_stats();
        let r = cosim.rtos.run_stats();
        let game = cosim.game();
        let g = game.state.lock();
        Counts {
            now_ps: cosim.rtos.now().as_ps(),
            events_fired: e.events_fired,
            process_runs: e.process_runs,
            delta_cycles: e.delta_cycles,
            time_advances: e.time_advances,
            fast_forwards: e.fast_forwards,
            ticks: r.ticks,
            dispatches: r.dispatches,
            preemptions: r.preemptions,
            interruptions: r.interruptions,
            activations: r.activations,
            frames: g.frames,
            score: u64::from(g.score),
            lives: u64::from(g.lives),
            game_over: u64::from(g.game_over),
        }
    }

    fn identity(&self, obs_events: u64) -> Vec<(&'static str, u64)> {
        vec![
            ("now_ps", self.now_ps),
            ("events_fired", self.events_fired),
            ("process_runs", self.process_runs),
            ("delta_cycles", self.delta_cycles),
            ("time_advances", self.time_advances),
            ("fast_forwards", self.fast_forwards),
            ("ticks", self.ticks),
            ("dispatches", self.dispatches),
            ("preemptions", self.preemptions),
            ("interruptions", self.interruptions),
            ("activations", self.activations),
            ("frames", self.frames),
            ("score", self.score),
            ("lives", self.lives),
            ("game_over", self.game_over),
            ("obs_events", obs_events),
        ]
    }
}

/// One long co-simulation, run block after block.
struct Long {
    cosim: Cosim,
    blocks: u64,
}

impl Long {
    fn new() -> Self {
        Long {
            cosim: paper_scenario(Gui::Off),
            blocks: 0,
        }
    }

    /// Runs the next block through the seed's cuts. Returns its wall
    /// time, the engine's process runs during it, and whether every
    /// segment reached its limit.
    fn block(&mut self, cuts: &[u64], tr: &mut Tracer) -> (f64, u64, bool) {
        if self.blocks == BLOCKS_PER_INSTANCE {
            *self = Long::new();
        }
        let base = self.blocks * BLOCK_MS;
        let runs = self.cosim.rtos.engine_stats().process_runs;
        let rtos = &mut self.cosim.rtos;
        let t = Instant::now();
        let mut reached = true;
        for &cut in cuts {
            let limit = SimTime::from_ms(base + cut);
            let outcome = tr.span("cosim.run_until", None, |_| rtos.run_until(limit));
            reached &= outcome == RunOutcome::ReachedLimit && rtos.now() == limit;
        }
        let wall = t.elapsed().as_secs_f64();
        self.blocks += 1;
        let runs = self.cosim.rtos.engine_stats().process_runs - runs;
        (wall, runs, reached)
    }
}

/// Checks the state after a block: the first block must reproduce the
/// reference counts, and every block adds a block's frames and score
/// with no life lost.
fn check(run: &mut Run, long: &Long, reached: bool, reference: &Counts) {
    let got = Counts::of(&long.cosim);
    let k = long.blocks;
    let ok = reached
        && if k == 1 {
            got == *reference
        } else {
            got.frames == reference.frames + (k - 1) * FRAMES_PER_BLOCK
                && got.score == reference.score + (k - 1) * SCORE_PER_BLOCK
                && got.lives == reference.lives
                && got.game_over == 0
        };
    run.attempted += 1;
    if !run.expect(ok, || {
        format!("block {k}: reached {reached}, counts {got:?}, reference {reference:?}")
    }) {
        run.failed += 1;
    }
}

pub fn run(args: &Args, started: Instant, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let cuts = cuts(args.seed);

    // Set-up: one block on a separate instance with a counting
    // observation sink — the warm-up, and the reference counts — then
    // the instance the measurement runs.
    let sink = Arc::new(CountSink::default());
    let mut first = Long::new();
    first
        .cosim
        .rtos
        .set_obs_sink(Arc::clone(&sink) as Arc<dyn ObsSink>);
    let (_, _, reached) = first.block(&cuts, &mut Tracer::off());
    let reference = Counts::of(&first.cosim);
    drop(first);
    let obs_events = sink.0.load(Ordering::Relaxed);
    let mut long = Long::new();
    run.setup_s = started.elapsed().as_secs_f64();
    run.identity = reference.identity(obs_events);
    run.expect(reached && reference.game_over == 0, || {
        format!("set-up block: reached {reached}, {reference:?}")
    });
    if args.setup_only {
        return run;
    }

    // Kernel decisions per block are counted in the first block only
    // (no observer runs while timing); later blocks differ by < 1%.
    let work = Work {
        scenarios: 1.0,
        sim_s: BLOCK_MS as f64 * 1e-3,
        events: obs_events as f64,
    };
    if !args.trace {
        let walls = repeat_for(args.seconds, 5, || {
            let (wall, _, reached) = long.block(&cuts, &mut Tracer::off());
            check(&mut run, &long, reached, &reference);
            wall
        });
        run.end_to_end(work, &walls);
        return run;
    }

    // Traced run: elaboration timed on its own, then blocks alternate
    // untraced and traced on the long instance.
    for _ in 0..TRACED_BUILDS {
        drop(tracer.span("cosim.build", None, |_| paper_scenario(Gui::Off)));
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut traced_runs = 0;
    let _ = repeat_for(args.seconds, 2, || {
        let (wall, _, reached) = long.block(&cuts, &mut Tracer::off());
        check(&mut run, &long, reached, &reference);
        untraced.push(wall);
        let (wall, runs, reached) = tracer.span("cosim.block", None, |tr| long.block(&cuts, tr));
        check(&mut run, &long, reached, &reference);
        traced.push(wall);
        traced_runs += runs;
        wall
    });
    let traced_ns = traced.iter().sum::<f64>() * 1e9;
    let ticks_per_block = reference.ticks as f64;
    let r = reference;
    run.metric("sysc.events_fired", r.events_fired as f64, "count");
    run.metric("sysc.process_runs", r.process_runs as f64, "count");
    run.metric("sysc.time_advances", r.time_advances as f64, "count");
    run.metric("sysc.fast_forwards", r.fast_forwards as f64, "count");
    run.metric(
        "sysc.ns_per_activation",
        traced_ns / traced_runs as f64,
        "ns",
    );
    run.metric("core.ticks", r.ticks as f64, "count");
    run.metric("core.dispatches", r.dispatches as f64, "count");
    run.metric("core.preemptions", r.preemptions as f64, "count");
    run.metric("core.activations", r.activations as f64, "count");
    run.metric(
        "core.ns_per_tick",
        traced_ns / (ticks_per_block * traced.len() as f64),
        "ns",
    );
    let builds = tracer.durations("cosim.build");
    let build_us = median(builds.iter().map(|&ns| ns as f64 * 1e-3).collect());
    run.metric("cosim.build_us", build_us, "us");
    run.metric(
        "trace.overhead_pct",
        overhead_pct(median(traced), median(untraced)),
        "%",
    );
    run
}
