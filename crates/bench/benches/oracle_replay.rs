// The verification rung of the per-layer cost ladder: the differential
// oracle replaying captured observation streams, next to the `.rtkt`
// codec that carries those streams to it.
//
// Set-up (untimed) captures the `--quick` observation streams of a
// fixed seed set with `run_scenario_observed`, and encodes them once
// for the decode row. The timed rows then cover every stream:
//
// * `checker_replay` — a fresh `Checker` per stream, fed event by
//   event, verdict at the end (what `--replay` and `--oracle` pay);
// * `encode_trace` / `decode_trace` — the in-memory `.rtkt` round
//   trip of the same streams.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rtk_analysis::trace_codec::{decode_trace, encode_trace, TraceHeader, TraceTrailer};
use rtk_core::StampedEvent;
use rtk_farm::{run_scenario_observed, Checker, ScenarioSpec, Tuning};

/// Seeds whose streams every row covers.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=64;

struct Stream {
    header: TraceHeader,
    events: Vec<StampedEvent>,
}

fn capture() -> Vec<Stream> {
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    SEEDS
        .map(|seed| {
            let spec = ScenarioSpec::generate(seed, &tuning);
            let (out, events) = run_scenario_observed(&spec, sysc::Runtime::default());
            assert!(out.divergence.is_none(), "seed {seed} diverged live");
            let runtime = sysc::Runtime::default().as_str();
            let header = TraceHeader::new(seed, spec.topology.label(), runtime);
            Stream { header, events }
        })
        .collect()
}

fn replay(streams: &[Stream]) -> u64 {
    let mut checked = 0;
    for s in streams {
        let mut checker = Checker::new();
        for se in &s.events {
            checker.push(&se.ev);
        }
        let verdict = checker.verdict(true);
        assert!(verdict.divergence.is_none());
        checked += verdict.events_checked;
    }
    checked
}

fn encode(streams: &[Stream]) -> Vec<Vec<u8>> {
    streams
        .iter()
        .map(|s| {
            let trailer = TraceTrailer::clean(s.events.len() as u64);
            encode_trace(&s.header, &s.events, Some(trailer))
        })
        .collect()
}

fn decode(traces: &[Vec<u8>]) -> usize {
    traces
        .iter()
        .map(|bytes| decode_trace(bytes).expect("round trip").events.len())
        .sum()
}

fn bench_oracle_replay(c: &mut Criterion) {
    let streams = capture();
    let traces = encode(&streams);
    let events: usize = streams.iter().map(|s| s.events.len()).sum();
    println!("{} streams, {events} events", streams.len());
    let mut group = c.benchmark_group("oracle_replay");
    group.sample_size(10);
    group.bench_function("checker_replay_64_streams", |b| {
        b.iter(|| replay(black_box(&streams)))
    });
    group.bench_function("encode_trace_64_streams", |b| {
        b.iter(|| encode(black_box(&streams)))
    });
    group.bench_function("decode_trace_64_streams", |b| {
        b.iter(|| decode(black_box(&traces)))
    });
}

criterion_group!(benches, bench_oracle_replay);
criterion_main!(benches);
