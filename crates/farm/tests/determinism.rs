//! Farm determinism properties: the whole value of a seeded campaign
//! rests on `seed ⇒ scenario ⇒ outcome` being a pure function,
//! independent of worker-thread count and scheduling.

use proptest::prelude::*;
use rtk_analysis::trace_codec::{encode_header, encode_trace, TraceHeader};
use rtk_core::obs::{StampedEvent, GRAMMAR_VERSION};
use rtk_farm::{
    run_campaign, run_exploration, run_scenario, run_scenario_observed, CampaignConfig,
    CampaignReport, ExploreConfig, Family, ScenarioSpec, Tuning,
};
use sysc::Runtime;

fn quick(faults: bool) -> Tuning {
    Tuning {
        quick: true,
        faults,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    /// Same seed ⇒ identical expanded scenario and identical digest,
    /// for both fault settings.
    fn spec_expansion_is_pure(seed in 0u64..1_000_000, faults in any::<bool>()) {
        let t = quick(faults);
        let a = ScenarioSpec::generate(seed, &t);
        let b = ScenarioSpec::generate(seed, &t);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Each case runs two full kernel simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    /// Same scenario ⇒ identical measured outcome (latency vector,
    /// counters, kernel stats), run-to-run.
    fn scenario_outcome_is_reproducible(seed in 0u64..10_000) {
        let spec = ScenarioSpec::generate(seed, &quick(true));
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.latencies_us, b.latencies_us);
        prop_assert_eq!(a.stats, b.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    /// A campaign over a fixed seed window produces the identical
    /// aggregate digest and byte-identical JSON with 1 worker and with
    /// N workers.
    fn campaign_is_thread_count_invariant(
        base in 0u64..50_000,
        nseeds in 3u64..10,
        threads in 2usize..5,
    ) {
        let cfg1 = CampaignConfig {
            base_seed: base,
            seeds: nseeds,
            threads: 1,
            tuning: quick(true),
            oracle: true,
            ..CampaignConfig::default()
        };
        let cfgn = CampaignConfig { threads, ..cfg1.clone() };

        let r1 = CampaignReport::new(cfg1.clone(), run_campaign(&cfg1));
        let rn = CampaignReport::new(cfgn.clone(), run_campaign(&cfgn));
        prop_assert_eq!(r1.digest(), rn.digest());
        // The config echoed in the JSON provenance block must not leak
        // the thread count (it would break byte-identity).
        prop_assert_eq!(r1.to_json(), rn.to_json());
    }
}

#[test]
fn campaign_json_is_stable_across_repeated_runs() {
    let cfg = CampaignConfig {
        base_seed: 42,
        seeds: 8,
        threads: 3,
        tuning: quick(true),
        oracle: true,
        ..CampaignConfig::default()
    };
    let a = CampaignReport::new(cfg.clone(), run_campaign(&cfg)).to_json();
    let b = CampaignReport::new(cfg.clone(), run_campaign(&cfg)).to_json();
    assert_eq!(a, b);
}

/// FNV-1a over a byte string (test-local; pins below are recorded
/// with exactly this function).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `.rtkt` event records of a stream, without the header, so the
/// hash pins kernel decisions and tick stamps only.
fn stream_hash(events: &[StampedEvent]) -> u64 {
    let header = TraceHeader {
        grammar_version: GRAMMAR_VERSION,
        seed: 0,
        tick_us: 0,
        topology: String::new(),
        runtime: String::new(),
        tuning: None,
    };
    let bytes = encode_trace(&header, events, None);
    fnv(&bytes[encode_header(&header).len()..])
}

/// Golden pin of a fixed `--oracle` campaign window. The digest and
/// report bytes were recorded when a second, OS-thread process runtime
/// still existed and matched them byte for byte; they hold the
/// determinism contract without that reference.
#[test]
fn oracle_campaign_matches_golden_pin() {
    let cfg = CampaignConfig {
        base_seed: 500,
        seeds: 12,
        threads: 2,
        tuning: quick(true),
        oracle: true,
        ..CampaignConfig::default()
    };
    let report = CampaignReport::new(cfg.clone(), run_campaign(&cfg));
    assert_eq!(report.digest(), CAMPAIGN_DIGEST);
    assert_eq!(fnv(report.to_json().as_bytes()), CAMPAIGN_JSON_HASH);
}

const CAMPAIGN_DIGEST: u64 = 0x4844_bf1d_25a8_2a45;
const CAMPAIGN_JSON_HASH: u64 = 0x8769_5746_af5e_0b3b;

/// Golden pins of per-seed kernel-decision streams: every dispatch,
/// wakeup and sync operation, in order, with its tick stamp.
#[test]
fn obs_streams_match_golden_pins() {
    for &(seed, len, hash) in OBS_PINS {
        let spec = ScenarioSpec::generate(seed, &quick(true));
        let (_, obs) = run_scenario_observed(&spec, Runtime::default());
        assert_eq!(obs.len(), len, "seed {seed}");
        assert_eq!(stream_hash(&obs), hash, "seed {seed}");
    }
}

/// `(seed, events, stream hash)`.
const OBS_PINS: &[(u64, usize, u64)] = &[
    (3, 434, 0x1a6c_86f9_75ee_0d88),
    (17, 194, 0x71b1_9b92_96f3_13d2),
    (42, 326, 0x2fa1_ff51_29c5_af7a),
    (100, 81, 0x31ae_0dd6_78f7_11fe),
    (257, 565, 0x359c_3cd0_c730_fe92),
];

/// Golden pins of the `--explore` walk per family: the canonical state
/// hash and the whole report's bytes. Exploration is single-walker by
/// construction, so this also pins that no host setting leaks into the
/// report.
#[test]
fn explore_reports_match_golden_pins() {
    for &(family, state_hash, json_hash) in EXPLORE_PINS {
        let cfg = ExploreConfig {
            family,
            ..ExploreConfig::default()
        };
        let out = run_exploration(&cfg);
        assert_eq!(out.report.state_hash, state_hash, "{family}");
        assert_eq!(fnv(out.report.to_json().as_bytes()), json_hash, "{family}");
    }
}

/// `(family, canonical state hash, report JSON hash)`.
const EXPLORE_PINS: &[(Family, u64, u64)] = &[
    (Family::Mtx, 0x8ce0_4cab_dd0c_1150, 0x5e25_aeaa_3efa_d571),
    (Family::Irq, 0xbaa8_38d9_bcbe_a5cf, 0xa6cd_8b58_e0ae_f7fc),
    (Family::Chain, 0xb2e0_83bd_88ca_d553, 0xc97d_272d_fb07_f38f),
    (
        Family::Deadlock,
        0xd906_bf62_a104_bc2c,
        0x6d1d_7ce6_642b_1d06,
    ),
];
