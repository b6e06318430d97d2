//! Oracle sensitivity and soundness tests.
//!
//! Soundness: real kernel runs across every topology replay through the
//! spec with zero divergences. Sensitivity: handcrafted decision
//! streams that encode each bug class the oracle exists to catch
//! (wrong dispatch choice, mis-inherited priority, wrong wakeup order,
//! lost wakeups, queue barging, late timeouts) must each be rejected,
//! which is the in-tree version of the kernel mutation campaigns used
//! during bring-up (disabled priority inheritance, tail-popping wait
//! queues and one-tick-late timers were all detected this way).

use rtk_core::{CycId, MplId, MtxId, MtxPolicy, ObsEvent, SemId, TaskId, WaitObj, WakeCode};
use rtk_farm::{check, run_scenario_checked, ScenarioSpec, Topology, Tuning};

fn t(n: u32) -> TaskId {
    TaskId::from_raw(n)
}

fn sem(n: u32) -> SemId {
    SemId::from_raw(n)
}

fn mtx(n: u32) -> MtxId {
    MtxId::from_raw(n)
}

fn mpl(n: u32) -> MplId {
    MplId::from_raw(n)
}

/// A minimal healthy prologue: two tasks (pri 10 and 20) started, the
/// more urgent one dispatched.
fn prologue() -> Vec<ObsEvent> {
    vec![
        ObsEvent::TaskCreate { tid: t(1), pri: 10 },
        ObsEvent::TaskCreate { tid: t(2), pri: 20 },
        ObsEvent::TaskStart { tid: t(1) },
        ObsEvent::TaskStart { tid: t(2) },
        ObsEvent::SemCreate {
            id: sem(1),
            init: 0,
            max: 10,
            pri_order: false,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]
}

#[test]
fn healthy_stream_is_accepted() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Preempt { tid: t(2) },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    assert_eq!(v.events_checked, evs.len() as u64);
}

#[test]
fn dispatching_the_wrong_task_diverges() {
    let mut evs = prologue();
    evs.pop(); // drop the correct dispatch of tsk1
    evs.push(ObsEvent::Dispatch { tid: t(2), pri: 20 });
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk1"), "{d}");
}

#[test]
fn dispatching_at_a_stale_priority_diverges() {
    let mut evs = prologue();
    evs.pop();
    // Same task, wrong current priority (as if a boost was not applied
    // or not dropped).
    evs.push(ObsEvent::Dispatch { tid: t(1), pri: 9 });
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("current priority 10"), "{d}");
}

#[test]
fn waking_out_of_queue_order_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        // tsk1 queued first; waking tsk2 first is a spec violation.
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk1"), "{d}");
}

#[test]
fn lost_wakeup_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        // The mandated wakeup of tsk1 never appears.
        ObsEvent::Preempt { tid: t(2) },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk1"), "{d}");
}

#[test]
fn lost_wakeup_at_end_of_run_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("never observed"), "{d}");
}

#[test]
fn barging_past_waiters_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        // tsk1 runs again and "immediately" takes a count although
        // tsk2 is queued: no-barging violation.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::SemTake {
            id: sem(1),
            tid: t(1),
            cnt: 1,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("count 0"), "{d}");
}

#[test]
fn late_timeout_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: Some(5),
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // One tick late: the bug signature of a timing-wheel re-arm
        // losing the residual.
        ObsEvent::TimerFire { tid: t(1), tick: 6 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("armed it for tick 5"), "{d}");
}

#[test]
fn timely_timeout_is_accepted() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: Some(5),
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::TimerFire { tid: t(1), tick: 5 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Timeout,
        },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

// ---------------------------------------------------------------------
// Adversarial streams over the widened grammar (PR 5). Each stream is
// the signature of a kernel mutation the widened oracle was proven to
// catch live (the campaign flags the seed): skipping
// release-all-held-mutexes in `tk_ter_tsk`, off-by-one mpl coalescing,
// suspended-task dispatch, dispatching inside a dispatch-disabled
// window, and cyclic-handler schedule drift.
// ---------------------------------------------------------------------

/// Kernel mutation: `tk_ter_tsk` skips releasing the victim's held
/// mutexes. Signature (live campaign: seed 15, event #583): a later
/// lock attempt blocks on a mutex the spec released at termination.
#[test]
fn terminate_without_mutex_release_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MtxCreate {
            id: mtx(1),
            policy: MtxPolicy::Inherit,
        },
        ObsEvent::MtxLock {
            id: mtx(1),
            tid: t(1),
        },
        // tsk1 blocks elsewhere while still holding mtx1.
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // tsk2 terminates tsk1, which holds mtx1 with no waiters: the
        // spec frees the mutex.
        ObsEvent::TaskTerminate { tid: t(1) },
        // The buggy kernel still thinks tsk1 owns it, so tsk2's lock
        // attempt blocks — the spec says it completes immediately.
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Mtx(mtx(1)),
            deadline_tick: None,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("completes immediately"), "{d}");
}

/// With a waiter queued, the spec mandates the ownership-transfer
/// wakeup right after the termination; a kernel that skips the
/// release never emits it.
#[test]
fn terminate_with_queued_waiter_mandates_transfer_wakeup() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MtxCreate {
            id: mtx(1),
            policy: MtxPolicy::Inherit,
        },
        ObsEvent::MtxLock {
            id: mtx(1),
            tid: t(1),
        },
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Mtx(mtx(1)),
            deadline_tick: None,
        },
        // tsk3 terminates the owner; the spec hands mtx1 to tsk2 and
        // mandates its wakeup as the very next event.
        ObsEvent::TaskCreate { tid: t(3), pri: 30 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::Dispatch { tid: t(3), pri: 30 },
        ObsEvent::TaskTerminate { tid: t(1) },
        // ...but the kernel reports something else instead.
        ObsEvent::Preempt { tid: t(3) },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk2"), "{d}");
}

/// Kernel mutation: off-by-one coalescing in the mpl arena. Signature
/// (live campaign: seed 13, event #128): after release + re-alloc the
/// kernel's first-fit lands at a different offset than the spec's.
#[test]
fn mpl_coalescing_off_by_one_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::MplCreate {
            id: mpl(1),
            size: 64,
            pri_order: false,
        },
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 16,
            off: 0,
        },
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 16,
            off: 16,
        },
        ObsEvent::MplRel { id: mpl(1), off: 0 },
        ObsEvent::MplRel {
            id: mpl(1),
            off: 16,
        },
        // Fully coalesced arena: a 32-byte request must land at 0. A
        // kernel whose coalescer lost bytes allocates past the seam.
        ObsEvent::MplTake {
            id: mpl(1),
            tid: t(1),
            size: 32,
            off: 36,
        },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("first-fit mandates offset 0"), "{d}");
}

/// A suspended task must leave the dispatchable set: dispatching it is
/// the signature of a kernel that lost the suspend in its scheduler.
#[test]
fn dispatching_a_suspended_task_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        // tsk1's wait completes while suspended: it becomes SUSPENDED,
        // not READY...
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::SemSignal { id: sem(1), cnt: 1 },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Preempt { tid: t(2) },
        // ...so dispatching it without a resume is a spec violation.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(
        d.detail.contains("tsk2") || d.detail.contains("empty"),
        "{d}"
    );
}

/// Suspend-count nesting: one resume of a twice-suspended task must
/// not make it dispatchable.
#[test]
fn single_resume_of_nested_suspend_stays_suspended() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Resume {
            tid: t(1),
            force: false,
        },
        // Still suspended (count 1): the head of the ready queue is
        // tsk2, so dispatching tsk1 diverges.
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("tsk2"), "{d}");
    // A forced resume clears all nesting in one call: the same prefix
    // with tk_frsm_tsk is accepted.
    let mut evs = prologue();
    evs.extend([
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Suspend { tid: t(1) },
        ObsEvent::Resume {
            tid: t(1),
            force: true,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// No dispatch or preemption may be observed inside a
/// `tk_dis_dsp`/`tk_loc_cpu` window.
#[test]
fn dispatch_inside_disabled_window_diverges() {
    let mut evs = prologue();
    evs.extend([
        ObsEvent::DispCtl { disabled: true },
        ObsEvent::TaskCreate { tid: t(3), pri: 5 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Dispatch { tid: t(3), pri: 5 },
    ]);
    let v = check(&evs);
    let d = v.divergence.expect("must diverge");
    assert!(d.detail.contains("dispatch-disabled window"), "{d}");
    // The same preemption after the window closes is accepted.
    let mut evs = prologue();
    evs.extend([
        ObsEvent::DispCtl { disabled: true },
        ObsEvent::TaskCreate { tid: t(3), pri: 5 },
        ObsEvent::TaskStart { tid: t(3) },
        ObsEvent::DispCtl { disabled: false },
        ObsEvent::Preempt { tid: t(1) },
        ObsEvent::Dispatch { tid: t(3), pri: 5 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
}

/// A cyclic handler must fire exactly at its armed tick and re-arm one
/// period on; schedule drift is rejected.
#[test]
fn cyclic_schedule_drift_diverges() {
    fn cyc_evs(second_fire: u64) -> Vec<ObsEvent> {
        let mut evs = prologue();
        evs.extend([
            ObsEvent::CycCreate {
                id: CycId::from_raw(1),
                period_ticks: 5,
                first_tick: Some(3),
            },
            ObsEvent::CycFire {
                id: CycId::from_raw(1),
                tick: 3,
            },
            ObsEvent::CycFire {
                id: CycId::from_raw(1),
                tick: second_fire,
            },
        ]);
        evs
    }
    let v = check(&cyc_evs(8));
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    let d = check(&cyc_evs(9)).divergence.expect("must diverge");
    assert!(d.detail.contains("armed it for tick 8"), "{d}");
}

/// A forced wait release (`tk_rel_wai`) mandates the victim's
/// `E_RLWAI` wakeup and the re-serve of waiters it was holding back.
#[test]
fn rel_wai_mandates_release_and_reserve() {
    let mut evs = prologue();
    evs.extend([
        // tsk1 wants 3 counts, tsk2 wants 1; the count (2) covers only
        // the second request, which queues behind the first.
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        // Releasing the head waiter makes tsk2 satisfiable: the spec
        // mandates tsk1's Released wakeup, then tsk2's Ok wakeup.
        ObsEvent::RelWai { tid: t(1) },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            code: WakeCode::Released,
        },
        ObsEvent::Wakeup {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            code: WakeCode::Ok,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let v = check(&evs);
    assert!(v.divergence.is_none(), "{:?}", v.divergence);
    // Dropping the re-serve wakeup (the pre-fix kernel behaviour)
    // leaves the mandate outstanding, which the checker reports.
    let mut evs2 = prologue();
    evs2.extend([
        ObsEvent::Block {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            deadline_tick: None,
        },
        ObsEvent::Dispatch { tid: t(2), pri: 20 },
        ObsEvent::SemSignal { id: sem(1), cnt: 2 },
        ObsEvent::Block {
            tid: t(2),
            obj: WaitObj::Sem(sem(1), 1),
            deadline_tick: None,
        },
        ObsEvent::RelWai { tid: t(1) },
        ObsEvent::Wakeup {
            tid: t(1),
            obj: WaitObj::Sem(sem(1), 3),
            code: WakeCode::Released,
        },
        ObsEvent::Dispatch { tid: t(1), pri: 10 },
    ]);
    let d = check(&evs2).divergence.expect("must diverge");
    assert!(d.detail.contains("mandates wakeup of tsk2"), "{d}");
}

/// A raw id read from an untrusted trace must never size an
/// allocation: creating an object far beyond the spec's modeled id
/// range is a divergence naming the id (a table sized by it would
/// abort the replay instead), and a lookup there is just unknown.
#[test]
fn create_beyond_the_modeled_id_range_diverges() {
    let huge = u32::MAX;
    let d = check(&[ObsEvent::TaskCreate {
        tid: t(huge),
        pri: 10,
    }])
    .divergence
    .expect("task create beyond the id cap must diverge");
    assert_eq!(d.index, 0);
    assert!(d.detail.contains(&huge.to_string()), "{d}");

    let mut evs = prologue();
    evs.push(ObsEvent::SemCreate {
        id: sem(huge),
        init: 0,
        max: 1,
        pri_order: false,
    });
    let d = check(&evs)
        .divergence
        .expect("semaphore create beyond the id cap must diverge");
    assert_eq!(d.index, evs.len() - 1);
    assert!(d.detail.contains(&huge.to_string()), "{d}");

    let d = check(&[ObsEvent::TaskStart { tid: t(huge) }])
        .divergence
        .expect("a lookup beyond the id cap is an unknown task");
    assert!(d.detail.contains("unknown tsk4294967295"), "{d}");
}

/// Soundness over the real kernel: one representative seed per
/// topology replays clean, and actually exercises the oracle.
#[test]
// Live kernel execution (coroutine context switches): outside what
// Miri can interpret; the synthetic-stream tests above cover the
// oracle itself under Miri.
#[cfg_attr(miri, ignore)]
fn real_scenarios_replay_clean_through_the_oracle() {
    let tuning = Tuning {
        quick: true,
        faults: true,
    };
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..512 {
        let spec = ScenarioSpec::generate(seed, &tuning);
        if !seen.insert(spec.topology.label()) {
            continue;
        }
        let out = run_scenario_checked(&spec, true);
        assert!(
            out.divergence.is_none(),
            "seed {seed} ({}): {:?}",
            spec.topology.label(),
            out.divergence
        );
        assert!(out.oracle_events > 0, "seed {seed} recorded no events");
    }
    assert_eq!(
        seen.len(),
        Topology::ALL_LABELS.len(),
        "topology coverage shrank: {seen:?}"
    );
}

/// The mutex topologies specifically must put inheritance/ceiling
/// boosts on the wire (the oracle verifies priority at every dispatch,
/// so a scenario where boosts never happen would verify nothing).
#[test]
#[cfg_attr(miri, ignore)] // live kernel execution, see above
fn mutex_scenarios_exercise_contention() {
    let tuning = Tuning {
        quick: true,
        faults: false,
    };
    let mut checked = 0u64;
    for seed in 0..512 {
        let spec = ScenarioSpec::generate(seed, &tuning);
        if !matches!(spec.topology, Topology::MtxChain { .. }) {
            continue;
        }
        let out = run_scenario_checked(&spec, true);
        assert!(
            out.divergence.is_none(),
            "seed {seed}: {:?}",
            out.divergence
        );
        checked += out.oracle_events;
        if checked > 10_000 {
            return;
        }
    }
    assert!(checked > 0, "no mutex scenario in the first 512 seeds");
}
