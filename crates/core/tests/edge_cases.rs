//! Edge-case and stress tests: chained priority inheritance, timeout vs
//! wake races, queue-order attributes under contention, calibration,
//! and restart cycles.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtk_core::{
    calibrate, ErCode, KernelConfig, MtxPolicy, QueueOrder, ReferenceProfile, Rtos, SemId,
    ServiceClass, TaskId, TaskState, Timeout,
};
use sysc::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}
fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

#[derive(Clone, Default)]
struct Log(Arc<Mutex<Vec<String>>>);
impl Log {
    fn push(&self, s: impl Into<String>) {
        self.0.lock().unwrap().push(s.into());
    }
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

#[test]
fn chained_priority_inheritance_propagates_two_levels() {
    // C(30) holds m1. B(20) holds m2 and waits m1. A(5) waits m2.
    // A's priority must propagate through B to C.
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m1 = sys.tk_cre_mtx("m1", MtxPolicy::Inherit).unwrap();
        let m2 = sys.tk_cre_mtx("m2", MtxPolicy::Inherit).unwrap();
        let l_c = l.clone();
        let c = sys
            .tk_cre_tsk("c", 30, move |sys, _| {
                sys.tk_loc_mtx(m1, Timeout::Forever).unwrap();
                sys.exec(ms(4));
                let me = sys.tk_get_tid().unwrap();
                let r = sys.tk_ref_tsk(me).unwrap();
                l_c.push(format!("c cur_pri={}", r.cur_pri));
                sys.tk_unl_mtx(m1).unwrap();
            })
            .unwrap();
        let b = sys
            .tk_cre_tsk("b", 20, move |sys, _| {
                sys.tk_loc_mtx(m2, Timeout::Forever).unwrap();
                sys.tk_loc_mtx(m1, Timeout::Forever).unwrap(); // blocks on C
                sys.tk_unl_mtx(m1).unwrap();
                sys.tk_unl_mtx(m2).unwrap();
            })
            .unwrap();
        let l_a = l.clone();
        let a = sys
            .tk_cre_tsk("a", 5, move |sys, _| {
                sys.tk_loc_mtx(m2, Timeout::Forever).unwrap(); // blocks on B
                l_a.push(format!("a locked m2 @{}", sys.now().as_ms()));
                sys.tk_unl_mtx(m2).unwrap();
            })
            .unwrap();
        sys.tk_sta_tsk(c, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap(); // c locks m1, starts 4 ms section
        sys.tk_sta_tsk(b, 0).unwrap(); // b locks m2, blocks on m1
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(a, 0).unwrap(); // a blocks on m2 -> boosts b -> boosts c
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    // C's current priority was boosted to 5 through the chain.
    assert_eq!(entries[0], "c cur_pri=5", "{entries:?}");
}

#[test]
fn mutex_wait_timeout_restores_inheritance() {
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let m = sys.tk_cre_mtx("m", MtxPolicy::Inherit).unwrap();
        let l_lo = l.clone();
        let lo = sys
            .tk_cre_tsk("lo", 30, move |sys, _| {
                sys.tk_loc_mtx(m, Timeout::Forever).unwrap();
                sys.exec(ms(10));
                let me = sys.tk_get_tid().unwrap();
                l_lo.push(format!(
                    "lo-pri-after={}",
                    sys.tk_ref_tsk(me).unwrap().cur_pri
                ));
                sys.tk_unl_mtx(m).unwrap();
            })
            .unwrap();
        let l_hi = l.clone();
        let hi = sys
            .tk_cre_tsk("hi", 5, move |sys, _| {
                // Give up after 3 ms: lo's boost must drop back to 30.
                let r = sys.tk_loc_mtx(m, Timeout::ms(3));
                l_hi.push(format!("hi-lock={r:?}@{}", sys.now().as_ms()));
            })
            .unwrap();
        sys.tk_sta_tsk(lo, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        sys.tk_sta_tsk(hi, 0).unwrap();
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    assert_eq!(entries[0], "hi-lock=Err(Tmout)@4");
    // After the timeout, lo ran de-boosted and reports base priority.
    assert_eq!(entries[1], "lo-pri-after=30");
}

#[test]
fn wakeup_and_timeout_race_conserves_wakeups() {
    // A task sleeping with a 5 ms timeout receives tk_wup_tsk at exactly
    // the deadline tick. µ-ITRON semantics: the timeout completes the
    // wait (E_TMOUT) and the wakeup — arriving while the task is READY —
    // is queued, so the *next* sleep returns immediately. Exactly one
    // wakeup is delivered in total (conservation).
    let log = Log::default();
    let l = log.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let l2 = l.clone();
        let sleeper = sys
            .tk_cre_tsk("sleeper", 10, move |sys, _| {
                let r1 = sys.tk_slp_tsk(Timeout::ms(5));
                l2.push(format!("r1={r1:?}@{}", sys.now().as_ms()));
                let r2 = sys.tk_slp_tsk(Timeout::ms(3));
                l2.push(format!("r2={r2:?}@{}", sys.now().as_ms()));
            })
            .unwrap();
        sys.tk_sta_tsk(sleeper, 0).unwrap();
        sys.tk_dly_tsk(ms(5)).unwrap();
        // Exactly at the timeout tick.
        let _ = sys.tk_wup_tsk(sleeper);
        sys.tk_dly_tsk(ms(10)).unwrap();
        // The sleeper consumed the queued wakeup and exited.
        assert_eq!(sys.tk_ref_tsk(sleeper).unwrap().state, TaskState::Dormant);
        assert_eq!(sys.tk_ref_tsk(sleeper).unwrap().wupcnt, 0);
    });
    rtos.run_for(ms(30));
    let entries = log.take();
    // Deterministic outcome: the timer delivers the timeout first (the
    // sleeper's entry is older in the timer queue), then the init task's
    // wakeup is queued and satisfies the second sleep instantly.
    assert_eq!(
        entries,
        vec!["r1=Err(Tmout)@5", "r2=Ok(())@5"],
        "wakeup/timeout race produced {entries:?}"
    );
}

#[test]
fn priority_wait_queue_vs_fifo_under_contention() {
    // Three tasks of different priority block on two semaphores, one
    // FIFO-ordered and one priority-ordered; release order must differ.
    let fifo_log = Log::default();
    let pri_log = Log::default();
    let (fl, pl) = (fifo_log.clone(), pri_log.clone());
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let s_fifo = sys.tk_cre_sem("fifo", 0, 10, QueueOrder::Fifo).unwrap();
        let s_pri = sys.tk_cre_sem("pri", 0, 10, QueueOrder::Priority).unwrap();
        for (name, pri) in [("low", 30u8), ("high", 10u8), ("mid", 20u8)] {
            let fl = fl.clone();
            let pl = pl.clone();
            let t = sys
                .tk_cre_tsk(name, pri, move |sys, _| {
                    sys.tk_wai_sem(s_fifo, 1, Timeout::Forever).unwrap();
                    fl.push(name);
                    sys.tk_wai_sem(s_pri, 1, Timeout::Forever).unwrap();
                    pl.push(name);
                })
                .unwrap();
            sys.tk_sta_tsk(t, 0).unwrap();
            // Let each task block on s_fifo before starting the next, so
            // the FIFO queue order is the start order.
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
        // Release one count at a time so the queue discipline (not the
        // dispatch order of simultaneously woken tasks) decides.
        for _ in 0..3 {
            sys.tk_sig_sem(s_fifo, 1).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
        for _ in 0..3 {
            sys.tk_sig_sem(s_pri, 1).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
        }
    });
    rtos.run_for(ms(40));
    assert_eq!(fifo_log.take(), vec!["low", "high", "mid"]); // arrival order
    assert_eq!(pri_log.take(), vec!["high", "mid", "low"]); // priority order
}

#[test]
fn task_restart_preserves_statistics_across_cycles() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let t = sys
            .tk_cre_tsk("worker", 10, |sys, _| {
                sys.exec(us(100));
            })
            .unwrap();
        for _ in 0..5 {
            sys.tk_sta_tsk(t, 0).unwrap();
            sys.tk_dly_tsk(ms(1)).unwrap();
            assert_eq!(sys.tk_ref_tsk(t).unwrap().state, TaskState::Dormant);
        }
        assert_eq!(sys.tk_ref_tsk(t).unwrap().activations, 5);
    });
    rtos.run_for(ms(30));
    // The T-THREAD accumulated CET over all five activation cycles
    // (paper: CET = sum over cycles).
    let threads = rtos.threads();
    let worker = threads.iter().find(|t| t.name == "worker").unwrap();
    assert_eq!(worker.stats.cycles, 5);
    assert_eq!(worker.stats.total_cet(), us(500));
}

#[test]
fn calibrated_cost_model_changes_simulated_timing() {
    // Calibrate the semaphore cost to 2x and verify the simulation's
    // measured service time follows.
    let elapsed = Arc::new(AtomicU64::new(0));
    let base = KernelConfig::paper();
    let sem_time = base.cost.service(ServiceClass::Semaphore).time;
    let mut profile = ReferenceProfile::new();
    profile.observe(ServiceClass::Semaphore, sem_time * 2);
    let calibrated = calibrate(&base.cost, &profile);
    let e = Arc::clone(&elapsed);
    let mut rtos = Rtos::new(base.with_cost(calibrated), move |sys, _| {
        let sem = sys.tk_cre_sem("s", 1, 2, QueueOrder::Fifo).unwrap();
        let t0 = sys.now();
        sys.tk_sig_sem(sem, 1).unwrap();
        e.store((sys.now() - t0).as_ps(), Ordering::SeqCst);
    });
    rtos.run_for(ms(20));
    assert_eq!(
        elapsed.load(Ordering::SeqCst),
        (sem_time * 2).as_ps(),
        "calibrated semaphore cost not applied"
    );
}

#[test]
fn many_tasks_heavy_churn() {
    // 20 tasks sleeping/waking in a ring for 100 ms of simulated time:
    // a stress test of the dispatch machinery.
    let total = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&total);
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let n = 20u32;
        let mut ids = Vec::new();
        for i in 0..n {
            let t2 = Arc::clone(&t2);
            let t = sys
                .tk_cre_tsk(
                    &format!("ring{i}"),
                    10 + (i % 5) as u8,
                    move |sys, _| loop {
                        if sys.tk_slp_tsk(Timeout::Forever).is_err() {
                            return;
                        }
                        t2.fetch_add(1, Ordering::SeqCst);
                        sys.exec(us(50));
                    },
                )
                .unwrap();
            ids.push(t);
        }
        for t in &ids {
            sys.tk_sta_tsk(*t, 0).unwrap();
        }
        //

        let ids2 = ids.clone();
        sys.tk_cre_cyc("kicker", ms(1), SimTime::ZERO, true, move |sys| {
            for t in &ids2 {
                let _ = sys.tk_wup_tsk(*t);
            }
        })
        .unwrap();
    });
    rtos.run_for(ms(100));
    // ~99 cyclic fires x 20 tasks, minus partial last rounds.
    let woken = total.load(Ordering::SeqCst);
    assert!(woken > 1500, "only {woken} wakeups");
}

#[test]
fn exd_tsk_deletes_self() {
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let t = sys
            .tk_cre_tsk("ephemeral", 10, |sys, _| {
                sys.exec(us(10));
                sys.tk_exd_tsk();
            })
            .unwrap();
        sys.tk_sta_tsk(t, 0).unwrap();
        sys.tk_dly_tsk(ms(1)).unwrap();
        assert_eq!(sys.tk_ref_tsk(t).unwrap_err(), ErCode::NoExs);
    });
    rtos.run_for(ms(10));
}

/// Dropping the `Rtos` must release task and handler bodies. A handler
/// that owns a handle back to the kernel (here an `IntPort`, as a BFM
/// model holds one) would otherwise keep the kernel, and itself, alive
/// forever.
#[test]
fn drop_releases_handler_bodies() {
    struct DropFlag(Arc<AtomicU64>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let drops = Arc::new(AtomicU64::new(0));
    let port = Rc::new(RefCell::new(None));
    let mut captured = Some((DropFlag(Arc::clone(&drops)), Rc::clone(&port)));
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let held = captured.take().expect("the main entry runs once");
        sys.tk_cre_cyc("holder", ms(1), SimTime::ZERO, true, move |_| {
            let _ = &held;
        })
        .unwrap();
    });
    *port.borrow_mut() = Some(rtos.int_port());
    drop(port);
    rtos.run_for(ms(5));
    drop(rtos);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "the cyclic handler must be dropped with the kernel"
    );
}

/// Object id 0 is never handed out (ids are 1-based), so every lookup
/// of it must fail with `E_NOEXS` rather than underflow the slot index.
#[test]
fn object_id_zero_is_rejected_with_noexs() {
    let service: Rc<RefCell<Option<(ErCode, ErCode)>>> = Rc::default();
    let out = service.clone();
    let mut rtos = Rtos::new(KernelConfig::zero_cost(), move |sys, _| {
        let sig = sys.tk_sig_sem(SemId::from_raw(0), 1).unwrap_err();
        let rel = sys.tk_rel_wai(TaskId::from_raw(0)).unwrap_err();
        *out.borrow_mut() = Some((sig, rel));
    });
    rtos.run_for(ms(1));
    assert_eq!(
        *service.borrow(),
        Some((ErCode::NoExs, ErCode::NoExs)),
        "service calls with id 0"
    );
    let ds = rtos.ds();
    assert_eq!(
        ds.td_ref_tsk(TaskId::from_raw(0)).unwrap_err(),
        ErCode::NoExs
    );
    assert_eq!(
        ds.td_ref_sem(SemId::from_raw(0)).unwrap_err(),
        ErCode::NoExs
    );
}
