//! Coroutine lifecycle tests: stack recycling across the panic and
//! terminate paths, never-started processes, kill from inside another
//! process body, nested simulations on one OS thread, and the
//! `Runtime` metadata.
//!
//! (Stress coverage lives in `handoff_stress.rs`.)
//!
//! Several tests count leases of the process-global stack pool, so
//! every test here that runs a thread process holds [`serial`] to keep
//! the counts its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sysc::{RunOutcome, Runtime, SimTime, Simulation, SpawnMode};

/// Serialises this file's tests over the global stack pool.
fn serial() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn runtime_default_and_name() {
    assert_eq!(Runtime::default(), Runtime::Coro);
    assert_eq!(Runtime::Coro.as_str(), "coro");
    assert_eq!(Runtime::Coro.to_string(), "coro");
}

/// A panic mid-scenario must give the panicked process's stack back to
/// the pool (the unwind travels through the coroutine switch, so a bug
/// here leaks 512 KiB per poisoned seed).
#[test]
fn panicked_process_stack_is_recycled() {
    let _pool = serial();
    let before = sysc::runtime::stack_stats();
    for _ in 0..10 {
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            h.spawn_thread("bystander", SpawnMode::Immediate, |ctx| {
                ctx.wait_time(SimTime::from_ms(10));
            });
            h.spawn_thread("bomb", SpawnMode::Immediate, |ctx| {
                ctx.wait_time(SimTime::from_us(1));
                panic!("boom in coroutine");
            });
            sim.run_to_completion();
        });
        assert!(result.is_err());
    }
    let after = sysc::runtime::stack_stats();
    let leased = after.leases - before.leases;
    let recycled = after.recycled - before.recycled;
    let fresh = after.stacks_allocated - before.stacks_allocated;
    // Every lease is served by a recycled stack or a fresh one. A cold
    // pool allocates the first iteration's two stacks; after that every
    // lease must find a returned stack — the bomb's through the panic
    // reply path, the bystander's through terminate-on-drop.
    assert_eq!(leased, 20, "two stacks per simulation");
    assert_eq!(leased, recycled + fresh, "every lease is recycled or fresh");
    assert!(
        fresh <= 2,
        "leaked stacks: {fresh} fresh allocations for {leased} leases"
    );
}

/// Terminating a process that was spawned but never dispatched must not
/// lease a stack at all, and must not leak the parked entry closure
/// (which owns a self-referential Arc).
#[test]
fn never_started_process_is_terminated_without_a_stack() {
    let _pool = serial();
    struct CountDrop(Arc<AtomicU64>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicU64::new(0));
    let before = sysc::runtime::stack_stats();
    {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let never = h.create_event("never");
        let d = CountDrop(Arc::clone(&drops));
        h.spawn_thread("dormant", SpawnMode::WaitEvent(never), move |_ctx| {
            let _guard = d;
            unreachable!("the event never fires");
        });
        assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
        // Drop terminates the dormant process before it ever ran.
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "captured state must be dropped"
    );
    let after = sysc::runtime::stack_stats();
    assert_eq!(
        after.leases, before.leases,
        "no stack for a never-started process"
    );
}

/// One process killing another mid-wait: the terminate handshake runs
/// coroutine-to-coroutine (the killer, not the kernel root, is the
/// resumer) and control must return to the killer afterwards.
#[test]
fn kill_from_inside_another_process() {
    let _pool = serial();
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let h = sim.handle();
    let log2 = Arc::clone(&log);
    let victim = h.spawn_thread("victim", SpawnMode::Immediate, move |ctx| {
        log2.lock().unwrap().push("victim-start");
        loop {
            ctx.wait_time(SimTime::from_us(1));
        }
    });
    let log3 = Arc::clone(&log);
    h.spawn_thread("killer", SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(SimTime::from_us(5));
        log3.lock().unwrap().push("kill");
        ctx.handle().kill(victim);
        assert!(ctx.handle().is_finished(victim));
        log3.lock().unwrap().push("after-kill");
        ctx.wait_time(SimTime::from_us(5));
        log3.lock().unwrap().push("killer-done");
    });
    assert_eq!(sim.run_to_completion(), RunOutcome::Starved);
    assert_eq!(
        *log.lock().unwrap(),
        vec!["victim-start", "kill", "after-kill", "killer-done"]
    );
}

/// A process body driving a nested, independent simulation on the same
/// OS thread: two live `CoroRt`s must not clobber each other's notion
/// of the current context.
#[test]
fn nested_simulation_inside_a_coroutine() {
    let _pool = serial();
    let mut outer = Simulation::new();
    let h = outer.handle();
    let result = Arc::new(AtomicU64::new(0));
    let result2 = Arc::clone(&result);
    h.spawn_thread("outer", SpawnMode::Immediate, move |ctx| {
        ctx.wait_time(SimTime::from_us(1));
        let mut inner = Simulation::new();
        let ih = inner.handle();
        let r = Arc::clone(&result2);
        ih.spawn_thread("inner", SpawnMode::Immediate, move |ictx| {
            for _ in 0..10 {
                ictx.wait_time(SimTime::from_ns(100));
            }
            r.store(ictx.now().as_ns(), Ordering::SeqCst);
        });
        assert_eq!(inner.run_to_completion(), RunOutcome::Starved);
        // Back in the outer coroutine: its own clock is untouched.
        ctx.wait_time(SimTime::from_us(1));
        assert_eq!(ctx.now(), SimTime::from_us(2));
    });
    assert_eq!(outer.run_to_completion(), RunOutcome::Starved);
    assert_eq!(result.load(Ordering::SeqCst), 1_000);
}

/// Heavy process churn within one simulation: spawn-run-finish cycles
/// must plateau at a small number of distinct stacks.
#[test]
fn sequential_process_churn_reuses_stacks() {
    let _pool = serial();
    let before = sysc::runtime::stack_stats();
    let mut sim = Simulation::new();
    let h = sim.handle();
    let total = Arc::new(AtomicU64::new(0));
    for i in 0..200 {
        let t = Arc::clone(&total);
        h.spawn_thread("worker", SpawnMode::Immediate, move |ctx| {
            ctx.wait_time(SimTime::from_ns(10 + i));
            t.fetch_add(1, Ordering::Relaxed);
        });
        sim.run_to_completion();
    }
    assert_eq!(total.load(Ordering::Relaxed), 200);
    let after = sysc::runtime::stack_stats();
    assert_eq!(after.leases - before.leases, 200);
    assert!(
        after.stacks_allocated - before.stacks_allocated <= 4,
        "churn should reuse stacks, allocated {} fresh ones",
        after.stacks_allocated - before.stacks_allocated
    );
}
