//! Static scenario analysis (`rtk-verify`): deadlock, blocking and
//! response-time verdicts from the declarative model alone.
//!
//! The analyzer consumes a [`SysModel`] (see `rtk_core::model`) and
//! issues three families of verdicts **without executing the kernel**:
//!
//! 1. **Deadlock** ([`lock_graph`]): a resource-ordering graph over the
//!    declared critical-section nestings, with cycle detection.
//!    `TA_CEILING` cycles with sound ceilings are deadlock-free by
//!    construction (a task blocks only before holding anything);
//!    `TA_INHERIT` or bare-semaphore cycles are not.
//! 2. **Blocking bounds** ([`blocking`]): worst-case priority-inversion
//!    time per task under immediate-ceiling, transitive-inheritance and
//!    bare-semaphore (inversion-window fixpoint) semantics.
//! 3. **Schedulability** ([`rta`]): rate-monotonic utilization plus
//!    exact response-time analysis over periods, budgets, blocking and
//!    modelled interference (tick, release machinery, ISR storms).
//!
//! Verdicts are three-valued ([`Verdict`]): `Certified` claims are the
//! falsifiable ones — the farm cross-checks every positive certificate
//! against the dynamic run and treats a disagreement as a
//! campaign-failing contradiction (`docs/STATIC_ANALYSIS.md`).
//! [`conformance`] closes the loop in the other direction: it checks an
//! observed event stream against the declared model, so an
//! under-declared lock order is caught rather than silently trusted.
//!
//! Everything here is integer arithmetic over `u64` microseconds —
//! verdicts are byte-identical across hosts and thread counts (the
//! determinism suite pins this).

pub mod blocking;
pub mod conformance;
pub mod lock_graph;
pub mod rta;

use std::fmt;

use rtk_core::SysModel;

pub use conformance::Conformance;
pub use lock_graph::LockGraph;

/// A three-valued analysis verdict.
///
/// Only `Certified` makes a falsifiable positive claim; `Refuted`
/// means the analysis bound was exceeded (which conservative analysis
/// may conclude even for workloads that happen to behave), and
/// `Unknown` means the model declares itself outside the analyzable
/// fragment, so no claim is made either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property is proven from the model (falsifiable claim).
    Certified,
    /// The analysis refutes the property (conservatively).
    Refuted,
    /// The model is outside the analyzable fragment; no claim.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Certified => "certified",
            Verdict::Refuted => "refuted",
            Verdict::Unknown => "unknown",
        })
    }
}

/// Analysis configuration. The defaults are the sound analysis; every
/// flag deliberately *weakens* it and exists so the mutation-
/// sensitivity tests can prove the farm's cross-check catches an
/// unsound analyzer (see `docs/STATIC_ANALYSIS.md`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    /// Mutation: ignore non-task interference (system tick, release
    /// cyclics, ISR storms) in response-time analysis. Unsound.
    pub ignore_interference: bool,
    /// Mutation: assume zero blocking everywhere. Unsound.
    pub ignore_blocking: bool,
    /// Mutation: treat `TA_INHERIT` cycles as deadlock-free, as if
    /// inheritance had the ceiling protocol's prevention property.
    /// Unsound.
    pub inherit_breaks_cycles: bool,
}

/// Per-task analysis output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAnalysis {
    /// Task name (from the model).
    pub name: String,
    /// Base priority.
    pub priority: rtk_core::Priority,
    /// Period in µs (0 = aperiodic, excluded from RTA).
    pub period_us: u64,
    /// Declared worst-case cost per job in µs.
    pub cost_us: u64,
    /// Worst-case blocking bound in µs ([`blocking`]);
    /// [`blocking::UNBOUNDED_US`] when no finite bound exists.
    pub blocking_us: u64,
    /// Response-time bound in µs when the RTA fixpoint converged
    /// within the deadline; `None` for aperiodic tasks or when the
    /// recurrence escaped the deadline.
    pub response_us: Option<u64>,
    /// `true` when the dynamic run measures this task's latency (the
    /// bound is falsifiable).
    pub measured: bool,
}

/// The complete analysis of one scenario model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResult {
    /// Deadlock-freedom verdict.
    pub deadlock: Verdict,
    /// One-line account of the deadlock verdict.
    pub deadlock_detail: String,
    /// Number of lock-order edges in the resource graph.
    pub lock_edges: usize,
    /// One representative cycle (resource indices), if any.
    pub cycle: Option<Vec<usize>>,
    /// Total periodic utilization in parts-per-million.
    pub utilization_ppm: u64,
    /// Schedulability verdict (every measured periodic task meets its
    /// deadline).
    pub schedulable: Verdict,
    /// One-line account of the schedulability verdict.
    pub sched_detail: String,
    /// Per-task details, in model task order.
    pub tasks: Vec<TaskAnalysis>,
}

impl AnalysisResult {
    /// Compact deterministic one-line rendering (used by reports and
    /// the determinism suite; stable across hosts).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "deadlock={} sched={} util={}ppm edges={}",
            self.deadlock, self.schedulable, self.utilization_ppm, self.lock_edges
        );
        for t in self.tasks.iter().filter(|t| t.measured) {
            match t.response_us {
                Some(r) => {
                    let _ = write!(s, " {}:R={}us,B={}us", t.name, r, t.blocking_us);
                }
                None => {
                    let _ = write!(s, " {}:R=-", t.name);
                }
            }
        }
        s
    }
}

/// Runs the full static analysis over a model.
pub fn analyze(model: &SysModel, opts: &AnalysisOptions) -> AnalysisResult {
    let graph = lock_graph::build(model);
    let (deadlock, deadlock_detail) = lock_graph::deadlock_verdict(model, &graph, opts);

    let blocking = blocking::bounds(model, opts);
    let responses = rta::response_times(model, &blocking, opts);

    let tasks: Vec<TaskAnalysis> = model
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| TaskAnalysis {
            name: t.name.clone(),
            priority: t.priority,
            period_us: t.period_us,
            cost_us: t.cost_us,
            blocking_us: blocking[i],
            response_us: responses[i].as_ref().and_then(|r| r.certified_us()),
            measured: t.measured,
        })
        .collect();

    let (schedulable, sched_detail) = if !model.timing_complete {
        (
            Verdict::Unknown,
            "model timing incomplete: no schedulability claim".to_string(),
        )
    } else if model.fault_degraded {
        (
            Verdict::Unknown,
            "fault plan perturbs releases: no schedulability claim".to_string(),
        )
    } else {
        let mut verdict = Verdict::Certified;
        let mut detail = format!("all response bounds within deadlines (util {}ppm)", {
            model.utilization_ppm()
        });
        for (i, t) in model.tasks.iter().enumerate() {
            if t.period_us == 0 || !t.measured {
                continue;
            }
            match &responses[i] {
                Some(r) if r.converged && r.r_us <= t.deadline_us => {}
                Some(r) => {
                    verdict = Verdict::Refuted;
                    detail = format!(
                        "task {}: response bound {}us exceeds deadline {}us",
                        t.name, r.r_us, t.deadline_us
                    );
                    break;
                }
                None => {
                    verdict = Verdict::Refuted;
                    detail = format!("task {}: no response bound", t.name);
                    break;
                }
            }
        }
        (verdict, detail)
    };

    AnalysisResult {
        deadlock,
        deadlock_detail,
        lock_edges: graph.edges.len(),
        cycle: graph.cycles.first().cloned(),
        utilization_ppm: model.utilization_ppm(),
        schedulable,
        sched_detail,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::{LockPolicy, ResourceModel, SectionModel, SysModel, TaskModel};

    fn task(name: &str, pri: u8, period_us: u64, cost_us: u64) -> TaskModel {
        TaskModel {
            name: name.into(),
            priority: pri,
            period_us,
            offset_us: 0,
            deadline_us: period_us,
            cost_us,
            sections: Vec::new(),
            measured: true,
        }
    }

    fn complete(tasks: Vec<TaskModel>, resources: Vec<ResourceModel>) -> SysModel {
        SysModel {
            tasks,
            resources,
            interference: Vec::new(),
            timing_complete: true,
            fault_degraded: false,
            mutex_resources: Vec::new(),
            sem_resources: Vec::new(),
        }
    }

    #[test]
    fn independent_underload_is_certified() {
        let m = complete(
            vec![
                task("a", 10, 10_000, 1_000),
                task("b", 20, 20_000, 2_000),
                task("c", 30, 40_000, 4_000),
            ],
            Vec::new(),
        );
        let r = analyze(&m, &AnalysisOptions::default());
        assert_eq!(r.deadlock, Verdict::Certified);
        assert_eq!(r.schedulable, Verdict::Certified, "{}", r.sched_detail);
        // Highest-priority task: no interference, no blocking.
        assert_eq!(r.tasks[0].response_us, Some(1_000));
        // Lower tasks absorb higher jobs.
        assert!(r.tasks[1].response_us.unwrap() >= 3_000);
    }

    #[test]
    fn overload_is_refuted_not_unknown() {
        let m = complete(
            vec![task("a", 10, 10_000, 8_000), task("b", 20, 10_000, 8_000)],
            Vec::new(),
        );
        let r = analyze(&m, &AnalysisOptions::default());
        assert_eq!(r.schedulable, Verdict::Refuted);
        assert!(r.sched_detail.contains("task b"), "{}", r.sched_detail);
    }

    #[test]
    fn incomplete_timing_yields_unknown() {
        let mut m = complete(vec![task("a", 10, 10_000, 1_000)], Vec::new());
        m.timing_complete = false;
        let r = analyze(&m, &AnalysisOptions::default());
        assert_eq!(r.schedulable, Verdict::Unknown);
        assert_eq!(r.deadlock, Verdict::Certified);
    }

    #[test]
    fn fault_degraded_yields_unknown() {
        let mut m = complete(vec![task("a", 10, 10_000, 1_000)], Vec::new());
        m.fault_degraded = true;
        let r = analyze(&m, &AnalysisOptions::default());
        assert_eq!(r.schedulable, Verdict::Unknown);
    }

    #[test]
    fn inherit_cycle_refuted_ceiling_cycle_certified() {
        // Two resources, two tasks locking them in opposite orders:
        // the classic AB/BA deadlock.
        let res = |policy| ResourceModel {
            name: "r".into(),
            policy,
            pri_order: true,
        };
        let mut ab = task("ab", 10, 100_000, 1_000);
        ab.sections = vec![SectionModel {
            resource: 0,
            len_us: 100,
            inner: vec![SectionModel::leaf(1, 50)],
        }];
        let mut ba = task("ba", 20, 100_000, 1_000);
        ba.sections = vec![SectionModel {
            resource: 1,
            len_us: 100,
            inner: vec![SectionModel::leaf(0, 50)],
        }];

        let inherit = complete(
            vec![ab.clone(), ba.clone()],
            vec![res(LockPolicy::Inherit), res(LockPolicy::Inherit)],
        );
        let r = analyze(&inherit, &AnalysisOptions::default());
        assert_eq!(r.deadlock, Verdict::Refuted);
        assert!(r.cycle.is_some());

        let ceiling = complete(
            vec![ab, ba],
            vec![res(LockPolicy::Ceiling(5)), res(LockPolicy::Ceiling(5))],
        );
        let r = analyze(&ceiling, &AnalysisOptions::default());
        assert_eq!(r.deadlock, Verdict::Certified, "{}", r.deadlock_detail);

        // The mutation knob flips the inherit verdict — this is what
        // the sensitivity tests rely on.
        let r = analyze(
            &inherit,
            &AnalysisOptions {
                inherit_breaks_cycles: true,
                ..Default::default()
            },
        );
        assert_eq!(r.deadlock, Verdict::Certified);
    }

    #[test]
    fn summary_is_stable() {
        let m = complete(vec![task("a", 10, 10_000, 1_000)], Vec::new());
        let a = analyze(&m, &AnalysisOptions::default()).summary();
        let b = analyze(&m, &AnalysisOptions::default()).summary();
        assert_eq!(a, b);
        assert!(a.contains("deadlock=certified"));
        assert!(a.contains("a:R=1000us"));
    }
}
