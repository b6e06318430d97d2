//! The spec state behind the oracle: a closed ITRON transition system.
//!
//! [`SpecState`] is the executable reference model that
//! [`super::Checker`] replays observation streams through — every
//! event-application rule lives here, unchanged from the replay-only
//! oracle. On top of event application ([`SpecState::apply`]) it
//! exposes the *closed-system* interface the `--explore` model checker
//! drives:
//!
//! * [`SpecState::enabled`] — the spec-derivable choice points at this
//!   state: the forced dispatch/preemption (always a singleton — the
//!   µ-ITRON scheduler is deterministic) or the set of armed timeouts.
//! * [`SpecState::step`] — pure successor construction: realize one
//!   [`Choice`] into observation events, apply them, and drain every
//!   mandated wakeup so the successor is quiescent. The realized event
//!   list is returned, so an exploration path is *by construction* a
//!   replayable observation stream.
//! * [`SpecState::canon_digest`] — canonical FNV-1a hash of the
//!   semantic state, for revisit deduplication.
//! * [`SpecState::invariant_violations`] — independent well-formedness
//!   checks (priority fixpoint, no stranded satisfiable waiters, ...)
//!   computed with always-healthy logic, so a mutated spec
//!   ([`SpecMutation`]) is caught the moment its state goes wrong.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Index;

use rtk_core::{FlagWaitMode, MtxPolicy, ObsEvent, TaskId, WaitObj, WakeCode};

use crate::scenario::Fnv;

type Tid = u32;
type Er = Result<(), String>;

/// Largest raw object id the spec models. The kernel hands ids out as
/// dense 1-based table slots, so a campaign's ids stay in the tens; the
/// cap only keeps a raw id read from an untrusted trace from sizing an
/// allocation.
const MAX_MODELED_ID: u32 = 1 << 16;

/// A dense id-indexed object table: slot `id` holds the object with
/// raw id `id`. The kernel allocates ids as dense 1-based slots and
/// reuses freed ones, so this spans the same id space it does.
/// Iteration is in ascending id order and [`Table::len`] counts live
/// entries, exactly what an id-keyed ordered map would give.
#[derive(Debug, Clone)]
struct Table<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Table<T> {
    /// The entry with `id`; ids never created (or beyond the cap) are
    /// simply unknown.
    fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Creates (or replaces) the entry with `id`. An id beyond
    /// [`MAX_MODELED_ID`] is a divergence, never an allocation.
    fn insert(&mut self, id: u32, value: T) -> Er {
        if id > MAX_MODELED_ID {
            return Err(format!(
                "object id {id} is beyond the spec's modeled id cap {MAX_MODELED_ID}"
            ));
        }
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(value).is_none() {
            self.live += 1;
        }
        Ok(())
    }

    /// The entry with `id`, created with the default value if absent.
    fn get_or_default(&mut self, id: u32) -> Result<&mut T, String>
    where
        T: Default,
    {
        if self.get(id).is_none() {
            self.insert(id, T::default())?;
        }
        Ok(self.get_mut(id).expect("present or just inserted"))
    }

    fn remove(&mut self, id: u32) {
        if let Some(slot) = self.slots.get_mut(id as usize) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Number of live entries (not slots).
    fn len(&self) -> usize {
        self.live
    }

    /// Live entries in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id as u32, slot.as_ref()?)))
    }
}

impl<T> Index<u32> for Table<T> {
    type Output = T;

    fn index(&self, id: u32) -> &T {
        self.get(id).expect("id is modeled")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Dormant,
    Ready,
    Running,
    Waiting,
    Suspend,
    WaitSuspend,
}

#[derive(Debug, Clone)]
struct TaskM {
    base: u8,
    cur: u8,
    state: TState,
    wait: Option<WaitObj>,
    deadline: Option<u64>,
    /// Held mutexes (raw ids) in acquisition order.
    held: Vec<u32>,
    /// Nested suspend count.
    suscnt: u32,
    /// Queued `tk_wup_tsk` requests.
    wupcnt: u32,
}

/// A `TA_TFIFO`/`TA_TPRI` wait queue mirroring the kernel's semantics:
/// entries carry the priority they were (re-)enqueued at; priority
/// insertion goes behind equal priorities; a reprioritised entry is
/// removed and re-enqueued (so it lands behind its new peers).
#[derive(Debug, Clone)]
struct Queue {
    pri_order: bool,
    entries: Vec<(Tid, u8)>,
}

impl Queue {
    fn new(pri_order: bool) -> Self {
        Queue {
            pri_order,
            entries: Vec::new(),
        }
    }

    fn enqueue(&mut self, tid: Tid, pri: u8) {
        if self.pri_order {
            let pos = self
                .entries
                .iter()
                .position(|&(_, p)| p > pri)
                .unwrap_or(self.entries.len());
            self.entries.insert(pos, (tid, pri));
        } else {
            self.entries.push((tid, pri));
        }
    }

    fn remove(&mut self, tid: Tid) -> bool {
        match self.entries.iter().position(|&(t, _)| t == tid) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn reprioritize(&mut self, tid: Tid, pri: u8) {
        if self.remove(tid) {
            self.enqueue(tid, pri);
        }
    }

    fn front(&self) -> Option<Tid> {
        self.entries.first().map(|&(t, _)| t)
    }

    fn pop(&mut self) -> Option<Tid> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).0)
        }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn iter_tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.entries.iter().map(|&(t, _)| t)
    }
}

#[derive(Debug, Clone)]
struct SemM {
    count: u32,
    max: u32,
    q: Queue,
}

#[derive(Debug, Clone)]
struct FlagM {
    pattern: u32,
    q: Queue,
}

#[derive(Debug, Clone)]
struct MbxM {
    msgs: usize,
    q: Queue,
}

#[derive(Debug, Clone)]
struct MbfM {
    bufsz: usize,
    used: usize,
    msgs: VecDeque<usize>,
    send_q: Queue,
    /// Payload length of each blocked sender.
    send_len: BTreeMap<Tid, usize>,
    recv_q: Queue,
}

#[derive(Debug, Clone)]
struct MtxM {
    policy: MtxPolicy,
    owner: Option<Tid>,
    q: Queue,
}

#[derive(Debug, Clone)]
struct MpfM {
    total: usize,
    free: usize,
    q: Queue,
}

/// Allocation alignment of the kernel's variable-size pools.
const MPL_ALIGN: usize = 4;

fn align_up(sz: usize) -> usize {
    (sz + MPL_ALIGN - 1) & !(MPL_ALIGN - 1)
}

/// First-fit arena shadow of one variable-size pool: the same
/// offset-keyed free/alloc maps the kernel keeps, so the spec computes
/// the exact offsets first-fit mandates and the exact coalescing a
/// release must perform.
#[derive(Debug, Clone)]
struct MplM {
    /// Free regions: offset -> length, coalesced.
    free: BTreeMap<usize, usize>,
    /// Live allocations: offset -> length (aligned).
    allocs: BTreeMap<usize, usize>,
    q: Queue,
}

impl MplM {
    /// First-fit allocation (mirrors `kernel::mpl::Mpl::try_alloc`).
    fn try_alloc(&mut self, sz: usize) -> Option<usize> {
        let sz = align_up(sz);
        let (off, len) = self
            .free
            .iter()
            .find(|&(_, len)| *len >= sz)
            .map(|(o, l)| (*o, *l))?;
        self.free.remove(&off);
        if len > sz {
            self.free.insert(off + sz, len - sz);
        }
        self.allocs.insert(off, sz);
        Some(off)
    }

    /// `true` when a request of `sz` (pre-alignment) would fit now.
    fn can_alloc(&self, sz: usize) -> bool {
        let sz = align_up(sz);
        self.free.values().any(|&len| len >= sz)
    }

    /// Releases an allocation, coalescing with free neighbours.
    fn release(&mut self, off: usize) -> Result<(), String> {
        let len = self.allocs.remove(&off).ok_or_else(|| {
            format!("release of offset {off} which the spec has no allocation at")
        })?;
        let mut start = off;
        let mut length = len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
                length += plen;
            }
        }
        if let Some(&nlen) = self.free.get(&(off + len)) {
            self.free.remove(&(off + len));
            length += nlen;
        }
        self.free.insert(start, length);
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct CycM {
    period: u64,
    /// Absolute tick of the next mandated activation, if armed.
    armed: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct AlmM {
    /// Absolute tick of the mandated (one-shot) activation, if armed.
    armed: Option<u64>,
}

/// The whole reference-model state: the executable µ-ITRON spec as
/// a value. Constructed empty ([`SpecState::default`]), advanced
/// either by replaying kernel observations ([`SpecState::apply`],
/// what [`super::Checker`] does) or by resolving nondeterministic
/// choices ([`SpecState::step`], what `rtk-farm --explore` does).
#[derive(Debug, Clone, Default)]
pub struct SpecState {
    tasks: Table<TaskM>,
    /// Ready queue in dispatch order (priority levels, FIFO within,
    /// preempted tasks re-enter at the head of their level).
    ready: Vec<(Tid, u8)>,
    running: Option<Tid>,
    /// `tk_dis_dsp`/`tk_loc_cpu` window: no dispatch, preemption or
    /// blocking may be observed while set.
    dispatch_disabled: bool,
    sems: Table<SemM>,
    flags: Table<FlagM>,
    mbxs: Table<MbxM>,
    mbfs: Table<MbfM>,
    mtxs: Table<MtxM>,
    mpfs: Table<MpfM>,
    mpls: Table<MplM>,
    cycs: Table<CycM>,
    alms: Table<AlmM>,
    /// Wakeups the spec has mandated but the kernel has not yet
    /// reported. Non-empty ⇒ the very next event must be the front
    /// wakeup (wakeups are emitted contiguously after their stimulus).
    expected: VecDeque<(Tid, WaitObj, WakeCode)>,
    /// Deliberately-broken-rule switch for the mutation-sensitivity
    /// proofs; `None` (the default) is the faithful spec, so `Checker`
    /// replay is byte-identical to the pre-split oracle.
    mutation: Option<SpecMutation>,
    /// Scratch buffer of the priority fixpoint, indexed by raw tid and
    /// reused across events. Not state: `canon_digest` ignores it.
    prio: Vec<u8>,
}

fn flag_satisfied(pattern: u32, waiptn: u32, mode: FlagWaitMode) -> bool {
    if mode.and {
        pattern & waiptn == waiptn
    } else {
        pattern & waiptn != 0
    }
}

fn flag_clear(pattern: &mut u32, waiptn: u32, mode: FlagWaitMode) {
    if mode.clear_all {
        *pattern = 0;
    } else if mode.clear_bits {
        *pattern &= !waiptn;
    }
}

impl SpecState {
    fn task(&self, tid: Tid) -> Result<&TaskM, String> {
        self.tasks
            .get(tid)
            .ok_or_else(|| format!("unknown tsk{tid}"))
    }

    fn task_mut(&mut self, tid: Tid) -> Result<&mut TaskM, String> {
        self.tasks
            .get_mut(tid)
            .ok_or_else(|| format!("unknown tsk{tid}"))
    }

    /// The caller of a task-context service must be the running task.
    fn require_running(&self, tid: Tid) -> Er {
        if self.running == Some(tid) {
            Ok(())
        } else {
            Err(format!(
                "tsk{tid} performed a task-context operation but the spec's running task is {:?}",
                self.running
            ))
        }
    }

    // ------------------------------------------------------------------
    // Ready queue (mirrors the priority-preemptive scheduler)
    // ------------------------------------------------------------------

    fn ready_tail(&mut self, tid: Tid) {
        let pri = self.tasks[tid].cur;
        let pos = self
            .ready
            .iter()
            .position(|&(_, p)| p > pri)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (tid, pri));
    }

    fn ready_head(&mut self, tid: Tid) {
        let pri = self.tasks[tid].cur;
        let pos = self
            .ready
            .iter()
            .position(|&(_, p)| p >= pri)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (tid, pri));
    }

    fn ready_remove(&mut self, tid: Tid) {
        self.ready.retain(|&(t, _)| t != tid);
    }

    /// Rotates the ready entries of one priority level: the level's
    /// head moves behind its last peer (`tk_rot_rdq`).
    fn rotate_ready(&mut self, pri: u8) {
        // The ready queue is sorted by priority, so the level is one
        // contiguous run.
        let level = |&(_, p): &(Tid, u8)| p == pri;
        if let (Some(first), Some(last)) = (
            self.ready.iter().position(level),
            self.ready.iter().rposition(level),
        ) {
            self.ready[first..=last].rotate_left(1);
        }
    }

    /// Makes a waiting task ready — or SUSPENDED, when the wait was
    /// doubly blocked (µ-ITRON WAIT-SUSPEND) — and registers the
    /// mandated wakeup event.
    fn wake(&mut self, tid: Tid, code: WakeCode) -> Er {
        let t = self.task_mut(tid)?;
        let obj = t
            .wait
            .take()
            .ok_or_else(|| format!("spec woke tsk{tid} which is not waiting"))?;
        t.deadline = None;
        let suspended = t.state == TState::WaitSuspend;
        t.state = if suspended {
            TState::Suspend
        } else {
            TState::Ready
        };
        if !suspended {
            self.ready_tail(tid);
        }
        self.expected.push_back((tid, obj, code));
        Ok(())
    }

    /// Removes `tid` from the wait queue of whatever it is blocked on
    /// (plus the mbf sender-payload bookkeeping), without completing
    /// the wait. Returns the object, for the re-serve pass.
    fn detach(&mut self, tid: Tid) -> Option<WaitObj> {
        let obj = self.tasks.get(tid)?.wait?;
        if let WaitObj::MbfSend(id, _) = obj {
            if let Some(m) = self.mbfs.get_mut(id.raw()) {
                m.send_len.remove(&tid);
            }
        }
        if let Some(q) = self.wait_queue_mut(&obj) {
            q.remove(tid);
        }
        Some(obj)
    }

    /// Re-serves the queue a waiter was just removed from: waiters
    /// behind it may have become satisfiable (semaphore counts, mbf
    /// buffer space, mpl arena space) and µ-ITRON mandates waking them
    /// now, in queue order.
    fn reserve(&mut self, obj: WaitObj) -> Er {
        match obj {
            WaitObj::Sem(id, _) => self.sem_serve(id.raw()),
            WaitObj::MbfSend(id, _) => self.mbf_drain(id.raw()),
            WaitObj::Mpl(id, _) => self.mpl_serve(id.raw()),
            _ => Ok(()),
        }
    }

    /// Wakes satisfiable semaphore waiters strictly from the head.
    fn sem_serve(&mut self, id: u32) -> Er {
        while let Some(front) = self.sems.get(id).and_then(|s| s.q.front()) {
            let req = match self.tasks.get(front).and_then(|t| t.wait) {
                Some(WaitObj::Sem(_, req)) => req,
                _ => 1,
            };
            let sem = self.sems.get_mut(id).expect("checked");
            if sem.count < req {
                break;
            }
            sem.count -= req;
            sem.q.pop();
            self.wake(front, WakeCode::Ok)?;
        }
        Ok(())
    }

    /// Moves blocked senders' messages into the buffer while space
    /// allows, strictly in queue order, waking them.
    fn mbf_drain(&mut self, id: u32) -> Er {
        loop {
            let Some(mbf) = self.mbfs.get_mut(id) else {
                return Ok(());
            };
            let Some(front) = mbf.send_q.front() else {
                return Ok(());
            };
            let slen = mbf.send_len.get(&front).copied().unwrap_or(0);
            if mbf.used + slen > mbf.bufsz {
                return Ok(());
            }
            mbf.used += slen;
            mbf.msgs.push_back(slen);
            mbf.send_q.pop();
            mbf.send_len.remove(&front);
            self.wake(front, WakeCode::Ok)?;
        }
    }

    /// Serves queued pool waiters whose requests now fit, strictly in
    /// queue order, allocating in the shadow arena.
    fn mpl_serve(&mut self, id: u32) -> Er {
        loop {
            let Some(front) = self.mpls.get(id).and_then(|p| p.q.front()) else {
                return Ok(());
            };
            let req = match self.tasks.get(front).and_then(|t| t.wait) {
                Some(WaitObj::Mpl(_, sz)) => sz,
                _ => return Ok(()),
            };
            let pool = self.mpls.get_mut(id).expect("checked");
            if pool.try_alloc(req).is_none() {
                return Ok(());
            }
            pool.q.pop();
            self.wake(front, WakeCode::Ok)?;
        }
    }

    // ------------------------------------------------------------------
    // Priorities: ceiling + transitive inheritance, by fixpoint
    // ------------------------------------------------------------------

    /// Recomputes every task's current priority from first principles
    /// ([`SpecState::priority_fixpoint`], under the configured rule)
    /// and applies the changes in ascending tid order: a changed task
    /// is re-sorted in the ready queue or its wait queue, mirroring the
    /// kernel's reprioritisation rule.
    fn recompute_priorities(&mut self) {
        let mut cur = std::mem::take(&mut self.prio);
        let transitive = self.mutation != Some(SpecMutation::DirectInheritanceOnly);
        self.priority_fixpoint(transitive, &mut cur);
        for (tid, &new) in cur.iter().enumerate() {
            let tid = tid as Tid;
            let Some(t) = self.tasks.get_mut(tid) else {
                continue;
            };
            if t.cur == new {
                continue;
            }
            t.cur = new;
            match (t.state, t.wait) {
                (TState::Ready, _) => {
                    self.ready_remove(tid);
                    self.ready_tail(tid);
                }
                (TState::Waiting | TState::WaitSuspend, Some(obj)) => {
                    if let Some(q) = self.wait_queue_mut(&obj) {
                        q.reprioritize(tid, new);
                    }
                }
                _ => {}
            }
        }
        self.prio = cur;
    }

    /// The ceiling + transitive-inheritance priority fixpoint, computed
    /// into `cur` (indexed by raw tid; vacant slots hold `u8::MAX`)
    /// without touching the state: every task starts at its base
    /// priority and relaxes downward (more urgent) through held ceiling
    /// mutexes and the current priorities of tasks waiting on held
    /// inheritance mutexes, until stable. With `transitive` off (the
    /// [`SpecMutation::DirectInheritanceOnly`] rule) a waiter lends
    /// only its *base* priority.
    fn priority_fixpoint(&self, transitive: bool, cur: &mut Vec<u8>) {
        cur.clear();
        cur.extend(
            self.tasks
                .slots
                .iter()
                .map(|t| t.as_ref().map_or(u8::MAX, |t| t.base)),
        );
        loop {
            let mut changed = false;
            for (tid, t) in self.tasks.iter() {
                let mut p = t.base;
                for &mid in &t.held {
                    let Some(m) = self.mtxs.get(mid) else {
                        continue;
                    };
                    match m.policy {
                        MtxPolicy::Ceiling(c) => p = p.min(c),
                        MtxPolicy::Inherit => {
                            for w in m.q.iter_tids() {
                                let wp = if transitive {
                                    cur.get(w as usize).copied()
                                } else {
                                    self.tasks.get(w).map(|t| t.base)
                                };
                                p = p.min(wp.unwrap_or(u8::MAX));
                            }
                        }
                        _ => {}
                    }
                }
                if cur[tid as usize] != p {
                    cur[tid as usize] = p;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The wait queue a blocked task sits in, if the object is modeled.
    fn wait_queue_mut(&mut self, obj: &WaitObj) -> Option<&mut Queue> {
        match obj {
            WaitObj::Sem(id, _) => self.sems.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::Flag(id, _, _) => self.flags.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::Mbx(id) => self.mbxs.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::MbfSend(id, _) => self.mbfs.get_mut(id.raw()).map(|o| &mut o.send_q),
            WaitObj::MbfRecv(id) => self.mbfs.get_mut(id.raw()).map(|o| &mut o.recv_q),
            WaitObj::Mtx(id) => self.mtxs.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::Mpf(id) => self.mpfs.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::Mpl(id, _) => self.mpls.get_mut(id.raw()).map(|o| &mut o.q),
            WaitObj::Sleep | WaitObj::Delay => None,
        }
    }

    // ------------------------------------------------------------------
    // The replay step
    // ------------------------------------------------------------------

    /// Applies one observed kernel event, verifying it against the
    /// spec's mandated behaviour; an `Err` carries the divergence
    /// detail.
    pub fn apply(&mut self, ev: &ObsEvent) -> Er {
        // Contiguity rule: while mandated wakeups are outstanding, the
        // next event must be exactly the front one.
        if let Some(&(etid, eobj, ecode)) = self.expected.front() {
            match ev {
                ObsEvent::Wakeup { tid, obj, code }
                    if tid.raw() == etid && *obj == eobj && *code == ecode =>
                {
                    self.expected.pop_front();
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "spec mandates wakeup of tsk{etid} from {} ({ecode:?}) here",
                        eobj.describe()
                    ));
                }
            }
        }

        match *ev {
            ObsEvent::TaskCreate { tid, pri } => self.tasks.insert(
                tid.raw(),
                TaskM {
                    base: pri,
                    cur: pri,
                    state: TState::Dormant,
                    wait: None,
                    deadline: None,
                    held: Vec::new(),
                    suscnt: 0,
                    wupcnt: 0,
                },
            ),
            ObsEvent::TaskStart { tid } => {
                let t = self.task_mut(tid.raw())?;
                if t.state != TState::Dormant {
                    return Err(format!("started task is {:?}, spec says DORMANT", t.state));
                }
                t.state = TState::Ready;
                t.cur = t.base;
                self.ready_tail(tid.raw());
                Ok(())
            }
            ObsEvent::TaskExit { tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let held = std::mem::take(&mut self.task_mut(tid)?.held);
                for mid in held {
                    self.release_mutex(mid)?;
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Dormant;
                t.wait = None;
                t.deadline = None;
                t.suscnt = 0;
                t.wupcnt = 0;
                self.running = None;
                // An exiting task takes its dispatch-disable window
                // with it.
                self.dispatch_disabled = false;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::TaskTerminate { tid } => {
                let tid = tid.raw();
                if self.task(tid)?.state == TState::Dormant {
                    return Err("terminate of a task the spec says is DORMANT".into());
                }
                // Order mirrors the kernel: held mutexes transfer
                // first (their wakeups), then the abandoned wait's
                // queue is re-served (its wakeups).
                let held = std::mem::take(&mut self.task_mut(tid)?.held);
                for mid in held {
                    self.release_mutex(mid)?;
                }
                let detached = self.detach(tid);
                if self.running == Some(tid) {
                    self.running = None;
                    // A dispatch-disable window dies with the running
                    // task it belongs to.
                    self.dispatch_disabled = false;
                } else {
                    self.ready_remove(tid);
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Dormant;
                t.wait = None;
                t.deadline = None;
                t.suscnt = 0;
                t.wupcnt = 0;
                if let Some(obj) = detached {
                    self.reserve(obj)?;
                }
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::TaskDelete { tid } => {
                let tid = tid.raw();
                if self.task(tid)?.state != TState::Dormant {
                    return Err("delete of a task the spec says is not DORMANT".into());
                }
                self.tasks.remove(tid);
                Ok(())
            }
            ObsEvent::Suspend { tid } => {
                let tid = tid.raw();
                let t = self.task_mut(tid)?;
                match t.state {
                    TState::Dormant => Err("suspend of a DORMANT task".into()),
                    TState::Ready => {
                        t.suscnt += 1;
                        t.state = TState::Suspend;
                        self.ready_remove(tid);
                        Ok(())
                    }
                    TState::Waiting => {
                        t.suscnt += 1;
                        t.state = TState::WaitSuspend;
                        Ok(())
                    }
                    TState::Running => {
                        t.suscnt += 1;
                        t.state = TState::Suspend;
                        self.running = None;
                        Ok(())
                    }
                    TState::Suspend | TState::WaitSuspend => {
                        t.suscnt += 1;
                        Ok(())
                    }
                }
            }
            ObsEvent::Resume { tid, force } => {
                let tid = tid.raw();
                let t = self.task_mut(tid)?;
                if !matches!(t.state, TState::Suspend | TState::WaitSuspend) {
                    return Err(format!(
                        "resume of a task the spec says is {:?}, not suspended",
                        t.state
                    ));
                }
                if t.suscnt == 0 {
                    return Err("resume with a zero spec suspend count".into());
                }
                t.suscnt = if force { 0 } else { t.suscnt - 1 };
                if t.suscnt == 0 {
                    match t.state {
                        TState::Suspend => {
                            t.state = TState::Ready;
                            self.ready_tail(tid);
                        }
                        TState::WaitSuspend => t.state = TState::Waiting,
                        _ => unreachable!("state checked above"),
                    }
                }
                Ok(())
            }
            ObsEvent::RelWai { tid } => {
                let tid = tid.raw();
                if !matches!(self.task(tid)?.state, TState::Waiting | TState::WaitSuspend) {
                    return Err("forced release of a task the spec says is not waiting".into());
                }
                let detached = self.detach(tid);
                self.wake(tid, WakeCode::Released)?;
                if let Some(obj) = detached {
                    self.reserve(obj)?;
                }
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::RotRdq { pri } => {
                self.rotate_ready(pri);
                Ok(())
            }
            ObsEvent::WupTsk { tid } => {
                let tid = tid.raw();
                let t = self.task(tid)?;
                let sleeping = matches!(t.state, TState::Waiting | TState::WaitSuspend)
                    && t.wait == Some(WaitObj::Sleep);
                if sleeping {
                    self.wake(tid, WakeCode::Ok)
                } else if t.state == TState::Dormant {
                    Err("wakeup of a DORMANT task".into())
                } else {
                    self.task_mut(tid)?.wupcnt += 1;
                    Ok(())
                }
            }
            ObsEvent::WupConsume { tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let t = self.task_mut(tid)?;
                if t.wupcnt == 0 {
                    return Err("consumed a queued wakeup the spec does not have".into());
                }
                t.wupcnt -= 1;
                Ok(())
            }
            ObsEvent::DispCtl { disabled } => {
                self.dispatch_disabled = disabled;
                Ok(())
            }
            ObsEvent::PriChange { tid, base } => {
                self.task_mut(tid.raw())?.base = base;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::Dispatch { tid, pri } => {
                let tid = tid.raw();
                if self.dispatch_disabled {
                    return Err("dispatch inside a dispatch-disabled window".into());
                }
                if let Some(r) = self.running {
                    return Err(format!("dispatch while spec still has tsk{r} running"));
                }
                match self.ready.first() {
                    Some(&(head, _)) if head == tid => {}
                    Some(&(head, hp)) => {
                        return Err(format!(
                            "spec's highest-priority ready task is tsk{head} (pri {hp}), not the dispatched one"
                        ));
                    }
                    None => return Err("dispatch with an empty spec ready queue".into()),
                }
                let cur = self.task(tid)?.cur;
                if cur != pri {
                    return Err(format!(
                        "dispatched at priority {pri}, spec computes current priority {cur}"
                    ));
                }
                self.ready.remove(0);
                self.task_mut(tid)?.state = TState::Running;
                self.running = Some(tid);
                Ok(())
            }
            ObsEvent::Preempt { tid } => {
                let tid = tid.raw();
                if self.dispatch_disabled {
                    return Err("preemption inside a dispatch-disabled window".into());
                }
                self.require_running(tid)?;
                self.task_mut(tid)?.state = TState::Ready;
                self.running = None;
                self.ready_head(tid);
                Ok(())
            }
            ObsEvent::Block {
                tid,
                obj,
                deadline_tick,
            } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                if self.dispatch_disabled {
                    return Err("blocking call inside a dispatch-disabled window".into());
                }
                self.check_would_block(tid, &obj)?;
                if obj == WaitObj::Sleep && self.task(tid)?.wupcnt > 0 {
                    return Err("blocked in tk_slp_tsk with a queued wakeup request".into());
                }
                let pri = self.task(tid)?.cur;
                if let WaitObj::MbfSend(id, len) = obj {
                    if let Some(m) = self.mbfs.get_mut(id.raw()) {
                        m.send_len.insert(tid, len);
                    }
                }
                if let Some(q) = self.wait_queue_mut(&obj) {
                    q.enqueue(tid, pri);
                }
                let t = self.task_mut(tid)?;
                t.state = TState::Waiting;
                t.wait = Some(obj);
                t.deadline = deadline_tick;
                self.running = None;
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::Wakeup { tid, obj, .. } => Err(format!(
                "kernel woke tsk{} from {} but the spec mandates no wakeup here",
                tid.raw(),
                obj.describe()
            )),
            ObsEvent::TimerFire { tid, tick } => {
                let tid = tid.raw();
                let t = self.task(tid)?;
                if !matches!(t.state, TState::Waiting | TState::WaitSuspend) {
                    return Err(format!(
                        "timeout fired for non-waiting task ({:?})",
                        t.state
                    ));
                }
                match t.deadline {
                    Some(d) if d == tick => {}
                    Some(d) => {
                        return Err(format!(
                            "timeout fired at tick {tick}, spec armed it for tick {d}"
                        ));
                    }
                    None => return Err("timeout fired for a wait without a deadline".into()),
                }
                let detached = self.detach(tid);
                self.wake(tid, WakeCode::Timeout)?;
                // A mutated spec (SkipTimeoutReserve) forgets the
                // mandated re-serve of the queue the waiter left.
                if self.mutation != Some(SpecMutation::SkipTimeoutReserve) {
                    if let Some(obj) = detached {
                        self.reserve(obj)?;
                    }
                }
                self.recompute_priorities();
                Ok(())
            }

            ObsEvent::SemCreate {
                id,
                init,
                max,
                pri_order,
            } => self.sems.insert(
                id.raw(),
                SemM {
                    count: init,
                    max,
                    q: Queue::new(pri_order),
                },
            ),
            ObsEvent::SemSignal { id, cnt } => {
                let id = id.raw();
                let sem = self
                    .sems
                    .get_mut(id)
                    .ok_or_else(|| format!("unknown sem{id}"))?;
                if sem.count.checked_add(cnt).is_none_or(|v| v > sem.max) {
                    return Err(format!(
                        "signal of {cnt} overflows the spec's count {}/{}",
                        sem.count, sem.max
                    ));
                }
                sem.count += cnt;
                self.sem_serve(id)
            }
            ObsEvent::SemTake { id, tid, cnt } => {
                self.require_running(tid.raw())?;
                let sem = self
                    .sems
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !sem.q.is_empty() {
                    return Err("immediate acquisition barged past waiting tasks".into());
                }
                if sem.count < cnt {
                    return Err(format!(
                        "immediate acquisition of {cnt} with spec count {}",
                        sem.count
                    ));
                }
                sem.count -= cnt;
                Ok(())
            }

            ObsEvent::FlagCreate {
                id,
                init,
                pri_order,
            } => self.flags.insert(
                id.raw(),
                FlagM {
                    pattern: init,
                    q: Queue::new(pri_order),
                },
            ),
            ObsEvent::FlagSet { id, ptn } => {
                let id = id.raw();
                let flag = self
                    .flags
                    .get_mut(id)
                    .ok_or_else(|| format!("unknown flg{id}"))?;
                flag.pattern |= ptn;
                // Walk the queue in order, re-checking after each
                // release (clears can unsatisfy later waiters). Waking
                // never touches this queue, so an index walks it.
                let mut i = 0;
                loop {
                    let flag = self.flags.get_mut(id).expect("checked");
                    let Some(&(tid, _)) = flag.q.entries.get(i) else {
                        return Ok(());
                    };
                    let satisfied = match self.tasks.get(tid).and_then(|t| t.wait) {
                        Some(WaitObj::Flag(_, waiptn, mode))
                            if flag_satisfied(flag.pattern, waiptn, mode) =>
                        {
                            flag_clear(&mut flag.pattern, waiptn, mode);
                            true
                        }
                        _ => false,
                    };
                    if satisfied {
                        flag.q.entries.remove(i);
                        self.wake(tid, WakeCode::Ok)?;
                    } else {
                        i += 1;
                    }
                }
            }
            ObsEvent::FlagClear { id, mask } => {
                let flag = self
                    .flags
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                flag.pattern &= mask;
                Ok(())
            }
            ObsEvent::FlagTake { id, tid, ptn, mode } => {
                self.require_running(tid.raw())?;
                let flag = self
                    .flags
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !flag_satisfied(flag.pattern, ptn, mode) {
                    return Err(format!(
                        "immediate flag wait satisfied by the kernel but not by the spec pattern {:#06x}",
                        flag.pattern
                    ));
                }
                flag_clear(&mut flag.pattern, ptn, mode);
                Ok(())
            }

            ObsEvent::MbxCreate { id, pri_order } => self.mbxs.insert(
                id.raw(),
                MbxM {
                    msgs: 0,
                    q: Queue::new(pri_order),
                },
            ),
            ObsEvent::MbxSend { id } => {
                let mbx = self
                    .mbxs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(receiver) = mbx.q.pop() {
                    self.wake(receiver, WakeCode::Ok)?;
                } else {
                    mbx.msgs += 1;
                }
                Ok(())
            }
            ObsEvent::MbxTake { id, tid } => {
                self.require_running(tid.raw())?;
                let mbx = self
                    .mbxs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if mbx.msgs == 0 {
                    return Err("immediate receive from a mailbox the spec says is empty".into());
                }
                mbx.msgs -= 1;
                Ok(())
            }

            ObsEvent::MbfCreate {
                id,
                bufsz,
                pri_order,
                ..
            } => self.mbfs.insert(
                id.raw(),
                MbfM {
                    bufsz,
                    used: 0,
                    msgs: VecDeque::new(),
                    send_q: Queue::new(pri_order),
                    send_len: BTreeMap::new(),
                    recv_q: Queue::new(pri_order),
                },
            ),
            ObsEvent::MbfSend { id, len } => {
                let mbf = self
                    .mbfs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                let direct = mbf.msgs.is_empty() && mbf.send_q.is_empty();
                if direct {
                    if let Some(receiver) = mbf.recv_q.pop() {
                        return self.wake(receiver, WakeCode::Ok);
                    }
                }
                if mbf.send_q.is_empty() && mbf.used + len <= mbf.bufsz {
                    mbf.used += len;
                    mbf.msgs.push_back(len);
                    Ok(())
                } else {
                    Err("immediate send the spec says must block".into())
                }
            }
            ObsEvent::MbfRecv { id, tid } => {
                let id = id.raw();
                self.require_running(tid.raw())?;
                let mbf = self
                    .mbfs
                    .get_mut(id)
                    .ok_or_else(|| format!("unknown mbf{id}"))?;
                if let Some(len) = mbf.msgs.pop_front() {
                    mbf.used -= len;
                    // Buffer space freed: blocked senders move in,
                    // strictly in queue order.
                    self.mbf_drain(id)
                } else if let Some(sender) = mbf.send_q.pop() {
                    mbf.send_len.remove(&sender);
                    self.wake(sender, WakeCode::Ok)
                } else {
                    Err("immediate receive the spec says must block".into())
                }
            }

            ObsEvent::MtxCreate { id, policy } => self.mtxs.insert(
                id.raw(),
                MtxM {
                    policy,
                    owner: None,
                    q: Queue::new(!matches!(policy, MtxPolicy::Fifo)),
                },
            ),
            ObsEvent::MtxLock { id, tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let mtx = self
                    .mtxs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(owner) = mtx.owner {
                    return Err(format!(
                        "immediate lock of a mutex the spec says tsk{owner} owns"
                    ));
                }
                mtx.owner = Some(tid);
                self.task_mut(tid)?.held.push(id.raw());
                self.recompute_priorities();
                Ok(())
            }
            ObsEvent::MtxUnlock { id, tid } => {
                let tid = tid.raw();
                self.require_running(tid)?;
                let id = id.raw();
                let owner = self
                    .mtxs
                    .get(id)
                    .ok_or_else(|| format!("unknown mtx{id}"))?
                    .owner;
                if owner != Some(tid) {
                    return Err(format!(
                        "unlock by tsk{tid} of a mutex the spec says {owner:?} owns"
                    ));
                }
                self.task_mut(tid)?.held.retain(|m| *m != id);
                self.release_mutex(id)?;
                self.recompute_priorities();
                Ok(())
            }

            ObsEvent::MpfCreate {
                id,
                blocks,
                pri_order,
            } => self.mpfs.insert(
                id.raw(),
                MpfM {
                    total: blocks,
                    free: blocks,
                    q: Queue::new(pri_order),
                },
            ),
            ObsEvent::MpfTake { id, tid } => {
                self.require_running(tid.raw())?;
                let pool = self
                    .mpfs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !pool.q.is_empty() {
                    return Err("immediate block acquisition barged past waiting tasks".into());
                }
                if pool.free == 0 {
                    return Err("immediate block acquisition from an exhausted pool".into());
                }
                pool.free -= 1;
                Ok(())
            }
            ObsEvent::MpfRel { id } => {
                let pool = self
                    .mpfs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if let Some(waiter) = pool.q.pop() {
                    // Direct handoff: the block never returns to the
                    // free list.
                    self.wake(waiter, WakeCode::Ok)?;
                } else {
                    if pool.free >= pool.total {
                        return Err("release would exceed the pool's block count".into());
                    }
                    pool.free += 1;
                }
                Ok(())
            }

            ObsEvent::MplCreate {
                id,
                size,
                pri_order,
            } => {
                let mut free = BTreeMap::new();
                free.insert(0, size);
                self.mpls.insert(
                    id.raw(),
                    MplM {
                        free,
                        allocs: BTreeMap::new(),
                        q: Queue::new(pri_order),
                    },
                )
            }
            ObsEvent::MplTake { id, tid, size, off } => {
                self.require_running(tid.raw())?;
                let pool = self
                    .mpls
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                if !pool.q.is_empty() {
                    return Err("immediate allocation barged past waiting tasks".into());
                }
                match pool.try_alloc(size) {
                    Some(spec_off) if spec_off == off => Ok(()),
                    Some(spec_off) => Err(format!(
                        "allocated at offset {off}, first-fit mandates offset {spec_off}"
                    )),
                    None => Err(format!(
                        "immediate allocation of {size} bytes the spec says cannot fit"
                    )),
                }
            }
            ObsEvent::MplRel { id, off } => {
                let id = id.raw();
                let pool = self
                    .mpls
                    .get_mut(id)
                    .ok_or_else(|| format!("unknown mpl{id}"))?;
                pool.release(off)?;
                self.mpl_serve(id)
            }

            ObsEvent::CycCreate {
                id,
                period_ticks,
                first_tick,
            } => self.cycs.insert(
                id.raw(),
                CycM {
                    period: period_ticks,
                    armed: first_tick,
                },
            ),
            ObsEvent::CycStart { id, at_tick } => {
                let cyc = self
                    .cycs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                cyc.armed = Some(at_tick);
                Ok(())
            }
            ObsEvent::CycStop { id } => {
                let cyc = self
                    .cycs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                cyc.armed = None;
                Ok(())
            }
            ObsEvent::CycFire { id, tick } => {
                let cyc = self
                    .cycs
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                match cyc.armed {
                    Some(at) if at == tick => {
                        // The next activation is one period on.
                        cyc.armed = Some(tick + cyc.period);
                        Ok(())
                    }
                    Some(at) => Err(format!(
                        "cyclic fired at tick {tick}, spec armed it for tick {at}"
                    )),
                    None => Err("cyclic fired while the spec says it is stopped".into()),
                }
            }
            ObsEvent::AlmArm { id, at_tick } => {
                self.alms.get_or_default(id.raw())?.armed = Some(at_tick);
                Ok(())
            }
            ObsEvent::AlmStop { id } => {
                self.alms.get_or_default(id.raw())?.armed = None;
                Ok(())
            }
            ObsEvent::AlmFire { id, tick } => {
                let alm = self
                    .alms
                    .get_mut(id.raw())
                    .ok_or_else(|| format!("unknown {id}"))?;
                match alm.armed.take() {
                    Some(at) if at == tick => Ok(()),
                    Some(at) => Err(format!(
                        "alarm fired at tick {tick}, spec armed it for tick {at}"
                    )),
                    None => Err("alarm fired while the spec says it is disarmed".into()),
                }
            }
        }
    }

    /// Releases a mutex whose owner gives it up (unlock, exit or
    /// termination): ownership transfers to the head waiter (who
    /// wakes), or clears.
    fn release_mutex(&mut self, id: u32) -> Er {
        let mtx = self
            .mtxs
            .get_mut(id)
            .ok_or_else(|| format!("unknown mtx{id}"))?;
        match mtx.q.pop() {
            Some(next) => {
                mtx.owner = Some(next);
                self.task_mut(next)?.held.push(id);
                self.wake(next, WakeCode::Ok)?;
            }
            None => mtx.owner = None,
        }
        Ok(())
    }

    /// Verifies that, per the spec, the operation behind `obj` cannot
    /// complete immediately for `tid` (the kernel decided to block).
    fn check_would_block(&self, tid: Tid, obj: &WaitObj) -> Er {
        let blocks = match *obj {
            WaitObj::Sleep | WaitObj::Delay => true,
            WaitObj::Sem(id, cnt) => self
                .sems
                .get(id.raw())
                .is_none_or(|s| !(s.q.is_empty() && s.count >= cnt)),
            WaitObj::Flag(id, ptn, mode) => self
                .flags
                .get(id.raw())
                .is_none_or(|f| !flag_satisfied(f.pattern, ptn, mode)),
            WaitObj::Mbx(id) => self.mbxs.get(id.raw()).is_none_or(|m| m.msgs == 0),
            WaitObj::MbfSend(id, len) => self.mbfs.get(id.raw()).is_none_or(|m| {
                let direct = m.msgs.is_empty() && m.send_q.is_empty() && !m.recv_q.is_empty();
                let fits = m.send_q.is_empty() && m.used + len <= m.bufsz;
                !(direct || fits)
            }),
            WaitObj::MbfRecv(id) => self
                .mbfs
                .get(id.raw())
                .is_none_or(|m| m.msgs.is_empty() && m.send_q.is_empty()),
            WaitObj::Mtx(id) => self
                .mtxs
                .get(id.raw())
                .is_none_or(|m| m.owner.is_some() && m.owner != Some(tid)),
            WaitObj::Mpf(id) => self
                .mpfs
                .get(id.raw())
                .is_none_or(|p| !(p.q.is_empty() && p.free > 0)),
            WaitObj::Mpl(id, sz) => self
                .mpls
                .get(id.raw())
                .is_none_or(|p| !(p.q.is_empty() && p.can_alloc(sz))),
        };
        if blocks {
            Ok(())
        } else {
            Err(format!(
                "kernel blocked on {} but the spec says the request completes immediately",
                obj.describe()
            ))
        }
    }
}
/// One resolvable nondeterministic choice at a quiescent spec state.
///
/// Scheduler decisions (`Dispatch`/`Preempt`) are *forced*: the
/// priority-preemptive scheduler is deterministic, so when one is
/// enabled it is the only choice. The genuine branch points are which
/// armed `Timeout` fires first when several share the earliest tick,
/// and which environment `Stimulus` (an IRQ signal, a cyclic
/// activation, a program operation) happens next — the explore driver
/// owns those.
#[derive(Debug, Clone, PartialEq)]
pub enum Choice {
    /// Dispatch the ready-queue head.
    Dispatch {
        /// Raw task id of the mandated ready-queue head.
        tid: u32,
        /// The spec-computed current priority it must run at.
        pri: u8,
    },
    /// Preempt the running task (a more urgent task became ready).
    Preempt {
        /// Raw task id of the currently running task.
        tid: u32,
    },
    /// Fire the armed timeout of one waiting task.
    Timeout {
        /// Raw task id whose wait deadline expires.
        tid: u32,
        /// Absolute tick the deadline is armed for.
        tick: u64,
    },
    /// Environment/program stimulus: an externally chosen event
    /// sequence (IRQ signal, cyclic fire, a task's next operation)
    /// applied verbatim, with mandated wakeups drained after each.
    Stimulus(Vec<ObsEvent>),
}

/// A deliberately broken spec rule, for the mutation-sensitivity
/// proofs (`crates/farm/tests/explore.rs`): exploration must catch
/// each of these while thousands of random-seed replays do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMutation {
    /// After a timed-out waiter detaches from its queue, skip the
    /// mandated re-serve pass — waiters behind it that became
    /// satisfiable stay blocked.
    SkipTimeoutReserve,
    /// Priority inheritance uses only the waiters' *base* priorities:
    /// no transitive propagation through chained inheritance mutexes.
    DirectInheritanceOnly,
}

impl TState {
    fn tag(self) -> u64 {
        match self {
            TState::Dormant => 1,
            TState::Ready => 2,
            TState::Running => 3,
            TState::Waiting => 4,
            TState::Suspend => 5,
            TState::WaitSuspend => 6,
        }
    }
}

fn h_opt(h: &mut Fnv, v: Option<u64>) {
    match v {
        None => h.u64(0),
        Some(x) => {
            h.u64(1);
            h.u64(x);
        }
    }
}

fn h_queue(h: &mut Fnv, q: &Queue) {
    h.u64(u64::from(q.pri_order));
    h.u64(q.entries.len() as u64);
    for &(t, p) in &q.entries {
        h.u64(u64::from(t));
        h.u64(u64::from(p));
    }
}

fn h_mode(h: &mut Fnv, m: FlagWaitMode) {
    h.u64(u64::from(m.and) | u64::from(m.clear_all) << 1 | u64::from(m.clear_bits) << 2);
}

fn h_wait(h: &mut Fnv, obj: &WaitObj) {
    match *obj {
        WaitObj::Sleep => h.u64(1),
        WaitObj::Delay => h.u64(2),
        WaitObj::Sem(id, n) => {
            h.u64(3);
            h.u64(u64::from(id.raw()));
            h.u64(u64::from(n));
        }
        WaitObj::Flag(id, ptn, mode) => {
            h.u64(4);
            h.u64(u64::from(id.raw()));
            h.u64(u64::from(ptn));
            h_mode(h, mode);
        }
        WaitObj::Mbx(id) => {
            h.u64(5);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::MbfSend(id, len) => {
            h.u64(6);
            h.u64(u64::from(id.raw()));
            h.u64(len as u64);
        }
        WaitObj::MbfRecv(id) => {
            h.u64(7);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mtx(id) => {
            h.u64(8);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mpf(id) => {
            h.u64(9);
            h.u64(u64::from(id.raw()));
        }
        WaitObj::Mpl(id, sz) => {
            h.u64(10);
            h.u64(u64::from(id.raw()));
            h.u64(sz as u64);
        }
    }
}

fn h_code(h: &mut Fnv, c: WakeCode) {
    h.u64(match c {
        WakeCode::Ok => 1,
        WakeCode::Timeout => 2,
        WakeCode::Released => 3,
        WakeCode::Deleted => 4,
    });
}

impl SpecState {
    /// A fresh spec state: no objects, no tasks, CPU idle.
    pub fn new() -> SpecState {
        SpecState::default()
    }

    /// A fresh spec state carrying a [`SpecMutation`] — the testing
    /// hook behind the mutation-sensitivity proofs.
    pub fn with_mutation(mutation: SpecMutation) -> SpecState {
        SpecState {
            mutation: Some(mutation),
            ..SpecState::default()
        }
    }

    /// The front of the mandated-wakeup queue: the wakeup that must be
    /// the very next observed event, if any. Always `None` for states
    /// produced by [`SpecState::step`] (it drains the queue).
    pub fn pending_wakeup(&self) -> Option<(u32, WaitObj, WakeCode)> {
        self.expected.front().copied()
    }

    /// The running task's raw id, if any.
    pub fn running(&self) -> Option<u32> {
        self.running
    }

    /// The ready-queue head as `(raw tid, current priority)`.
    pub fn ready_front(&self) -> Option<(u32, u8)> {
        self.ready.first().copied()
    }

    /// The spec-computed current priority of a task (base relaxed
    /// through ceilings and transitive inheritance).
    pub fn current_priority(&self, tid: u32) -> Option<u8> {
        self.tasks.get(tid).map(|t| t.cur)
    }

    /// `true` while a `tk_dis_dsp`/`tk_loc_cpu` window is open.
    pub fn is_dispatch_disabled(&self) -> bool {
        self.dispatch_disabled
    }

    /// `true` when the task is blocked (WAITING or WAITING-SUSPENDED).
    pub fn is_waiting(&self, tid: u32) -> bool {
        self.tasks
            .get(tid)
            .is_some_and(|t| matches!(t.state, TState::Waiting | TState::WaitSuspend))
    }

    /// Raw ids of every blocked task, ascending.
    pub fn waiting_tasks(&self) -> Vec<u32> {
        self.tasks
            .iter()
            .filter(|(_, t)| matches!(t.state, TState::Waiting | TState::WaitSuspend))
            .map(|(tid, _)| tid)
            .collect()
    }

    /// The armed absolute-tick deadline of a task's wait, if any.
    pub fn deadline(&self, tid: u32) -> Option<u64> {
        self.tasks.get(tid).and_then(|t| t.deadline)
    }

    /// The next mandated activation tick of a cyclic handler.
    pub fn cyc_next_fire(&self, id: u32) -> Option<u64> {
        self.cycs.get(id).and_then(|c| c.armed)
    }

    /// `true` when the spec says a wait on `obj` by `tid` blocks (the
    /// request cannot complete immediately).
    pub fn would_block(&self, tid: u32, obj: &WaitObj) -> bool {
        self.check_would_block(tid, obj).is_ok()
    }

    /// The resolvable choices at this (quiescent) state. Exactly one
    /// of three shapes:
    ///
    /// * `[Dispatch]` — CPU idle, ready queue non-empty: the scheduler
    ///   must dispatch the head. Forced singleton.
    /// * `[Preempt]` — a strictly more urgent task is ready behind a
    ///   running one: preemption is mandated. Forced singleton.
    /// * the armed timeouts, sorted by `(tick, tid)` — every waiting
    ///   task with a deadline, at the tick it would fire. The caller
    ///   owns time: only timeouts at the chosen current tick are
    ///   firable now, and ties at that tick are the real branch.
    ///
    /// Environment stimuli ([`Choice::Stimulus`]) are by nature not
    /// derivable from spec state; the explore driver merges its own
    /// stimulus candidates with this set. A state with a pending
    /// mandated wakeup (never produced by [`SpecState::step`]) has no
    /// choices.
    pub fn enabled(&self) -> Vec<Choice> {
        if !self.expected.is_empty() {
            return Vec::new();
        }
        if !self.dispatch_disabled {
            match self.running {
                None => {
                    if let Some(&(tid, _)) = self.ready.first() {
                        return vec![Choice::Dispatch {
                            tid,
                            pri: self.tasks[tid].cur,
                        }];
                    }
                }
                Some(r) => {
                    if let Some(&(_, hp)) = self.ready.first() {
                        if hp < self.tasks[r].cur {
                            return vec![Choice::Preempt { tid: r }];
                        }
                    }
                }
            }
        }
        let mut outs: Vec<(u64, u32)> = self
            .tasks
            .iter()
            .filter(|(_, t)| matches!(t.state, TState::Waiting | TState::WaitSuspend))
            .filter_map(|(tid, t)| t.deadline.map(|tick| (tick, tid)))
            .collect();
        outs.sort_unstable();
        outs.into_iter()
            .map(|(tick, tid)| Choice::Timeout { tid, tick })
            .collect()
    }

    /// Pure successor construction: realizes `choice` into observation
    /// events, applies them, and drains every mandated wakeup after
    /// each one (the contiguity the kernel itself guarantees). Returns
    /// the successor and the full realized event list — an exploration
    /// path is therefore a replayable observation stream by
    /// construction.
    pub fn step(&self, choice: &Choice) -> Result<(SpecState, Vec<ObsEvent>), String> {
        let realized: Vec<ObsEvent> = match choice {
            Choice::Dispatch { tid, pri } => vec![ObsEvent::Dispatch {
                tid: TaskId::from_raw(*tid),
                pri: *pri,
            }],
            Choice::Preempt { tid } => vec![ObsEvent::Preempt {
                tid: TaskId::from_raw(*tid),
            }],
            Choice::Timeout { tid, tick } => vec![ObsEvent::TimerFire {
                tid: TaskId::from_raw(*tid),
                tick: *tick,
            }],
            Choice::Stimulus(evs) => evs.clone(),
        };
        let mut next = self.clone();
        let mut events = Vec::with_capacity(realized.len());
        for ev in realized {
            next.apply(&ev)?;
            events.push(ev);
            while let Some((tid, obj, code)) = next.pending_wakeup() {
                let wake = ObsEvent::Wakeup {
                    tid: TaskId::from_raw(tid),
                    obj,
                    code,
                };
                next.apply(&wake)?;
                events.push(wake);
            }
        }
        Ok((next, events))
    }

    /// Canonical FNV-1a digest of the semantic state: tasks, queues,
    /// every object map and the pending-wakeup queue. Two states with
    /// equal digests are treated as revisits by the explorer, so the
    /// digest covers everything [`SpecState::apply`] reads or writes —
    /// and nothing else (the mutation switch is configuration, not
    /// state).
    pub fn canon_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.tasks.len() as u64);
        for (tid, t) in self.tasks.iter() {
            h.u64(u64::from(tid));
            h.u64(u64::from(t.base));
            h.u64(u64::from(t.cur));
            h.u64(t.state.tag());
            match &t.wait {
                None => h.u64(0),
                Some(obj) => {
                    h.u64(1);
                    h_wait(&mut h, obj);
                }
            }
            h_opt(&mut h, t.deadline);
            h.u64(t.held.len() as u64);
            for &m in &t.held {
                h.u64(u64::from(m));
            }
            h.u64(u64::from(t.suscnt));
            h.u64(u64::from(t.wupcnt));
        }
        h.u64(self.ready.len() as u64);
        for &(t, p) in &self.ready {
            h.u64(u64::from(t));
            h.u64(u64::from(p));
        }
        h_opt(&mut h, self.running.map(u64::from));
        h.u64(u64::from(self.dispatch_disabled));
        h.u64(self.sems.len() as u64);
        for (id, s) in self.sems.iter() {
            h.u64(u64::from(id));
            h.u64(u64::from(s.count));
            h.u64(u64::from(s.max));
            h_queue(&mut h, &s.q);
        }
        h.u64(self.flags.len() as u64);
        for (id, f) in self.flags.iter() {
            h.u64(u64::from(id));
            h.u64(u64::from(f.pattern));
            h_queue(&mut h, &f.q);
        }
        h.u64(self.mbxs.len() as u64);
        for (id, m) in self.mbxs.iter() {
            h.u64(u64::from(id));
            h.u64(m.msgs as u64);
            h_queue(&mut h, &m.q);
        }
        h.u64(self.mbfs.len() as u64);
        for (id, m) in self.mbfs.iter() {
            h.u64(u64::from(id));
            h.u64(m.bufsz as u64);
            h.u64(m.used as u64);
            h.u64(m.msgs.len() as u64);
            for &len in &m.msgs {
                h.u64(len as u64);
            }
            h_queue(&mut h, &m.send_q);
            h.u64(m.send_len.len() as u64);
            for (&t, &len) in &m.send_len {
                h.u64(u64::from(t));
                h.u64(len as u64);
            }
            h_queue(&mut h, &m.recv_q);
        }
        h.u64(self.mtxs.len() as u64);
        for (id, m) in self.mtxs.iter() {
            h.u64(u64::from(id));
            match m.policy {
                MtxPolicy::Fifo => h.u64(1),
                MtxPolicy::Pri => h.u64(2),
                MtxPolicy::Inherit => h.u64(3),
                MtxPolicy::Ceiling(c) => {
                    h.u64(4);
                    h.u64(u64::from(c));
                }
            }
            h_opt(&mut h, m.owner.map(u64::from));
            h_queue(&mut h, &m.q);
        }
        h.u64(self.mpfs.len() as u64);
        for (id, p) in self.mpfs.iter() {
            h.u64(u64::from(id));
            h.u64(p.total as u64);
            h.u64(p.free as u64);
            h_queue(&mut h, &p.q);
        }
        h.u64(self.mpls.len() as u64);
        for (id, p) in self.mpls.iter() {
            h.u64(u64::from(id));
            h.u64(p.free.len() as u64);
            for (&off, &len) in &p.free {
                h.u64(off as u64);
                h.u64(len as u64);
            }
            h.u64(p.allocs.len() as u64);
            for (&off, &len) in &p.allocs {
                h.u64(off as u64);
                h.u64(len as u64);
            }
            h_queue(&mut h, &p.q);
        }
        h.u64(self.cycs.len() as u64);
        for (id, c) in self.cycs.iter() {
            h.u64(u64::from(id));
            h.u64(c.period);
            h_opt(&mut h, c.armed);
        }
        h.u64(self.alms.len() as u64);
        for (id, a) in self.alms.iter() {
            h.u64(u64::from(id));
            h_opt(&mut h, a.armed);
        }
        h.u64(self.expected.len() as u64);
        for &(tid, obj, code) in &self.expected {
            h.u64(u64::from(tid));
            h_wait(&mut h, &obj);
            h_code(&mut h, code);
        }
        h.finish()
    }

    /// Independent well-formedness checks, computed with always-healthy
    /// logic regardless of any configured [`SpecMutation`] — so an
    /// exploration over a mutated spec flags the first state the
    /// mutation corrupts. Returns human-readable violation strings,
    /// empty for a well-formed state.
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        // 1. Stored current priorities must equal the healthy
        //    ceiling + transitive-inheritance fixpoint.
        let mut healthy = Vec::new();
        self.priority_fixpoint(true, &mut healthy);
        for (tid, t) in self.tasks.iter() {
            let fix = healthy[tid as usize];
            if t.cur != fix {
                out.push(format!(
                    "tsk{tid}: stored current priority {} but the ceiling/inheritance fixpoint is {fix}",
                    t.cur
                ));
            }
        }
        // 2. No satisfiable semaphore head waiter may stay blocked.
        for (id, s) in self.sems.iter() {
            if let Some(front) = s.q.front() {
                let req = match self.tasks.get(front).and_then(|t| t.wait) {
                    Some(WaitObj::Sem(_, req)) => req,
                    _ => 1,
                };
                if s.count >= req {
                    out.push(format!(
                        "sem{id}: head waiter tsk{front} requests {req} with count {} available but stays blocked",
                        s.count
                    ));
                }
            }
        }
        // 3. A fixed pool with free blocks must not keep waiters queued.
        for (id, p) in self.mpfs.iter() {
            if p.free > 0 {
                if let Some(front) = p.q.front() {
                    out.push(format!(
                        "mpf{id}: tsk{front} queued while {} blocks are free",
                        p.free
                    ));
                }
            }
        }
        // 4. Mutex ownership must be consistent with held lists.
        for (id, m) in self.mtxs.iter() {
            match m.owner {
                Some(o) => {
                    if !self.tasks.get(o).is_some_and(|t| t.held.contains(&id)) {
                        out.push(format!(
                            "mtx{id}: owner tsk{o} does not hold it in the spec's held list"
                        ));
                    }
                }
                None => {
                    if let Some(front) = m.q.front() {
                        out.push(format!(
                            "mtx{id}: tsk{front} waits on a mutex with no owner"
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TaskId {
        TaskId::from_raw(n)
    }

    fn replay(events: &[ObsEvent]) -> SpecState {
        let mut s = SpecState::new();
        for (i, ev) in events.iter().enumerate() {
            if let Err(e) = s.apply(ev) {
                panic!("event #{i} {ev:?}: {e}");
            }
        }
        s
    }

    #[test]
    fn table_accepts_ids_up_to_the_cap_only() {
        let mut tab: Table<u8> = Table::default();
        assert!(tab.insert(MAX_MODELED_ID, 1).is_ok());
        let err = tab.insert(MAX_MODELED_ID + 1, 2).unwrap_err();
        assert!(err.contains(&(MAX_MODELED_ID + 1).to_string()), "{err}");
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn tids_with_gaps_iterate_in_ascending_order() {
        let s = replay(&[
            ObsEvent::TaskCreate { tid: t(5), pri: 10 },
            ObsEvent::TaskCreate { tid: t(1), pri: 10 },
            ObsEvent::TaskStart { tid: t(5) },
            ObsEvent::TaskStart { tid: t(1) },
            ObsEvent::Dispatch { tid: t(5), pri: 10 },
            ObsEvent::Block {
                tid: t(5),
                obj: WaitObj::Sleep,
                deadline_tick: Some(7),
            },
            ObsEvent::Dispatch { tid: t(1), pri: 10 },
            ObsEvent::Block {
                tid: t(1),
                obj: WaitObj::Sleep,
                deadline_tick: Some(7),
            },
        ]);
        assert_eq!(s.waiting_tasks(), [1, 5]);
        assert_eq!(
            s.enabled(),
            [
                Choice::Timeout { tid: 1, tick: 7 },
                Choice::Timeout { tid: 5, tick: 7 }
            ]
        );
    }

    #[test]
    fn a_tid_reused_after_delete_is_a_fresh_task() {
        let m = rtk_core::MtxId::from_raw(1);
        let mut s = replay(&[
            ObsEvent::MtxCreate {
                id: m,
                policy: MtxPolicy::Ceiling(2),
            },
            ObsEvent::TaskCreate { tid: t(1), pri: 10 },
            ObsEvent::TaskStart { tid: t(1) },
            ObsEvent::Dispatch { tid: t(1), pri: 10 },
            ObsEvent::MtxLock { id: m, tid: t(1) },
            ObsEvent::WupTsk { tid: t(1) },
            ObsEvent::TaskExit { tid: t(1) },
            ObsEvent::TaskDelete { tid: t(1) },
        ]);
        let err = s.apply(&ObsEvent::TaskStart { tid: t(1) }).unwrap_err();
        assert!(err.contains("unknown tsk1"), "{err}");
        for ev in [
            ObsEvent::TaskCreate { tid: t(1), pri: 20 },
            ObsEvent::TaskStart { tid: t(1) },
            ObsEvent::Dispatch { tid: t(1), pri: 20 },
        ] {
            s.apply(&ev).unwrap();
        }
        assert_eq!(s.current_priority(1), Some(20));
        // No queued wakeup survived the first life.
        let err = s.apply(&ObsEvent::WupConsume { tid: t(1) }).unwrap_err();
        assert!(err.contains("queued wakeup"), "{err}");
    }

    #[test]
    fn digest_counts_live_entries_not_slots() {
        let direct = replay(&[ObsEvent::TaskCreate { tid: t(2), pri: 10 }]);
        let churned = replay(&[
            ObsEvent::TaskCreate { tid: t(2), pri: 10 },
            ObsEvent::TaskCreate { tid: t(7), pri: 3 },
            ObsEvent::TaskDelete { tid: t(7) },
        ]);
        assert_eq!(direct.canon_digest(), churned.canon_digest());
        let other = replay(&[ObsEvent::TaskCreate { tid: t(3), pri: 10 }]);
        assert_ne!(direct.canon_digest(), other.canon_digest());
    }

    #[test]
    fn rotation_moves_the_level_head_behind_its_last_peer() {
        let mut s = SpecState::new();
        s.ready = vec![(1, 5), (2, 10), (3, 10), (4, 10), (5, 20)];
        s.rotate_ready(10);
        assert_eq!(s.ready, [(1, 5), (3, 10), (4, 10), (2, 10), (5, 20)]);
        s.rotate_ready(5);
        s.rotate_ready(30);
        assert_eq!(s.ready, [(1, 5), (3, 10), (4, 10), (2, 10), (5, 20)]);
    }
}
