//! The T-Kernel/OS simulation model: object tables and `tk_*` services.
//!
//! Each submodule implements one service family of the µ-ITRON / T-Kernel
//! specification surface described in the paper (§2): task management and
//! synchronisation, semaphores, event flags, mailboxes, message buffers,
//! mutexes, fixed/variable memory pools, time management (system time,
//! cyclic and alarm handlers), interrupt management and system
//! management.

pub mod flag;
pub mod int;
pub mod mbf;
pub mod mbx;
pub mod mpf;
pub mod mpl;
pub mod mtx;
pub mod sem;
pub mod sysmgmt;
pub mod task;
pub mod time;
pub(crate) mod waitq;

use crate::error::ErCode;
use crate::ids::TaskId;
use crate::state::{KernelState, WaitObj};

/// Removes `tid` from whatever wait queue it is blocked on (timeout,
/// forced release, termination) and cleans the object-side bookkeeping
/// of the pending request (a blocked mbf sender's stashed payload).
/// Mutex waits additionally trigger a priority-inheritance
/// recomputation on the owner. Returns the wait object the task was
/// detached from so the caller can re-serve its queue (see
/// [`reserve_after_detach`]) once the victim's own wakeup has been
/// delivered.
pub(crate) fn detach_waiter(st: &mut KernelState, tid: TaskId) -> Option<WaitObj> {
    let wait = st.tcb(tid).ok().and_then(|t| t.wait)?;
    match wait {
        WaitObj::Sleep | WaitObj::Delay => {}
        WaitObj::Sem(id, _) => {
            if let Some(Some(s)) = st.sems.get_mut(id.0 as usize - 1) {
                s.waitq.remove(tid);
            }
        }
        WaitObj::Flag(id, _, _) => {
            if let Some(Some(f)) = st.flags.get_mut(id.0 as usize - 1) {
                f.waitq.remove(tid);
            }
        }
        WaitObj::Mbx(id) => {
            if let Some(Some(m)) = st.mbxs.get_mut(id.0 as usize - 1) {
                m.waitq.remove(tid);
            }
        }
        WaitObj::MbfSend(id, _) => {
            if let Some(Some(m)) = st.mbfs.get_mut(id.0 as usize - 1) {
                m.send_q.remove(tid);
                // The stashed payload of the abandoned send must go
                // with it: leaving it would leak, and a later send by
                // the same task could deliver the stale bytes.
                m.send_data.remove(&tid);
            }
        }
        WaitObj::MbfRecv(id) => {
            if let Some(Some(m)) = st.mbfs.get_mut(id.0 as usize - 1) {
                m.recv_q.remove(tid);
            }
        }
        WaitObj::Mtx(id) => {
            let owner = if let Some(Some(m)) = st.mtxs.get_mut(id.0 as usize - 1) {
                m.waitq.remove(tid);
                m.owner
            } else {
                None
            };
            if let Some(owner) = owner {
                mtx::recompute_priority(st, owner, 0);
            }
        }
        WaitObj::Mpf(id) => {
            if let Some(Some(p)) = st.mpfs.get_mut(id.0 as usize - 1) {
                p.waitq.remove(tid);
            }
        }
        WaitObj::Mpl(id, _) => {
            if let Some(Some(p)) = st.mpls.get_mut(id.0 as usize - 1) {
                p.waitq.remove(tid);
            }
        }
    }
    Some(wait)
}

/// Re-serves the wait queue of `obj` after one of its waiters was
/// removed without being satisfied (timeout, `tk_rel_wai`,
/// `tk_ter_tsk`). Removing the head waiter can make the next waiters
/// satisfiable — a semaphore whose count could not cover the head's
/// request, a message buffer whose head sender's message did not fit,
/// a variable pool whose head allocation was too large — and µ-ITRON's
/// wait-release rules mandate serving them immediately, in queue
/// order. Call after the victim's own wakeup (if any) has been
/// delivered, so the observation stream keeps its
/// stimulus-then-consequences order.
pub(crate) fn reserve_after_detach(st: &mut KernelState, obj: WaitObj, now: sysc::SimTime) {
    match obj {
        WaitObj::Sem(id, _) => sem::serve_waiters(st, id, now),
        WaitObj::MbfSend(id, _) => mbf::drain_senders(st, id, now),
        WaitObj::Mpl(id, _) => mpl::serve_waiters(st, id, now),
        // Removing a waiter cannot unblock the remaining waiters of
        // the other classes: flag patterns and mailbox contents are
        // unchanged, mutexes transfer only on unlock, and a fixed pool
        // with waiters has no free blocks by invariant.
        _ => {}
    }
}

/// Looks up a slot in an object table (`id` is 1-based; id 0, like
/// any unused id, is `E_NOEXS`).
pub(crate) fn table_get<T>(table: &[Option<T>], raw: u32) -> Result<&T, ErCode> {
    (raw as usize)
        .checked_sub(1)
        .and_then(|i| table.get(i))
        .and_then(|s| s.as_ref())
        .ok_or(ErCode::NoExs)
}

/// Mutable variant of [`table_get`].
pub(crate) fn table_get_mut<T>(table: &mut [Option<T>], raw: u32) -> Result<&mut T, ErCode> {
    (raw as usize)
        .checked_sub(1)
        .and_then(|i| table.get_mut(i))
        .and_then(|s| s.as_mut())
        .ok_or(ErCode::NoExs)
}

/// Inserts into the first free slot of an object table; returns the
/// 1-based ID.
pub(crate) fn table_insert<T>(table: &mut Vec<Option<T>>, value: T) -> u32 {
    for (i, slot) in table.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(value);
            return i as u32 + 1;
        }
    }
    table.push(Some(value));
    table.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_reuses_free_slots() {
        let mut t: Vec<Option<u32>> = Vec::new();
        assert_eq!(table_insert(&mut t, 10), 1);
        assert_eq!(table_insert(&mut t, 20), 2);
        t[0] = None;
        assert_eq!(table_insert(&mut t, 30), 1);
        assert_eq!(*table_get(&t, 1).unwrap(), 30);
        assert_eq!(*table_get(&t, 2).unwrap(), 20);
    }

    #[test]
    fn table_get_missing_is_noexs() {
        let t: Vec<Option<u32>> = vec![None];
        assert_eq!(table_get(&t, 1).unwrap_err(), ErCode::NoExs);
        let mut t2 = t;
        assert_eq!(table_get_mut(&mut t2, 1).unwrap_err(), ErCode::NoExs);
    }
}
