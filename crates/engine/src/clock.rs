//! Virtual/real clock abstraction for deterministic simulation (DESIGN.md §15).
//!
//! Every piece of product code that needs time goes through this module
//! instead of calling [`Instant::now`] / [`SystemTime::now`] directly
//! (`scripts/check.sh` enforces this with a drift lint).  In the default
//! **real** mode the functions are thin wrappers around the std clock and
//! cost one relaxed atomic load on top.  In **virtual** mode — held by a
//! [`World::simulated`](crate::world::World::simulated) in the simulation
//! harness (`crates/sim`) and in sim-clock tests — time only moves when a
//! driver calls [`advance`], which makes timeout / deadline / backoff
//! interleavings schedulable and replayable.
//!
//! ## Design notes
//!
//! `std::time::Instant` is opaque and cannot be fabricated, but
//! `Instant + Duration` is well defined.  The virtual clock therefore
//! captures one real `Instant` anchor at initialisation and reports
//! `anchor + virtual_offset` from [`now`].  Callers keep using ordinary
//! `Instant` arithmetic (`elapsed`, `duration_since`, `+ Duration`) and
//! cannot tell the difference.
//!
//! Virtual [`sleep`] registers a deadline in an ordered timer wheel and
//! blocks until the driver advances past it.  With
//! [`set_auto_advance`]`(true)` (the sim explorer's single-threaded
//! mode), a sleeper instead advances the clock to its own deadline and
//! returns immediately — virtual time is consumed, no wall time is.
//!
//! Virtual [`wait_timeout`] cooperates with *external* condvars (the
//! admission controller's priority queue): the deadline is registered in
//! the wheel so the driver can see it via [`next_deadline`], and the call
//! may return **spuriously early** (like any condvar wait).  Callers must
//! loop and re-check both their predicate and `clock::now()` against
//! their own deadline — which the admission loop already does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Fast-path flag: true while the virtual clock is enabled.
static VIRTUAL: AtomicBool = AtomicBool::new(false);

/// When true, a virtual sleeper advances the clock to its own deadline
/// instead of blocking (single-threaded simulation mode).
static AUTO_ADVANCE: AtomicBool = AtomicBool::new(false);

/// Unix-epoch base (milliseconds) reported by [`unix_millis`] in virtual
/// mode, so wall-clock timestamps are reproducible too.
/// 2026-01-01T00:00:00Z.
const VIRTUAL_EPOCH_MILLIS: u64 = 1_767_225_600_000;

struct VirtualClock {
    /// Real instant captured at init; virtual now = anchor + offset.
    anchor: Instant,
    state: Mutex<WheelState>,
    cond: Condvar,
}

#[derive(Default)]
struct WheelState {
    /// Virtual nanoseconds since the anchor.
    now_nanos: u64,
    /// Ordered timer wheel: pending deadlines in virtual nanos.
    /// Entries are popped lazily once expired; a waiter that leaves
    /// early (notified) simply leaves a stale entry behind.
    wheel: BinaryHeap<Reverse<u64>>,
}

fn vclock() -> &'static VirtualClock {
    static VC: OnceLock<VirtualClock> = OnceLock::new();
    VC.get_or_init(|| VirtualClock {
        anchor: Instant::now(),
        state: Mutex::new(WheelState::default()),
        cond: Condvar::new(),
    })
}

fn lock_state() -> MutexGuard<'static, WheelState> {
    crate::sync::lock_recover(&vclock().state)
}

/// True while the virtual clock is enabled.
#[inline]
pub fn is_virtual() -> bool {
    VIRTUAL.load(Ordering::Relaxed)
}

/// Current time. Real `Instant::now()` in real mode; `anchor + offset`
/// in virtual mode.
#[inline]
pub fn now() -> Instant {
    if !is_virtual() {
        return Instant::now();
    }
    let vc = vclock();
    let st = lock_state();
    vc.anchor + Duration::from_nanos(st.now_nanos)
}

/// Duration elapsed since `earlier` (saturating to zero).
#[inline]
pub fn elapsed(earlier: Instant) -> Duration {
    now().saturating_duration_since(earlier)
}

/// Milliseconds since the Unix epoch.  Virtual mode reports a fixed
/// epoch base plus virtual offset so log timestamps replay identically.
pub fn unix_millis() -> u64 {
    if !is_virtual() {
        return SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
    }
    let st = lock_state();
    VIRTUAL_EPOCH_MILLIS + st.now_nanos / 1_000_000
}

/// Sleep for `dur`.  Real mode: `thread::sleep`.  Virtual mode: register
/// a deadline in the wheel and block until the driver advances past it
/// (or, under auto-advance, consume the virtual time immediately).
pub fn sleep(dur: Duration) {
    if !is_virtual() {
        std::thread::sleep(dur);
        return;
    }
    if dur.is_zero() {
        return;
    }
    let vc = vclock();
    let mut st = lock_state();
    let deadline = st.now_nanos.saturating_add(dur.as_nanos() as u64);
    st.wheel.push(Reverse(deadline));
    loop {
        if st.now_nanos >= deadline {
            break;
        }
        if AUTO_ADVANCE.load(Ordering::Relaxed) {
            st.now_nanos = deadline;
            vc.cond.notify_all();
            break;
        }
        // Bounded real wait so a late World drop or auto-advance
        // toggle cannot strand the sleeper forever.
        st = vc
            .cond
            .wait_timeout(st, Duration::from_millis(5))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        if !is_virtual() {
            break;
        }
    }
}

/// Condvar wait with a timeout measured in *virtual* time when the
/// virtual clock is enabled.
///
/// Returns `(guard, timed_out)`.  In virtual mode the call registers its
/// deadline in the timer wheel (visible to the driver through
/// [`next_deadline`]) and may return spuriously early with
/// `timed_out == false`; callers must loop re-checking their predicate
/// and their own deadline, exactly as for a plain
/// [`Condvar::wait_timeout`].
pub fn wait_timeout<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    if !is_virtual() {
        let (g, t) = cond
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        return (g, t.timed_out());
    }
    // Register the deadline so the sim driver can see that a waiter
    // exists and how far it needs to advance the clock.
    let deadline_nanos = {
        let mut st = lock_state();
        let d = st.now_nanos.saturating_add(dur.as_nanos() as u64);
        st.wheel.push(Reverse(d));
        d
    };
    // Short real wait keeps the waiter responsive to notify_all while
    // virtual time is frozen; the caller's loop supplies correctness.
    let (g, _) = cond
        .wait_timeout(guard, Duration::from_millis(2))
        .unwrap_or_else(PoisonError::into_inner);
    let timed_out = lock_state().now_nanos >= deadline_nanos;
    (g, timed_out)
}

/// Condvar wait until `at`, or until notified when there is no `at`: a
/// [`wait_timeout`] on whichever clock is current, and a plain wait — no
/// timer for a driver to advance — otherwise. May return early; callers
/// loop on their predicate.
pub fn wait_until<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    at: Option<Instant>,
) -> MutexGuard<'a, T> {
    match at {
        Some(at) => wait_timeout(cond, guard, at.saturating_duration_since(now())).0,
        None => cond.wait(guard).unwrap_or_else(PoisonError::into_inner),
    }
}

// ---------------------------------------------------------------------------
// Driver API (used by crates/sim and sim-clock tests). Virtual time is
// switched on only by `World::simulated`; the driver calls below have no
// effect in real mode.
// ---------------------------------------------------------------------------

/// Switch virtual time on (frozen at the current virtual offset until
/// [`advance`]) or off (real time again); either way auto-advance is off
/// and virtual sleepers are woken. Only [`crate::world::World`] calls this.
pub(crate) fn set_virtual(on: bool) {
    let vc = vclock(); // capture the anchor before anyone observes virtual time
    AUTO_ADVANCE.store(false, Ordering::SeqCst);
    VIRTUAL.store(on, Ordering::SeqCst);
    vc.cond.notify_all();
}

/// Single-threaded simulation mode: virtual sleepers consume their own
/// delay immediately instead of blocking on the driver. (Real-mode sleeps
/// never read the flag, and the next `World` resets it.)
pub fn set_auto_advance(on: bool) {
    AUTO_ADVANCE.store(on, Ordering::SeqCst);
    if on {
        vclock().cond.notify_all();
    }
}

/// Advance virtual time by `dur` and wake sleepers whose deadlines have
/// passed.  No-op in real mode.
pub fn advance(dur: Duration) {
    if !is_virtual() {
        return;
    }
    let vc = vclock();
    let mut st = lock_state();
    st.now_nanos = st.now_nanos.saturating_add(dur.as_nanos() as u64);
    // Lazily drop expired wheel entries.
    while let Some(Reverse(d)) = st.wheel.peek().copied() {
        if d <= st.now_nanos {
            st.wheel.pop();
        } else {
            break;
        }
    }
    drop(st);
    vc.cond.notify_all();
}

/// Time until the earliest pending deadline in the wheel, if any.
/// Expired entries are pruned first.
pub fn next_deadline() -> Option<Duration> {
    if !is_virtual() {
        return None;
    }
    let mut st = lock_state();
    while let Some(Reverse(d)) = st.wheel.peek().copied() {
        if d <= st.now_nanos {
            st.wheel.pop();
        } else {
            return Some(Duration::from_nanos(d - st.now_nanos));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn virtual_clock_end_to_end() {
        // -- now()/advance ------------------------------------------------
        let _world = World::simulated(0);
        let t0 = now();
        advance(Duration::from_millis(250));
        let t1 = now();
        assert_eq!(t1.duration_since(t0), Duration::from_millis(250));
        assert_eq!(elapsed(t0), Duration::from_millis(250));

        // -- unix_millis is anchored and advances with virtual time ------
        let m0 = unix_millis();
        advance(Duration::from_millis(7));
        assert_eq!(unix_millis(), m0 + 7);

        // A spawned sleeper has registered once its deadline is pending.
        let registered = || {
            let start = Instant::now();
            loop {
                if let Some(d) = next_deadline() {
                    return d;
                }
                assert!(start.elapsed() < Duration::from_secs(5), "no sleeper");
                std::thread::yield_now();
            }
        };

        // -- sleep blocks until the driver advances past the deadline ----
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            sleep(Duration::from_millis(100));
            d2.store(1, Ordering::SeqCst);
        });
        assert_eq!(registered(), Duration::from_millis(100));
        advance(Duration::from_millis(40));
        assert_eq!(done.load(Ordering::SeqCst), 0, "woke before its deadline");
        advance(Duration::from_millis(60));
        h.join().expect("sleeper thread");
        assert_eq!(done.load(Ordering::SeqCst), 1);

        // -- auto-advance: sleep consumes virtual time immediately --------
        set_auto_advance(true);
        let before = now();
        sleep(Duration::from_secs(3));
        assert_eq!(now().duration_since(before), Duration::from_secs(3));
        set_auto_advance(false);

        // -- advancing exactly to the next deadline wakes its sleeper ----
        let d3 = Arc::new(AtomicUsize::new(0));
        let d4 = Arc::clone(&d3);
        let h2 = std::thread::spawn(move || {
            sleep(Duration::from_millis(30));
            d4.store(1, Ordering::SeqCst);
        });
        let next = registered();
        assert_eq!(next, Duration::from_millis(30));
        advance(next);
        h2.join().expect("sleeper thread");
        assert_eq!(d3.load(Ordering::SeqCst), 1);

        // -- wait_timeout registers its deadline & honours virtual time --
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let g = pair.0.lock().expect("lock");
        let (g, timed_out) = wait_timeout(&pair.1, g, Duration::from_millis(50));
        assert!(!timed_out, "virtual time did not move, so no timeout yet");
        drop(g);
        assert!(next_deadline().expect("registered") <= Duration::from_millis(50));
        advance(Duration::from_millis(50));
        let g = pair.0.lock().expect("lock");
        let (_g, timed_out) = wait_timeout(&pair.1, g, Duration::from_millis(0));
        assert!(timed_out, "zero-duration wait at/past deadline times out");
    }
}
