//! Virtual/real clock abstraction for deterministic simulation (DESIGN.md §15).
//!
//! Every piece of product code that needs time goes through this module
//! instead of calling [`Instant::now`] / [`SystemTime::now`] directly
//! (`scripts/check.sh` enforces this with a drift lint).  In the default
//! **real** mode the functions are thin wrappers around the std clock and
//! cost one relaxed atomic load on top.  In **virtual** mode — enabled by
//! the simulation harness (`crates/sim`) and by sim-clock unit tests —
//! time only moves when a driver calls [`advance`], which makes timeout /
//! deadline / backoff interleavings schedulable and replayable.
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
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
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
    /// Number of threads currently blocked in a virtual `sleep`.
    sleepers: usize,
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
    match vclock().state.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
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
    st.sleepers += 1;
    loop {
        if st.now_nanos >= deadline {
            break;
        }
        if AUTO_ADVANCE.load(Ordering::Relaxed) {
            st.now_nanos = deadline;
            vc.cond.notify_all();
            break;
        }
        // Bounded real wait so a late guard drop or auto-advance
        // toggle cannot strand the sleeper forever.
        let (g, _) = match vc.cond.wait_timeout(st, Duration::from_millis(5)) {
            Ok(r) => r,
            Err(p) => p.into_inner(),
        };
        st = g;
        if !is_virtual() {
            break;
        }
    }
    st.sleepers = st.sleepers.saturating_sub(1);
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
        return match cond.wait_timeout(guard, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(p) => {
                let (g, t) = p.into_inner();
                (g, t.timed_out())
            }
        };
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
    let (g, _) = match cond.wait_timeout(guard, Duration::from_millis(2)) {
        Ok(r) => r,
        Err(p) => p.into_inner(),
    };
    let timed_out = lock_state().now_nanos >= deadline_nanos;
    (g, timed_out)
}

// ---------------------------------------------------------------------------
// Driver API (used by crates/sim and sim-clock tests)
// ---------------------------------------------------------------------------

/// Ownership of the process-wide virtual clock: virtual time stays on for
/// as long as the guard lives.  Dropping it returns the process to real
/// time and wakes all virtual sleepers.
#[must_use = "virtual time is switched off again when the guard drops"]
pub struct VirtualClockGuard {
    _owner: MutexGuard<'static, ()>,
}

/// Enable the virtual clock.  Time freezes at the current virtual offset
/// until [`advance`] is called.  The clock is process-global, so there is
/// one owner at a time: a second caller (a sibling test on another thread)
/// blocks here until the first guard drops, instead of advancing or
/// disabling a clock someone else believes is frozen.
pub fn enable_virtual() -> VirtualClockGuard {
    static OWNER: Mutex<()> = Mutex::new(());
    let owner = crate::sync::lock_recover(&OWNER);
    vclock(); // capture the anchor before anyone observes virtual time
    VIRTUAL.store(true, Ordering::SeqCst);
    VirtualClockGuard { _owner: owner }
}

impl Drop for VirtualClockGuard {
    fn drop(&mut self) {
        VIRTUAL.store(false, Ordering::SeqCst);
        AUTO_ADVANCE.store(false, Ordering::SeqCst);
        vclock().cond.notify_all();
    }
}

/// Single-threaded simulation mode: virtual sleepers consume their own
/// delay immediately instead of blocking on the driver.
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

/// Advance virtual time to the earliest pending deadline.  Returns the
/// duration advanced, or `None` if the wheel is empty.
pub fn advance_to_next() -> Option<Duration> {
    let d = next_deadline()?;
    advance(d);
    Some(d)
}

/// Number of threads currently blocked in a virtual [`sleep`].
pub fn sleeper_count() -> usize {
    lock_state().sleepers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    // Virtual-clock tests share process-global state; keep them in one
    // test fn so cargo's parallel test runner cannot interleave them.
    #[test]
    fn virtual_clock_end_to_end() {
        // -- now()/advance ------------------------------------------------
        let virtual_clock = enable_virtual();
        let t0 = now();
        advance(Duration::from_millis(250));
        let t1 = now();
        assert_eq!(t1.duration_since(t0), Duration::from_millis(250));
        assert_eq!(elapsed(t0), Duration::from_millis(250));

        // -- unix_millis is anchored and advances with virtual time ------
        let m0 = unix_millis();
        advance(Duration::from_millis(7));
        assert_eq!(unix_millis(), m0 + 7);

        // -- sleep blocks until the driver advances past the deadline ----
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            sleep(Duration::from_millis(100));
            d2.store(1, Ordering::SeqCst);
        });
        // Wait for the sleeper to register.
        let start = Instant::now();
        while sleeper_count() == 0 && start.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(sleeper_count(), 1);
        assert!(next_deadline().is_some());
        advance(Duration::from_millis(40));
        assert_eq!(done.load(Ordering::SeqCst), 0, "woke before its deadline");
        advance(Duration::from_millis(60));
        h.join().expect("sleeper thread");
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(sleeper_count(), 0);

        // -- auto-advance: sleep consumes virtual time immediately --------
        set_auto_advance(true);
        let before = now();
        sleep(Duration::from_secs(3));
        assert_eq!(now().duration_since(before), Duration::from_secs(3));
        set_auto_advance(false);

        // -- advance_to_next ---------------------------------------------
        let d3 = Arc::new(AtomicUsize::new(0));
        let d4 = Arc::clone(&d3);
        let h2 = std::thread::spawn(move || {
            sleep(Duration::from_millis(30));
            d4.store(1, Ordering::SeqCst);
        });
        let start = Instant::now();
        while sleeper_count() == 0 && start.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        let adv = advance_to_next().expect("a deadline is pending");
        assert_eq!(adv, Duration::from_millis(30));
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

        drop(virtual_clock);
        assert!(!is_virtual());
    }

    #[test]
    fn second_enable_blocks_until_first_guard_drops() {
        let first = enable_virtual();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _second = enable_virtual();
            let _ = tx.send(is_virtual());
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "second owner got the clock while the first guard was alive"
        );
        drop(first);
        let virtual_in_second = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("second owner proceeds once the first guard drops");
        assert!(virtual_in_second);
        h.join().expect("second owner thread");
    }
}
