//! The one door to faked process state (DESIGN.md §10, §15): the
//! [`crate::clock`], the [`crate::rng`] world seed and the
//! [`crate::failpoint`] table are faked only through a [`World`].

use std::sync::{Mutex, MutexGuard};

use crate::sync::lock_recover;
use crate::{clock, failpoint, rng};

/// Exclusive ownership of the fakeable process state. A second `World`
/// blocks until this one drops. Dropping it, on unwind too, disarms every
/// failpoint, uninstalls the seed, and returns to real time with
/// auto-advance off and virtual sleepers woken.
#[must_use = "the faked state is restored when the World drops"]
pub struct World {
    _owner: MutexGuard<'static, ()>,
}

impl World {
    /// Real time, ambient randomness and an empty failpoint table. The
    /// previous holder's drop already restored the clock and the seed; the
    /// table is cleared here because [`failpoint::init`] arms
    /// `LUX_FAILPOINTS` without a `World`. A test that must start clean
    /// under `LUX_FAILPOINTS` calls `init` first.
    pub fn enter() -> World {
        static OWNER: Mutex<()> = Mutex::new(());
        let world = World {
            _owner: lock_recover(&OWNER),
        };
        failpoint::clear();
        world
    }

    /// [`World::enter`], then virtual time frozen at its current offset
    /// and `seed` installed as the world seed.
    pub fn simulated(seed: u64) -> World {
        let world = World::enter();
        rng::install(seed);
        clock::set_virtual(true);
        world
    }

    /// Arm failpoint `name` with a [`failpoint::parse_chain`] action (a
    /// bare `off` disarms).
    pub fn arm(&self, name: &str, action: &str) -> Result<(), String> {
        failpoint::arm(name, action)
    }

    /// Disarm failpoint `name`.
    pub fn disarm(&self, name: &str) {
        failpoint::disarm(name);
    }

    /// Disarm every failpoint.
    pub fn clear_faults(&self) {
        failpoint::clear();
    }
}

impl Drop for World {
    fn drop(&mut self) {
        failpoint::clear();
        rng::uninstall();
        clock::set_virtual(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // One test, so the blocked second holder below cannot enter (and clear
    // the table) between the panicking holder's exit and the residue read.
    #[test]
    fn a_panicking_holder_leaves_no_residue_and_worlds_never_overlap() {
        let holder = std::thread::spawn(|| {
            let world = World::simulated(9);
            world.arm("world.residue", "return").expect("arm");
            clock::set_auto_advance(true);
            panic!("the holder fails mid-test");
        });
        assert!(holder.join().is_err());
        // Read before entering, which would clear the table itself; no
        // other test arms this point.
        assert_eq!(failpoint::hit("world.residue"), None);
        let world = World::enter();
        assert!(!clock::is_virtual());
        assert_eq!(rng::installed(), None);
        drop(world);

        let first = World::simulated(1);
        first.arm("world.overlap", "return").expect("arm");
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _second = World::enter();
            let _ = tx.send((
                clock::is_virtual(),
                rng::installed(),
                failpoint::hit("world.overlap"),
            ));
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "second World entered while the first was alive"
        );
        assert!(clock::is_virtual(), "first World's clock intact");
        assert_eq!(rng::installed(), Some(1), "first World's seed intact");
        assert!(failpoint::hit("world.overlap").is_some());
        drop(first);
        let seen = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("second World proceeds once the first drops");
        assert_eq!(seen, (false, None, None), "the second World starts real");
        h.join().expect("second World thread");
    }
}
