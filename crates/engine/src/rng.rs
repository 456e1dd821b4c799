//! Seedable process-wide randomness (DESIGN.md §15).
//!
//! Product code that needs "a little randomness" — backoff jitter,
//! reconnect jitter, request tokens, sketch salts — must derive it from
//! this module instead of hashing `SystemTime::now()` ad hoc
//! (`scripts/check.sh` enforces this with a drift lint).  In normal
//! operation [`derive`] mixes ambient entropy (wall clock, pid, a
//! process-global counter) so behaviour is exactly as before.  While a
//! [`World::simulated`](crate::world::World::simulated) holds a world
//! seed, every `derive` call becomes a pure function of `(seed, label, call-index)`,
//! so a failing sim seed replays byte-for-byte.
//!
//! [`SeededRng`] is the shared splitmix64 stream type used by callers
//! that want a local generator (the admission [`Backoff`] and the
//! server client already use the same constants).
//!
//! [`Backoff`]: crate::admission::Backoff

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Fast-path flag: true while a world seed is installed.
static SEEDED: AtomicBool = AtomicBool::new(false);

/// Ambient fallback counter so repeated un-seeded derives differ.
static AMBIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

struct WorldSeed {
    seed: u64,
    /// Per-label call counters: replaying the same call order for a
    /// label reproduces the same stream.
    counters: HashMap<&'static str, u64>,
}

fn world() -> MutexGuard<'static, Option<WorldSeed>> {
    static WORLD: Mutex<Option<WorldSeed>> = Mutex::new(None);
    crate::sync::lock_recover(&WORLD)
}

/// splitmix64 step — the same mixer `admission::Backoff` uses.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string, for stable label hashing.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Install a world seed.  Until [`uninstall`] every [`derive`] call is a
/// pure function of `(seed, label, per-label call index)`. Only
/// [`crate::world::World`] calls this.
pub(crate) fn install(seed: u64) {
    let mut w = world();
    *w = Some(WorldSeed {
        seed,
        counters: HashMap::new(),
    });
    SEEDED.store(true, Ordering::SeqCst);
}

/// Remove the world seed and return to ambient-entropy derives.
pub(crate) fn uninstall() {
    let mut w = world();
    *w = None;
    SEEDED.store(false, Ordering::SeqCst);
}

/// The installed world seed, if any.
pub fn installed() -> Option<u64> {
    if !SEEDED.load(Ordering::Relaxed) {
        return None;
    }
    world().as_ref().map(|w| w.seed)
}

/// Derive a 64-bit value for `label`.
///
/// Seeded: `splitmix64(seed ^ fnv1a(label) ^ golden * call_index)` —
/// deterministic across replays that repeat the same per-label call
/// order.  Unseeded: ambient entropy (wall-clock nanos, pid, counter)
/// mixed through splitmix64.
pub fn derive(label: &'static str) -> u64 {
    if SEEDED.load(Ordering::Relaxed) {
        let mut w = world();
        if let Some(ws) = w.as_mut() {
            let n = ws.counters.entry(label).or_insert(0);
            let idx = *n;
            *n += 1;
            let mut state = ws
                .seed
                .wrapping_add(fnv1a(label))
                .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            return splitmix64(&mut state);
        }
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let count = AMBIENT_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut state = nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ fnv1a(label)
        ^ count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// A small local splitmix64 stream, cheap to construct per call site.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// Stream seeded directly from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        SeededRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Resolve the seed a randomized test should use: `LUX_TEST_SEED` when
/// set (decimal or `0x`-hex), else ambient entropy.  Tests print the
/// returned seed so a failure is replayable with
/// `LUX_TEST_SEED=<seed> cargo test ...`.
pub fn test_seed() -> u64 {
    crate::knobs::knobs()
        .test_seed
        .unwrap_or_else(|| derive("test.seed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn seeded_derive_is_deterministic_and_label_separated() {
        let draw = || {
            let _world = World::simulated(42);
            [derive("test.a"), derive("test.a"), derive("test.b")]
        };
        let [a0, a1, b0] = draw();
        assert_eq!(draw(), [a0, a1, b0], "same seed+label+index replays");
        assert_ne!(a0, a1, "successive derives differ");
        assert_ne!(a0, b0, "labels are separated");
    }

    #[test]
    fn unseeded_derives_differ() {
        let _world = World::enter();
        assert_ne!(derive("test.ambient"), derive("test.ambient"));
    }

    #[test]
    fn seeded_rng_streams_are_stable() {
        let mut r = SeededRng::from_seed(7);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = SeededRng::from_seed(7);
        let second: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, second);
        assert!(SeededRng::from_seed(9).gen_range(10) < 10);
    }
}
