//! In-memory transport for deterministic simulation (DESIGN.md §15).
//!
//! Implements the wire protocol's byte-stream contract over in-process
//! duplex pipes so a server and N clients can run in one schedulable
//! world with no kernel sockets involved.  Addresses use the scheme
//! `mem:<name>`: `Listener::bind("mem:world-1")` registers the name in a
//! process-global rendezvous table and `Conn::connect("mem:world-1")`
//! produces the other end of a fresh pipe pair.
//!
//! A seeded [`FaultPlan`] can be installed per listener name to inject
//! transport faults on every `write`: bounded latency (consumed through
//! [`lux_engine::clock`], so virtual time covers it), partial writes
//! (short `Ok(n)` returns that exercise `write_all` resumption), silent
//! drops (bytes acknowledged but never delivered — the peer times out),
//! and connection resets.  The plan's RNG is a [`SeededRng`], so a sim
//! world seed replays the exact same fault sequence.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use lux_engine::clock;
use lux_engine::rng::SeededRng;

/// One direction of a duplex pipe.
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    /// Writer hung up: reads drain the buffer then return EOF.
    closed: bool,
    /// Peer reset: reads and writes fail immediately.
    reset: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState::default()),
            cond: Condvar::new(),
        })
    }
}

fn lock_pipe(p: &Pipe) -> std::sync::MutexGuard<'_, PipeState> {
    match p.state.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

/// Seeded transport-fault plan, applied on every write of a faulted
/// stream.  Probabilities are per mille (0..=1000) so plans are exact
/// integers under replay.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-stream fault RNG.
    pub seed: u64,
    /// ‰ chance a write is silently dropped (acknowledged, not delivered).
    pub drop_per_mille: u16,
    /// ‰ chance a write is truncated to roughly half (short `Ok(n)`).
    pub partial_per_mille: u16,
    /// ‰ chance a write resets the connection.
    pub reset_per_mille: u16,
    /// Upper bound for per-write injected latency; zero disables.
    pub max_latency: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing (seed still fixed for determinism).
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            partial_per_mille: 0,
            reset_per_mille: 0,
            max_latency: Duration::ZERO,
        }
    }
}

/// Per-stream fault state: the plan plus its private RNG stream.
struct FaultState {
    plan: FaultPlan,
    rng: SeededRng,
}

/// One end of an in-memory duplex connection.
pub struct MemStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    /// Read timeout in milliseconds (atomic so `Conn::set_timeouts` can
    /// keep its `&self` signature).
    read_timeout_ms: AtomicU64,
    faults: Option<FaultState>,
}

impl std::fmt::Debug for MemStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemStream")
            .field(
                "read_timeout_ms",
                &self.read_timeout_ms.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl MemStream {
    fn pair() -> (MemStream, MemStream) {
        let a = Pipe::new();
        let b = Pipe::new();
        (
            MemStream {
                rx: Arc::clone(&a),
                tx: Arc::clone(&b),
                read_timeout_ms: AtomicU64::new(10_000),
                faults: None,
            },
            MemStream {
                rx: b,
                tx: a,
                read_timeout_ms: AtomicU64::new(10_000),
                faults: None,
            },
        )
    }

    pub fn set_read_timeout(&self, d: Duration) {
        self.read_timeout_ms
            .store(d.as_millis().max(1) as u64, Ordering::Relaxed);
    }

    /// Arm the seeded fault plan on this end of the stream.
    fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState {
            rng: SeededRng::from_seed(plan.seed),
            plan,
        });
    }

    /// Close both directions (visible to the peer as EOF).
    pub fn shutdown(&self) {
        for p in [&self.rx, &self.tx] {
            let mut st = lock_pipe(p);
            st.closed = true;
            p.cond.notify_all();
        }
    }

    /// Hard reset both directions (peer sees `ConnectionReset`).
    pub fn reset(&self) {
        for p in [&self.rx, &self.tx] {
            let mut st = lock_pipe(p);
            st.reset = true;
            p.cond.notify_all();
        }
    }
}

impl Drop for MemStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline =
            clock::now() + Duration::from_millis(self.read_timeout_ms.load(Ordering::Relaxed));
        let mut st = lock_pipe(&self.rx);
        loop {
            if st.reset {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "simulated reset",
                ));
            }
            if !st.buf.is_empty() {
                // `VecDeque<u8>: Read` copies out (at most) its front
                // slice in bulk; a wrapped remainder comes on the next call.
                return st.buf.read(buf);
            }
            if st.closed {
                return Ok(0); // EOF
            }
            if clock::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "mem read timed out",
                ));
            }
            // Short real naps keep the reader responsive under a frozen
            // virtual clock; the deadline above is virtual-time correct.
            let (g, _) = match self.rx.cond.wait_timeout(st, Duration::from_millis(5)) {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            st = g;
        }
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Fault decisions first, outside the pipe lock (latency sleeps
        // must not block the peer's reads).
        let mut deliver: usize = buf.len();
        let mut silent_drop = false;
        if let Some(f) = self.faults.as_mut() {
            let roll = f.rng.gen_range(1000) as u16;
            if !f.plan.max_latency.is_zero() {
                let nanos = f.rng.gen_range(f.plan.max_latency.as_nanos() as u64);
                clock::sleep(Duration::from_nanos(nanos));
            }
            if roll < f.plan.reset_per_mille {
                self.reset();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "simulated reset on write",
                ));
            } else if roll < f.plan.reset_per_mille + f.plan.drop_per_mille {
                silent_drop = true;
            } else if roll
                < f.plan.reset_per_mille + f.plan.drop_per_mille + f.plan.partial_per_mille
            {
                deliver = (buf.len() / 2).max(1);
            }
        }
        let mut st = lock_pipe(&self.tx);
        if st.reset {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "simulated reset",
            ));
        }
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer closed",
            ));
        }
        if silent_drop {
            // Acknowledged but never delivered: the peer will time out
            // waiting for this frame, exercising retry/reconnect paths.
            return Ok(buf.len());
        }
        st.buf.extend(&buf[..deliver]);
        self.tx.cond.notify_all();
        Ok(deliver)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A registered `mem:<name>` listener: a queue of dialed-in peers.
struct MemListenerState {
    pending: VecDeque<MemStream>,
    /// Fault plan cloned onto the *server side* of each accepted stream.
    server_faults: Option<FaultPlan>,
    /// Fault plan handed to each new *client side* stream, with the seed
    /// advanced per connection so streams decorrelate deterministically.
    client_faults: Option<FaultPlan>,
    connections: u64,
}

struct MemRegistry {
    listeners: Mutex<HashMap<String, Arc<Mutex<MemListenerState>>>>,
}

fn registry() -> &'static MemRegistry {
    static REG: OnceLock<MemRegistry> = OnceLock::new();
    REG.get_or_init(|| MemRegistry {
        listeners: Mutex::new(HashMap::new()),
    })
}

fn lock_listeners() -> std::sync::MutexGuard<'static, HashMap<String, Arc<Mutex<MemListenerState>>>>
{
    match registry().listeners.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

/// The accept side of a `mem:<name>` address.  Dropping it unregisters
/// the name; queued-but-unaccepted peers see EOF.
pub struct MemListener {
    name: String,
    state: Arc<Mutex<MemListenerState>>,
}

impl MemListener {
    /// Register `name`. Fails with `AddrInUse` if already registered.
    pub fn bind(name: &str) -> std::io::Result<MemListener> {
        let mut map = lock_listeners();
        if map.contains_key(name) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("mem:{name} already bound"),
            ));
        }
        let state = Arc::new(Mutex::new(MemListenerState {
            pending: VecDeque::new(),
            server_faults: None,
            client_faults: None,
            connections: 0,
        }));
        map.insert(name.to_string(), Arc::clone(&state));
        Ok(MemListener {
            name: name.to_string(),
            state,
        })
    }

    /// Non-blocking accept, mirroring the nonblocking TCP/Unix accept
    /// loop in the server: `WouldBlock` when no peer is queued.
    pub fn accept(&self) -> std::io::Result<MemStream> {
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        match st.pending.pop_front() {
            Some(s) => Ok(s),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "no pending mem connection",
            )),
        }
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        lock_listeners().remove(&self.name);
    }
}

/// Dial a registered `mem:<name>` listener.
pub fn connect(name: &str) -> std::io::Result<MemStream> {
    let state = lock_listeners().get(name).cloned().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("mem:{name} is not listening"),
        )
    })?;
    let (mut client, mut server) = MemStream::pair();
    let mut st = match state.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    let conn_idx = st.connections;
    st.connections += 1;
    if let Some(plan) = &st.server_faults {
        let mut p = plan.clone();
        p.seed = p
            .seed
            .wrapping_add(conn_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        server.set_faults(p);
    }
    if let Some(plan) = &st.client_faults {
        let mut p = plan.clone();
        p.seed = p
            .seed
            .wrapping_add((conn_idx | 1 << 63).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        client.set_faults(p);
    }
    st.pending.push_back(server);
    Ok(client)
}

/// Install seeded fault plans for every future connection to
/// `mem:<name>`: `server` faults the server→client direction, `client`
/// the client→server direction. `None` clears.
pub fn set_fault_plans(name: &str, server: Option<FaultPlan>, client: Option<FaultPlan>) {
    if let Some(state) = lock_listeners().get(name).cloned() {
        let mut st = match state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        st.server_faults = server;
        st.client_faults = client;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_and_duplex_bytes() {
        let l = MemListener::bind("t-duplex").expect("bind");
        assert!(
            MemListener::bind("t-duplex").is_err(),
            "double bind refused"
        );
        let mut c = connect("t-duplex").expect("connect");
        let mut s = l.accept().expect("accept");
        c.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        s.write_all(b"pong").expect("write back");
        c.read_exact(&mut buf).expect("read back");
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn accept_is_nonblocking_and_connect_requires_listener() {
        let l = MemListener::bind("t-nb").expect("bind");
        let err = l.accept().expect_err("nothing queued");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(l);
        assert!(connect("t-nb").is_err(), "name unregistered on drop");
    }

    #[test]
    fn read_honours_timeout_and_eof() {
        let l = MemListener::bind("t-timeout").expect("bind");
        let mut c = connect("t-timeout").expect("connect");
        let s = l.accept().expect("accept");
        c.set_read_timeout(Duration::from_millis(30));
        let mut buf = [0u8; 1];
        let err = c.read(&mut buf).expect_err("no data");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(s); // peer hangs up
        assert_eq!(c.read(&mut buf).expect("eof"), 0);
    }

    #[test]
    fn seeded_faults_replay_identically() {
        fn run(seed: u64) -> Vec<usize> {
            let name = format!("t-faults-{seed}");
            let l = MemListener::bind(&name).expect("bind");
            set_fault_plans(
                &name,
                None,
                Some(FaultPlan {
                    seed,
                    drop_per_mille: 200,
                    partial_per_mille: 300,
                    reset_per_mille: 0,
                    max_latency: Duration::ZERO,
                }),
            );
            let mut c = connect(&name).expect("connect");
            let _s = l.accept().expect("accept");
            (0..32)
                .map(|_| c.write(&[0xAB; 64]).expect("write"))
                .collect()
        }
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert!(a.iter().any(|&n| n != 64), "faults actually fired: {a:?}");
        assert_ne!(a, c, "different seed diverges");
    }
}
