//! The event loop: poll-driven, nonblocking, frame-at-a-time.
//!
//! [`serve_loop`] is one reactor thread. It polls a shared nonblocking
//! [`Listener`] plus every connection it has accepted; multiple loops
//! run against the same listener for multi-core serving (the kernel
//! load-balances accepts), and each loop owns its connections outright
//! — connection state is never shared, so none of it is locked.
//!
//! Per connection the loop keeps a read buffer (bytes in, frames
//! extracted by a boundary state machine: 4-byte `u32 LE` length, then
//! that many payload bytes) and a write buffer (reply frames queued,
//! drained as the socket accepts them). A complete request payload is
//! handed to the [`FrameService`] *on the reactor thread* — the
//! service's answer time is the loop's latency floor, which is the
//! design trade: queries against an immutable snapshot are pure CPU,
//! and N loops give N concurrent computations without any
//! thread-per-connection overhead.
//!
//! A reply may end in a **pulled stream** ([`ServiceReply::stream`]):
//! the loop asks the producer for its next frame only once the
//! connection's write buffer has drained empty, so a multi-megabyte
//! answer occupies at most one frame of memory at a time, and the
//! connection's next request is not read until the stream ends.

use crate::endpoint::{Conn, Listener};
use crate::stats::ReactorStats;
use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Source of reactor-wide unique connection ids: every accepted
/// connection gets one, across every loop and listener in the process,
/// so a [`FrameService`] keeping per-connection state (e.g. a staged
/// snapshot install) can key it without collisions.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// What a [`FrameService`] tells the reactor after handling a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep the connection open.
    Continue,
    /// Flush queued replies, then close this connection.
    Close,
    /// Flush, close, and shut the whole reactor down (every loop).
    Shutdown,
}

/// An owned producer of reply payloads, pulled one frame at a time.
pub type FrameStream = Box<dyn Iterator<Item = Vec<u8>>>;

/// Reply frames plus connection disposition.
pub struct ServiceReply {
    /// Response payloads, queued in order; the reactor adds each
    /// frame's `u32 LE` length prefix.
    pub frames: Vec<Vec<u8>>,
    /// Further payloads after `frames`, pulled one at a time whenever
    /// the write buffer drains empty. The connection's next request
    /// waits until the stream ends; the producer is dropped when the
    /// connection closes or the reactor shuts down.
    pub stream: Option<FrameStream>,
    /// What happens to the connection afterwards.
    pub control: Control,
}

impl ServiceReply {
    /// One reply frame, keep the connection.
    #[must_use]
    pub fn reply(payload: Vec<u8>) -> Self {
        Self {
            frames: vec![payload],
            stream: None,
            control: Control::Continue,
        }
    }

    /// A pulled stream of reply frames, keep the connection.
    #[must_use]
    pub fn stream(frames: FrameStream) -> Self {
        Self {
            frames: Vec::new(),
            stream: Some(frames),
            control: Control::Continue,
        }
    }
}

/// The protocol brain the reactor drives. Implementations must be
/// callable from several reactor threads at once.
pub trait FrameService: Sync {
    /// Handle one complete request payload (the bytes after the length
    /// prefix), returning reply frames and the connection disposition.
    /// `conn` is a reactor-wide unique id for the sending connection,
    /// stable across its lifetime — the key for any per-connection
    /// protocol state the service keeps. Malformed payloads are the
    /// service's to answer (e.g. with a typed error frame) — the
    /// reactor only kills a connection on transport-level problems
    /// (unparseable length, i/o errors).
    fn handle_frame(&self, conn: u64, payload: &[u8]) -> ServiceReply;

    /// The payload substituted when a reply exceeds the write budget
    /// or a connection is rejected at the connection cap (the sketch
    /// protocol answers `ERR_BUSY`). Must be small.
    fn busy_payload(&self) -> Vec<u8>;

    /// The connection is gone (clean goodbye, i/o error, idle reap, or
    /// reactor shutdown): drop any per-connection state keyed by its
    /// id. Default: nothing kept, nothing to do.
    fn conn_closed(&self, _conn: u64) {}
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Kill a connection whose frame header announces a payload larger
    /// than this — framing can never resynchronize past it.
    pub max_frame_len: usize,
    /// Per-connection write-buffer budget. Above it the connection is
    /// not read (backpressure); a reply's eager frames larger than it
    /// together, or a single pulled stream frame larger than it, are
    /// replaced by the busy frame. The default admits any frame up to
    /// `max_frame_len`.
    pub write_budget: usize,
    /// Open-connection cap across all loops sharing the stats; beyond
    /// it new connections get the busy frame and are dropped.
    pub max_conns: usize,
    /// Poll timeout: how quickly an idle loop notices shutdown.
    pub tick: Duration,
    /// Reap a connection that has shown no socket activity (no bytes
    /// in, no writable progress on queued replies) for this long —
    /// wedged or abandoned clients stop holding fd slots against
    /// `max_conns`. `None` (the default) keeps connections forever,
    /// the historical behaviour.
    pub idle_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        let max_frame_len = 64 << 20;
        Self {
            max_frame_len,
            write_budget: max_frame_len + 4,
            max_conns: 1024,
            tick: Duration::from_millis(50),
            idle_timeout: None,
        }
    }
}

/// How many ticks a shutting-down loop keeps trying to flush pending
/// replies before dropping the connections mid-stream.
const DRAIN_TICKS: u32 = 20;

/// Stream bytes one flush may pull before yielding the loop to its
/// other connections, so a fast reader of a long stream cannot starve
/// them.
const STREAM_SLICE: usize = 1 << 20;

struct ConnState {
    conn: Conn,
    /// Reactor-wide unique id, handed to the service with every frame.
    id: u64,
    /// Bytes received, not yet framed.
    rbuf: Vec<u8>,
    /// Bytes queued to send; `wpos` already sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The unfinished tail of a streamed reply; while set, no further
    /// request is processed.
    stream: Option<FrameStream>,
    /// Flush `wbuf`, then close.
    closing: bool,
    /// Transport failure or protocol violation: drop immediately.
    dead: bool,
    /// Last time the socket showed life (readable or writable-with-
    /// progress), for idle reaping.
    last_activity: Instant,
}

impl ConnState {
    fn new(conn: Conn) -> Self {
        Self {
            conn,
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            stream: None,
            closing: false,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        self.wbuf.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        self.wbuf.extend_from_slice(payload);
    }

    /// Write as much of `wbuf` as the socket accepts right now, pulling
    /// the next stream frame each time it drains empty.
    fn flush(&mut self, service: &dyn FrameService, config: &NetConfig, stats: &ReactorStats) {
        let mut pulled = 0usize;
        loop {
            while self.wpos < self.wbuf.len() {
                match self.conn.write(&self.wbuf[self.wpos..]) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => self.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
            self.wbuf.clear();
            self.wpos = 0;
            if self.stream.is_none() {
                break;
            }
            if pulled >= STREAM_SLICE {
                // Yield the loop to its other connections; the pending
                // stream keeps POLLOUT interest, so the pull resumes on
                // the next turn.
                return;
            }
            let Some(frame) = self.stream.as_mut().and_then(Iterator::next) else {
                self.stream = None;
                break;
            };
            pulled += 4 + frame.len();
            stats.frames_out(1);
            if 4 + frame.len() > config.write_budget {
                // A frame that can never fit ends the stream with the
                // busy frame, keeping the peer's framing in step.
                self.stream = None;
                stats.busy_rejection();
                self.queue_frame(&service.busy_payload());
            } else {
                self.queue_frame(&frame);
            }
        }
        if self.closing {
            self.dead = true;
        }
    }

    /// Read until `WouldBlock`/EOF, appending to `rbuf`. EOF with a
    /// clean buffer is a normal goodbye; EOF mid-frame just drops the
    /// partial bytes — there is no one to answer.
    fn fill(&mut self, scratch: &mut [u8]) {
        loop {
            match self.conn.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Extract complete frames from `rbuf` and run them through the
    /// service, stopping early on backpressure or a connection-ending
    /// control verdict. Returns `true` if the service asked for a
    /// reactor-wide shutdown.
    fn process(
        &mut self,
        service: &dyn FrameService,
        config: &NetConfig,
        stats: &ReactorStats,
    ) -> bool {
        let mut pos = 0;
        let mut shutdown = false;
        while !self.closing && !self.dead && self.stream.is_none() {
            if self.pending() > config.write_budget {
                // Backpressure: leave the rest of the input buffered
                // until the peer drains our replies.
                break;
            }
            let Some(header) = self.rbuf.get(pos..pos + 4) else {
                break;
            };
            let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
            if len > config.max_frame_len {
                // An insane length prefix: framing is unrecoverable.
                self.dead = true;
                break;
            }
            let Some(payload) = self.rbuf.get(pos + 4..pos + 4 + len) else {
                break;
            };
            stats.frame_in();
            let reply = service.handle_frame(self.id, payload);
            pos += 4 + len;
            let reply_bytes: usize = reply.frames.iter().map(|f| 4 + f.len()).sum();
            if reply_bytes > config.write_budget {
                // The reply can never fit the budget: substitute the
                // typed busy frame instead of buffering unboundedly.
                // Note the request itself already ran — the protocol
                // marks ERR_BUSY retryable precisely because requests
                // that *mutate* are journaled/idempotent upstream.
                let busy = service.busy_payload();
                self.queue_frame(&busy);
                stats.busy_rejection();
                stats.frames_out(1);
            } else {
                for frame in &reply.frames {
                    self.queue_frame(frame);
                }
                stats.frames_out(reply.frames.len() as u64);
                self.stream = reply.stream;
            }
            match reply.control {
                Control::Continue => {}
                Control::Close => self.closing = true,
                Control::Shutdown => {
                    self.closing = true;
                    shutdown = true;
                }
            }
        }
        self.rbuf.drain(..pos);
        shutdown
    }
}

/// Accept every connection the listener has ready. Connections beyond
/// `max_conns` (measured across all loops via the shared stats gauge)
/// are sent the busy frame best-effort and dropped.
fn accept_ready(
    listener: &Listener,
    conns: &mut Vec<ConnState>,
    service: &dyn FrameService,
    config: &NetConfig,
    stats: &ReactorStats,
) {
    loop {
        match listener.accept() {
            Ok(conn) => {
                if stats.open_connections() >= config.max_conns {
                    stats.conn_rejected();
                    let _ = conn.set_nonblocking(true);
                    let mut state = ConnState::new(conn);
                    state.queue_frame(&service.busy_payload());
                    state.flush(service, config, stats);
                    // Dropped regardless of how much was written: an
                    // overloaded reactor spends no further effort here.
                    continue;
                }
                if conn.set_nonblocking(true).is_err() {
                    continue;
                }
                stats.conn_opened();
                conns.push(ConnState::new(conn));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Run one reactor loop until `shutdown` is observed (set by any loop
/// or externally). Call from several threads with the same listener,
/// service, config, shutdown flag, and stats to serve on several
/// cores. The listener is switched to nonblocking mode on entry.
///
/// # Errors
/// Setup failures (listener options) and poll(2) failures; per-
/// connection i/o errors just drop the connection.
pub fn serve_loop(
    listener: &Listener,
    service: &dyn FrameService,
    config: &NetConfig,
    shutdown: &AtomicBool,
    stats: &ReactorStats,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let tick_ms = i32::try_from(config.tick.as_millis().clamp(1, 60_000)).expect("clamped");
    let mut conns: Vec<ConnState> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut draining: u32 = 0;
    loop {
        let shutting_down = shutdown.load(Ordering::SeqCst);
        if shutting_down {
            // Stop accepting and abandon unfinished streams; flush
            // what's queued, then leave. A peer that won't drain its
            // socket gets DRAIN_TICKS of grace.
            for c in &mut conns {
                c.closing = true;
                c.stream = None;
                if c.pending() == 0 {
                    c.dead = true;
                }
            }
            conns.retain(|c| {
                if c.dead {
                    stats.conn_closed();
                    service.conn_closed(c.id);
                }
                !c.dead
            });
            draining += 1;
            if conns.is_empty() || draining > DRAIN_TICKS {
                for c in &conns {
                    stats.conn_closed();
                    service.conn_closed(c.id);
                }
                return Ok(());
            }
        }
        fds.clear();
        // Slot 0 is the listener (ignored while shutting down).
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if shutting_down { 0 } else { POLLIN },
            revents: 0,
        });
        for c in &conns {
            let mut events = 0i16;
            if !c.closing && c.stream.is_none() && c.pending() <= config.write_budget {
                events |= POLLIN;
            }
            if c.pending() > 0 || c.stream.is_some() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.conn.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        poll_fds(&mut fds, tick_ms)?;
        if fds[0].revents & POLLIN != 0 {
            accept_ready(listener, &mut conns, service, config, stats);
        }
        let mut ask_shutdown = false;
        // `fds[1..]` lines up with the `conns` the array was built
        // from; connections accepted above are polled next tick.
        for (c, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents & (POLLERR | POLLNVAL) != 0 {
                c.dead = true;
                continue;
            }
            if fd.revents & (POLLIN | POLLOUT | POLLHUP) != 0 {
                c.last_activity = Instant::now();
            }
            if fd.revents & POLLOUT != 0 {
                c.flush(service, config, stats);
            }
            let readable = fd.revents & (POLLIN | POLLHUP) != 0;
            if readable && !c.dead && !c.closing {
                c.fill(&mut scratch);
            }
            // Requests pipelined behind a stream sit in `rbuf` with no
            // new POLLIN to announce them once the stream ends.
            if (readable || !c.rbuf.is_empty()) && !c.dead && !c.closing && c.stream.is_none() {
                ask_shutdown |= c.process(service, config, stats);
                // Opportunistic first write: most replies fit the
                // socket buffer, saving a poll round trip.
                c.flush(service, config, stats);
            }
        }
        if ask_shutdown {
            shutdown.store(true, Ordering::SeqCst);
        }
        if let Some(limit) = config.idle_timeout {
            // Reap wedged/abandoned connections: no inbound bytes and
            // no writable progress for a whole idle window. A client
            // mid-conversation always trips POLLIN; a slow reader of a
            // big streamed reply always trips POLLOUT — only a truly
            // silent socket ages out.
            for c in &mut conns {
                if !c.dead && c.last_activity.elapsed() >= limit {
                    c.dead = true;
                }
            }
        }
        conns.retain(|c| {
            if c.dead {
                stats.conn_closed();
                service.conn_closed(c.id);
            }
            !c.dead
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{connect, Endpoint};
    use std::sync::atomic::AtomicBool;

    /// Echoes each payload back; `b"quit"` shuts the reactor down,
    /// `b"close"` closes the connection, `b"big"` answers with a 1 MiB
    /// frame (for budget tests), `b"stream"` with 64 pulled 100-byte
    /// frames, and `b"stream-big"` with a pulled stream whose middle
    /// frame is 2 KiB.
    struct Echo;

    impl FrameService for Echo {
        fn handle_frame(&self, _conn: u64, payload: &[u8]) -> ServiceReply {
            match payload {
                b"quit" => ServiceReply {
                    frames: vec![b"bye".to_vec()],
                    stream: None,
                    control: Control::Shutdown,
                },
                b"close" => ServiceReply {
                    frames: vec![b"closed".to_vec()],
                    stream: None,
                    control: Control::Close,
                },
                b"big" => ServiceReply::reply(vec![0xAB; 1 << 20]),
                b"stream" => ServiceReply::stream(Box::new((0..64u8).map(|i| vec![i; 100]))),
                b"stream-big" => ServiceReply::stream(Box::new(
                    [vec![1u8; 8], vec![2u8; 2048], vec![3u8; 8]].into_iter(),
                )),
                other => ServiceReply::reply(other.to_vec()),
            }
        }

        fn busy_payload(&self) -> Vec<u8> {
            b"BUSY".to_vec()
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn read_exact_frame(conn: &mut Conn) -> Vec<u8> {
        let mut header = [0u8; 4];
        conn.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).unwrap();
        payload
    }

    fn spawn_reactor(
        config: NetConfig,
    ) -> (
        Endpoint,
        std::sync::Arc<(AtomicBool, ReactorStats)>,
        std::thread::JoinHandle<()>,
    ) {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shared = std::sync::Arc::new((AtomicBool::new(false), ReactorStats::new()));
        let state = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            serve_loop(&listener, &Echo, &config, &state.0, &state.1).unwrap();
        });
        (local, shared, handle)
    }

    #[test]
    fn echoes_frames_split_across_arbitrary_writes() {
        let (endpoint, shared, handle) = spawn_reactor(NetConfig::default());
        let mut conn = connect(&endpoint).unwrap();
        // Dribble two frames one byte at a time: the frame-boundary
        // state machine must reassemble them exactly.
        let mut bytes = frame(b"hello");
        bytes.extend_from_slice(&frame(b"world"));
        for b in &bytes {
            conn.write_all(std::slice::from_ref(b)).unwrap();
            conn.flush().unwrap();
        }
        assert_eq!(read_exact_frame(&mut conn), b"hello");
        assert_eq!(read_exact_frame(&mut conn), b"world");
        // Batched frames in one write also work.
        let mut batch = Vec::new();
        for i in 0..10u8 {
            batch.extend_from_slice(&frame(&[i; 3]));
        }
        conn.write_all(&batch).unwrap();
        for i in 0..10u8 {
            assert_eq!(read_exact_frame(&mut conn), [i; 3]);
        }
        conn.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"bye");
        handle.join().unwrap();
        let counters = shared.1.snapshot();
        assert_eq!(counters.frames_in, 13);
        assert_eq!(counters.frames_out, 13);
        assert_eq!(counters.open_connections, 0);
        assert_eq!(counters.busy_rejections, 0);
    }

    #[test]
    fn oversized_reply_becomes_busy_frame() {
        let config = NetConfig {
            write_budget: 1024,
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        let mut conn = connect(&endpoint).unwrap();
        conn.write_all(&frame(b"big")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"BUSY");
        // The connection survives and keeps serving small replies.
        conn.write_all(&frame(b"still here")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"still here");
        conn.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().busy_rejections, 1);
    }

    #[test]
    fn pulled_stream_outgrows_the_budget_and_pipelined_requests_wait() {
        let config = NetConfig {
            write_budget: 1024,
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        let mut conn = connect(&endpoint).unwrap();
        // 64 × 104 bytes is over six budgets; a request pipelined in the
        // same write must be answered only after the whole stream.
        let mut batch = frame(b"stream");
        batch.extend_from_slice(&frame(b"after"));
        conn.write_all(&batch).unwrap();
        for i in 0..64u8 {
            assert_eq!(read_exact_frame(&mut conn), [i; 100], "stream frame {i}");
        }
        assert_eq!(read_exact_frame(&mut conn), b"after");
        // A pulled frame that can never fit ends its stream with the
        // busy frame; the connection stays in step and keeps serving.
        conn.write_all(&frame(b"stream-big")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), [1u8; 8]);
        assert_eq!(read_exact_frame(&mut conn), b"BUSY");
        conn.write_all(&frame(b"still here")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"still here");
        conn.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"bye");
        handle.join().unwrap();
        let counters = shared.1.snapshot();
        assert_eq!(counters.frames_in, 5);
        // 64 + after + 2 of stream-big (the busy frame replaces the
        // second) + still here + bye.
        assert_eq!(counters.frames_out, 64 + 1 + 2 + 1 + 1);
        assert_eq!(counters.busy_rejections, 1);
    }

    #[test]
    fn stream_is_pulled_only_as_the_socket_drains() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        /// 256 frames of 64 KiB, counting every frame pulled.
        struct Counting(Arc<AtomicUsize>);

        impl FrameService for Counting {
            fn handle_frame(&self, _conn: u64, payload: &[u8]) -> ServiceReply {
                if payload == b"quit" {
                    return ServiceReply {
                        frames: vec![b"bye".to_vec()],
                        stream: None,
                        control: Control::Shutdown,
                    };
                }
                let pulled = Arc::clone(&self.0);
                ServiceReply::stream(Box::new((0..256u32).map(move |i| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                    vec![i as u8; 64 << 10]
                })))
            }

            fn busy_payload(&self) -> Vec<u8> {
                b"BUSY".to_vec()
            }
        }

        let pulled = Arc::new(AtomicUsize::new(0));
        let service = Counting(Arc::clone(&pulled));
        let path = std::env::temp_dir().join(format!("dp-net-pull-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let endpoint = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&endpoint).unwrap();
        let shutdown = AtomicBool::new(false);
        let stats = ReactorStats::new();
        let config = NetConfig::default();
        let mut ahead = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| serve_loop(&listener, &service, &config, &shutdown, &stats).unwrap());
            let mut conn = connect(&endpoint).unwrap();
            conn.write_all(&frame(b"stream")).unwrap();
            // Not reading: the loop may only run ahead by what the
            // socket buffers absorb, never the whole 16 MiB stream.
            std::thread::sleep(Duration::from_millis(300));
            ahead = pulled.load(Ordering::SeqCst);
            for i in 0..256u32 {
                assert_eq!(read_exact_frame(&mut conn), vec![i as u8; 64 << 10]);
            }
            conn.write_all(&frame(b"quit")).unwrap();
            assert_eq!(read_exact_frame(&mut conn), b"bye");
        });
        assert!(
            (1..=16).contains(&ahead),
            "pulled {ahead} of 256 frames unread"
        );
        assert_eq!(pulled.load(Ordering::SeqCst), 256);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn connection_cap_rejects_with_busy() {
        let config = NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        let mut first = connect(&endpoint).unwrap();
        first.write_all(&frame(b"ping")).unwrap();
        assert_eq!(read_exact_frame(&mut first,), b"ping");
        // Second connection: over the cap, gets BUSY and EOF.
        let mut second = connect(&endpoint).unwrap();
        assert_eq!(read_exact_frame(&mut second), b"BUSY");
        let mut rest = Vec::new();
        assert_eq!(second.read_to_end(&mut rest).unwrap(), 0);
        // The first connection is unaffected.
        first.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut first), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().busy_rejections, 1);
    }

    #[test]
    fn insane_length_prefix_kills_only_that_connection() {
        let (endpoint, _shared, handle) = spawn_reactor(NetConfig::default());
        let mut evil = connect(&endpoint).unwrap();
        evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut rest = Vec::new();
        // The reactor drops the connection without reading the
        // announced 4 GiB.
        assert_eq!(evil.read_to_end(&mut rest).unwrap(), 0);
        let mut fine = connect(&endpoint).unwrap();
        fine.write_all(&frame(b"alive")).unwrap();
        assert_eq!(read_exact_frame(&mut fine), b"alive");
        fine.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut fine), b"bye");
        handle.join().unwrap();
    }

    #[test]
    fn wedged_idle_client_is_reaped_and_active_clients_survive() {
        let config = NetConfig {
            tick: Duration::from_millis(10),
            idle_timeout: Some(Duration::from_millis(400)),
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        // A wedged client: sends half a frame header, then nothing.
        let mut wedged = connect(&endpoint).unwrap();
        wedged.write_all(&[0x09, 0x00]).unwrap();
        // An active client keeps a slow but steady conversation going
        // across several idle windows — it must never be reaped. The
        // chatter period sits far inside the idle window (8×) so a
        // loaded CI host stretching one sleep cannot age it out.
        let mut active = connect(&endpoint).unwrap();
        for i in 0..16u8 {
            std::thread::sleep(Duration::from_millis(50));
            active.write_all(&frame(&[i])).unwrap();
            assert_eq!(read_exact_frame(&mut active), [i]);
        }
        // By now the wedged connection is long past the idle window:
        // the reactor must have dropped it (EOF on our side).
        let mut rest = Vec::new();
        assert_eq!(wedged.read_to_end(&mut rest).unwrap(), 0, "reaped");
        active.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut active), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().open_connections, 0);
    }

    #[test]
    fn conn_closed_fires_for_every_departed_connection() {
        use std::sync::Mutex;

        struct Tracking {
            closed: Mutex<Vec<u64>>,
            seen: Mutex<Vec<u64>>,
        }

        impl FrameService for Tracking {
            fn handle_frame(&self, conn: u64, payload: &[u8]) -> ServiceReply {
                match self.seen.lock() {
                    Ok(mut seen) => seen.push(conn),
                    Err(poisoned) => poisoned.into_inner().push(conn),
                }
                match payload {
                    b"quit" => ServiceReply {
                        frames: vec![b"bye".to_vec()],
                        stream: None,
                        control: Control::Shutdown,
                    },
                    other => ServiceReply::reply(other.to_vec()),
                }
            }

            fn busy_payload(&self) -> Vec<u8> {
                b"BUSY".to_vec()
            }

            fn conn_closed(&self, conn: u64) {
                match self.closed.lock() {
                    Ok(mut closed) => closed.push(conn),
                    Err(poisoned) => poisoned.into_inner().push(conn),
                }
            }
        }

        let service = Tracking {
            closed: Mutex::new(Vec::new()),
            seen: Mutex::new(Vec::new()),
        };
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shutdown = AtomicBool::new(false);
        let stats = ReactorStats::new();
        let config = NetConfig::default();
        std::thread::scope(|scope| {
            scope.spawn(|| serve_loop(&listener, &service, &config, &shutdown, &stats).unwrap());
            // One clean goodbye (drop), then one that shuts down while
            // still open: both must be reported closed.
            let mut first = connect(&local).unwrap();
            first.write_all(&frame(b"a")).unwrap();
            assert_eq!(read_exact_frame(&mut first), b"a");
            drop(first);
            let mut second = connect(&local).unwrap();
            second.write_all(&frame(b"quit")).unwrap();
            assert_eq!(read_exact_frame(&mut second), b"bye");
        });
        let seen = match service.seen.lock() {
            Ok(s) => s.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        let mut closed = match service.closed.lock() {
            Ok(c) => c.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        let mut distinct = seen.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2, "two distinct connection ids");
        closed.sort_unstable();
        assert_eq!(closed, distinct, "every id seen was reported closed");
    }

    #[test]
    fn many_loops_one_listener() {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shutdown = AtomicBool::new(false);
        let stats = ReactorStats::new();
        let config = NetConfig::default();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| serve_loop(&listener, &Echo, &config, &shutdown, &stats).unwrap());
            }
            let mut clients: Vec<Conn> = (0..8).map(|_| connect(&local).unwrap()).collect();
            for (i, c) in clients.iter_mut().enumerate() {
                c.write_all(&frame(format!("c{i}").as_bytes())).unwrap();
            }
            for (i, c) in clients.iter_mut().enumerate() {
                assert_eq!(read_exact_frame(c), format!("c{i}").as_bytes());
            }
            clients[0].write_all(&frame(b"quit")).unwrap();
            assert_eq!(read_exact_frame(&mut clients[0]), b"bye");
        });
        assert_eq!(stats.snapshot().open_connections, 0);
    }
}
