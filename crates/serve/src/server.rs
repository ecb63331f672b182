//! The TCP front end: a single readiness loop multiplexing every
//! connection over the [`reactor`]'s `poll(2)` substrate.
//!
//! One event-loop thread owns the listener and every connection. Each
//! socket is non-blocking; the loop polls for readability, frames
//! request lines out of per-connection read buffers, parses each into a
//! [`Request`], and either answers inline (the control ops: `grant`,
//! `stats`, `shutdown`; an `atlas_lookup` hit) or submits the parsed
//! [`QuerySpec`](crate::scheduler::QuerySpec) to the scheduler with a
//! callback that appends the [`Response`] to the connection's
//! **outbox** — encoding it there, the one place a response becomes
//! bytes — and wakes the loop through a self-pipe.
//! Responses are correlated by `id`, not by order — a long check
//! submitted first can answer after a short one submitted later, which
//! is the whole point of the slicing scheduler. An idle connection
//! costs two byte buffers and one `pollfd` entry; thousands of them
//! cost bytes, not threads.
//!
//! **Framing.** A request line longer than [`MAX_LINE`] is answered
//! with exactly one `bad_request` and then discarded *through its
//! terminating newline* — the oversized line's tail is never parsed as
//! follow-on requests, and the connection stays consistent.
//!
//! **Backpressure.** A connection whose buffered responses exceed a
//! high-water mark stops being polled for reads until the client drains
//! its side, so a client that stops reading cannot balloon the daemon's
//! memory with pipelined queries.
//!
//! **Shutdown.** The wire `shutdown` op (or [`Server::stop`]) signals a
//! small supervisor thread: it stops the scheduler — resident queries
//! get one more slice and are shed with resume tokens, their responses
//! flowing through the still-running event loop — then tells the loop
//! to flush and exit.
//!
//! [`reactor`]: crate::reactor

use crate::atlas::AtlasService;
use crate::protocol::{self, BadRequest, ErrorClass, Request, Response};
use crate::reactor::{self, PollFd, WakeReceiver, Waker, POLLIN, POLLOUT};
use crate::scheduler::{Scheduler, SchedulerConfig, Work};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line, in bytes. A 1024-node dense graph
/// packs into well under this; anything longer is a protocol error, not
/// a buffering obligation.
pub const MAX_LINE: usize = 1 << 20;

/// Buffered-response ceiling per connection before the loop stops
/// reading from it (resumes as the client drains).
const HIGH_WATER: usize = 1 << 20;

/// Per-read scratch size in the event loop.
const READ_CHUNK: usize = 64 * 1024;

/// Poll timeout: a liveness backstop so control-flag transitions are
/// observed even if a wakeup is lost; every hot path wakes explicitly.
const POLL_TICK_MS: i32 = 500;

/// Server configuration: where to listen plus the scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. The default asks the OS for an ephemeral localhost
    /// port — read it back from [`Server::addr`].
    pub addr: String,
    /// The scheduler underneath.
    pub scheduler: SchedulerConfig,
    /// The (optional) precomputed stability corpus behind the
    /// `atlas_lookup` op. Defaults to empty: every lookup falls through
    /// to a live check.
    pub atlas: Arc<AtlasService>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig::default(),
            atlas: Arc::new(AtlasService::empty()),
        }
    }
}

/// Shutdown coordination between the wire, the event loop, and the
/// supervisor thread.
struct Control {
    /// Set by the `shutdown` op or [`Server::stop`]; the supervisor
    /// waits on it.
    shutdown: Mutex<bool>,
    cv: Condvar,
    /// Stop accepting new connections (set with `shutdown`).
    draining: AtomicBool,
    /// Set by the supervisor once the scheduler has drained: the event
    /// loop flushes and exits.
    exit: AtomicBool,
}

impl Control {
    fn new() -> Control {
        Control {
            shutdown: Mutex::new(false),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            exit: AtomicBool::new(false),
        }
    }

    fn request_shutdown(&self) {
        self.draining.store(true, Ordering::Release);
        *self.shutdown.lock().expect("no poisoning") = true;
        self.cv.notify_all();
    }

    fn await_shutdown(&self) {
        let mut flagged = self.shutdown.lock().expect("no poisoning");
        while !*flagged {
            flagged = self.cv.wait(flagged).expect("no poisoning");
        }
    }
}

/// The cross-thread half of a connection: scheduler callbacks push
/// response lines here; the event loop drains it to the socket.
struct ConnShared {
    outbox: Mutex<Vec<u8>>,
    /// Mirror of the outbox length, maintained under the outbox lock —
    /// lets the event loop size 500 idle connections' poll entries with
    /// one relaxed load each instead of 500 lock acquisitions per
    /// wakeup.
    queued: AtomicUsize,
    /// Once set, pushed lines are dropped — the client hung up and
    /// forfeited its remaining responses.
    closed: AtomicBool,
    waker: Arc<Waker>,
}

impl ConnShared {
    /// Encodes `response` as one line onto the outbox: the one place a
    /// response becomes bytes.
    fn push_line(&self, response: &Response) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        // Encode before taking the lock the event loop flushes under.
        let line = response.to_string();
        {
            let mut out = self.outbox.lock().expect("no poisoning");
            out.reserve(line.len() + 1);
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            self.queued.store(out.len(), Ordering::Release);
        }
        self.waker.wake();
    }
}

/// One connection, owned by the event loop.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Bytes of the current (incomplete) request line.
    read_buf: Vec<u8>,
    /// Response bytes claimed from the outbox, partially written.
    pending: Vec<u8>,
    /// Mid-oversized-line: drop input until the next `\n`.
    discarding: bool,
    /// Read side finished (EOF or error): flush and drop.
    eof: bool,
    /// Write side failed hard: drop immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, waker: Arc<Waker>) -> Conn {
        Conn {
            stream,
            shared: Arc::new(ConnShared {
                outbox: Mutex::new(Vec::new()),
                queued: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                waker,
            }),
            read_buf: Vec::new(),
            pending: Vec::new(),
            discarding: false,
            eof: false,
            dead: false,
        }
    }

    /// Response bytes not yet on the wire (outbox plus claimed).
    /// Lock-free: the poll-set build and the liveness check run this
    /// for every connection on every wakeup.
    fn buffered(&self) -> usize {
        self.pending.len() + self.shared.queued.load(Ordering::Acquire)
    }

    fn finished(&self) -> bool {
        self.dead || (self.eof && self.buffered() == 0)
    }

    /// Drains the socket's readable bytes into request lines.
    fn read_ready(
        &mut self,
        scheduler: &Arc<Scheduler>,
        atlas: &Arc<AtlasService>,
        ctl: &Arc<Control>,
    ) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(k) => {
                    self.ingest(&chunk[..k], scheduler, atlas, ctl);
                    if k < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.eof = true;
                    return;
                }
            }
        }
    }

    /// Frames `bytes` into lines, enforcing [`MAX_LINE`]: an oversized
    /// line gets exactly one `bad_request` and is discarded through its
    /// terminating newline — its tail is never parsed as requests.
    fn ingest(
        &mut self,
        bytes: &[u8],
        scheduler: &Arc<Scheduler>,
        atlas: &Arc<AtlasService>,
        ctl: &Arc<Control>,
    ) {
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.discarding {
                match rest.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        self.discarding = false;
                        rest = &rest[nl + 1..];
                    }
                    None => return,
                }
                continue;
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if self.read_buf.len() + nl > MAX_LINE {
                        self.reject_oversized();
                    } else {
                        self.read_buf.extend_from_slice(&rest[..nl]);
                        let line = std::mem::take(&mut self.read_buf);
                        handle_line(&line, &self.shared, scheduler, atlas, ctl);
                    }
                    rest = &rest[nl + 1..];
                }
                None => {
                    if self.read_buf.len() + rest.len() > MAX_LINE {
                        self.reject_oversized();
                        self.discarding = true;
                        return;
                    }
                    self.read_buf.extend_from_slice(rest);
                    return;
                }
            }
        }
    }

    fn reject_oversized(&mut self) {
        self.read_buf.clear();
        // The line's id is untrusted (it may sit in the truncated tail),
        // so the response carries id 0 like any unreadable request.
        self.shared.push_line(&Response::error(
            0,
            ErrorClass::BadRequest,
            format!("request line exceeds {MAX_LINE} bytes"),
        ));
    }

    /// Pushes buffered response bytes to the socket until it would
    /// block (or everything is out).
    fn flush(&mut self) {
        loop {
            if self.pending.is_empty() {
                if self.shared.queued.load(Ordering::Acquire) == 0 {
                    return;
                }
                let mut out = self.shared.outbox.lock().expect("no poisoning");
                std::mem::swap(&mut self.pending, &mut *out);
                self.shared.queued.store(0, Ordering::Release);
                if self.pending.is_empty() {
                    return;
                }
            }
            let mut written = 0;
            while written < self.pending.len() {
                match self.stream.write(&self.pending[written..]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(k) => written += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            self.pending.drain(..written);
            if self.dead || !self.pending.is_empty() {
                return;
            }
        }
    }

    /// Exit-path flush: briefly blocking with a timeout so the
    /// `shutdown`/shed responses reach well-behaved clients before
    /// their sockets close.
    fn final_flush(&mut self) {
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(Duration::from_secs(2)));
        let outbox = std::mem::take(&mut *self.shared.outbox.lock().expect("no poisoning"));
        let _ = self.stream.write_all(&self.pending);
        let _ = self.stream.write_all(&outbox);
        let _ = self.stream.flush();
    }
}

/// A running daemon. Dropping it does **not** stop it — call
/// [`Server::stop`] (or send the `shutdown` op) and then
/// [`Server::wait`].
pub struct Server {
    local: SocketAddr,
    scheduler: Arc<Scheduler>,
    atlas: Arc<AtlasService>,
    ctl: Arc<Control>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds, starts the scheduler, the event loop, and the shutdown
    /// supervisor, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind, self-pipe, and grants-journal failures.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let scheduler = Arc::new(Scheduler::start(cfg.scheduler)?);
        let atlas = cfg.atlas;
        let ctl = Arc::new(Control::new());
        let (waker, wake_rx) = reactor::waker()?;
        let waker = Arc::new(waker);
        let event = {
            let scheduler = Arc::clone(&scheduler);
            let atlas = Arc::clone(&atlas);
            let ctl = Arc::clone(&ctl);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                event_loop(&listener, &scheduler, &atlas, &ctl, &waker, &wake_rx);
            })
        };
        let supervisor = {
            let scheduler = Arc::clone(&scheduler);
            let ctl = Arc::clone(&ctl);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                ctl.await_shutdown();
                // Drain with the event loop still flushing: every shed
                // response lands in an outbox and goes out before exit.
                scheduler.stop();
                ctl.exit.store(true, Ordering::Release);
                waker.wake();
            })
        };
        Ok(Server {
            local,
            scheduler,
            atlas,
            ctl,
            threads: Mutex::new(vec![event, supervisor]),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// The scheduler, for embedders that mix wire and direct submission.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The atlas service behind `atlas_lookup`, for embedders and tests
    /// inspecting hit/miss counters.
    #[must_use]
    pub fn atlas(&self) -> &AtlasService {
        &self.atlas
    }

    /// Stops accepting, drains the scheduler (resident queries get one
    /// more slice and are shed with resume tokens), flushes, and joins
    /// both service threads. Idempotent.
    pub fn stop(&self) {
        self.ctl.request_shutdown();
        self.wait();
    }

    /// Blocks until the daemon has been stopped (by [`Server::stop`] or
    /// a `shutdown` request).
    pub fn wait(&self) {
        let handles: Vec<_> = self
            .threads
            .lock()
            .expect("no poisoning")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn event_loop(
    listener: &TcpListener,
    scheduler: &Arc<Scheduler>,
    atlas: &Arc<AtlasService>,
    ctl: &Arc<Control>,
    waker: &Arc<Waker>,
    wake_rx: &WakeReceiver,
) {
    let _ = listener.set_nonblocking(true);
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if ctl.exit.load(Ordering::Acquire) {
            break;
        }
        fds.clear();
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        let accepting = !ctl.draining.load(Ordering::Acquire);
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for conn in &conns {
            let buffered = conn.buffered();
            let mut events = 0i16;
            if !conn.eof && buffered < HIGH_WATER {
                events |= POLLIN;
            }
            if buffered > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        if reactor::wait(&mut fds, POLL_TICK_MS).is_err() {
            // poll(2) itself failing (ENOMEM) leaves no way to serve;
            // treat it as a shutdown request.
            ctl.request_shutdown();
            continue;
        }
        if fds[0].wants_read() {
            wake_rx.drain();
        }
        if accepting && fds[1].wants_read() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream, Arc::clone(waker)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
        // Connections accepted this round sit past the polled prefix
        // and are served on the next pass.
        let polled = fds.len() - base;
        for (i, conn) in conns.iter_mut().enumerate().take(polled) {
            let pfd = &fds[base + i];
            if pfd.events & POLLIN != 0 && pfd.wants_read() {
                conn.read_ready(scheduler, atlas, ctl);
            }
        }
        // Opportunistic flush for every connection: cheap when empty,
        // and it picks up outbox pushes that arrived between polls.
        for conn in &mut conns {
            conn.flush();
        }
        let mut i = 0;
        while i < conns.len() {
            if conns[i].finished() {
                conns[i].shared.closed.store(true, Ordering::Release);
                conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    for conn in &mut conns {
        conn.final_flush();
        conn.shared.closed.store(true, Ordering::Release);
    }
}

fn handle_line(
    raw: &[u8],
    sink: &Arc<ConnShared>,
    scheduler: &Arc<Scheduler>,
    atlas: &Arc<AtlasService>,
    ctl: &Arc<Control>,
) {
    let Ok(text) = std::str::from_utf8(raw) else {
        sink.push_line(&Response::error(
            0,
            ErrorClass::BadRequest,
            "request line is not valid UTF-8",
        ));
        return;
    };
    let line = text.trim();
    if line.is_empty() {
        return;
    }
    match protocol::parse_request(line) {
        Err(BadRequest { id, error, reason }) => {
            sink.push_line(&Response::error(id, error, reason));
        }
        Ok(request) => dispatch(request, scheduler, atlas, ctl, sink),
    }
}

/// Answers the control ops inline; submits queries to the scheduler with
/// callbacks that push into the connection's outbox. A fresh
/// `atlas_lookup` is answered from the corpus when it can be; a resume
/// token means its live fall-through is already in flight.
fn dispatch(
    request: Request,
    scheduler: &Arc<Scheduler>,
    atlas: &Arc<AtlasService>,
    ctl: &Arc<Control>,
    sink: &Arc<ConnShared>,
) {
    match request {
        Request::Grant {
            id,
            tenant,
            evals,
            weight,
        } => {
            if let Some(evals) = evals {
                scheduler.grant(&tenant, evals);
            }
            if let Some(weight) = weight {
                scheduler.set_weight(&tenant, weight);
            }
            let t = scheduler.registry().get_or_create(&tenant);
            sink.push_line(&Response::Grant {
                id,
                granted: t.pool().granted(),
                weight: t.weight(),
                tenant,
            });
        }
        Request::Stats { id } => sink.push_line(&Response::Stats {
            id,
            tenants: scheduler.tenant_rows(),
            resident: scheduler.resident(),
            atlas_hits: atlas.hits(),
            atlas_misses: atlas.misses(),
        }),
        Request::Shutdown { id } => {
            sink.push_line(&Response::Shutdown { id });
            ctl.request_shutdown();
        }
        Request::Query {
            spec,
            stream,
            lookup,
        } => {
            let hit = match (&spec.work, &spec.resume) {
                (
                    Work::Check {
                        concept,
                        graph,
                        alpha,
                        cost_model,
                    },
                    None,
                ) if lookup => atlas.try_answer(spec.id, *concept, graph, *alpha, *cost_model),
                _ => None,
            };
            if let Some(hit) = hit {
                sink.push_line(&hit);
                return;
            }
            let label = move |r: Response| if lookup { r.live_lookup() } else { r };
            let finish = {
                let sink = Arc::clone(sink);
                Box::new(move |r: Response| sink.push_line(&label(r)))
            };
            if stream {
                let sink = Arc::clone(sink);
                let progress = Box::new(move |r: Response| sink.push_line(&label(r)));
                scheduler.submit_with_progress(spec, progress, finish);
            } else {
                scheduler.submit(spec, finish);
            }
        }
    }
}
