//! The wire client: one thread drives every connection from a single
//! `ppoll` loop, so send times follow the schedule to the timer's
//! resolution and receive times are taken the moment a line arrives.
//!
//! A connection is fed by one [`Source`]:
//! - **open loop**: each op is sent at its due time, whatever is still
//!   in flight; latency is measured from the due time;
//! - **window**: a closed loop keeping a fixed number of ops resident;
//! - **paced**: one op outstanding at a time, on a fixed schedule — a
//!   late op is sent as soon as its predecessor answers; latency is
//!   measured from the send, so it is the wait one lone query sees (the
//!   fair-share bound), and lag from when the op could first be sent.

use crate::util::{poll_until, process_cpu, thread_cpu, Cuts};
use bncg_core::jsonio;
use bncg_serve::reactor::{PollFd, POLLIN, POLLOUT};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the client waits for outstanding answers after the window.
const DRAIN: Duration = Duration::from_secs(60);

/// Ids of `stats` probes start here, far above any op id.
const STATS_ID: u64 = 1 << 50;

/// One op, rendered before timing starts.
pub struct Planned {
    pub id: u64,
    /// Latency class of the op (light or heavy).
    pub light: bool,
    /// Index into the workload's instance table.
    pub inst: usize,
    pub line: String,
    /// Offset of the due time from the load start (open loop and paced).
    pub due: Duration,
}

pub enum Source {
    Open(Vec<Planned>),
    Window(Vec<Planned>, usize),
    Paced(Vec<Planned>),
}

impl Source {
    pub fn ops(&self) -> &[Planned] {
        match self {
            Source::Open(ops) | Source::Window(ops, _) | Source::Paced(ops) => ops,
        }
    }
}

/// What happened to one sent op.
pub struct Record {
    pub inst: usize,
    pub light: bool,
    pub id: u64,
    /// Latency base: the due time (open loop), the moment the window
    /// slot freed (closed loop), or the send (paced). Ops are assigned
    /// to sub-windows by it.
    pub due: Instant,
    /// The earliest the client could send it; `sent - ready` is lag.
    pub ready: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
    /// Arrival times of streamed `progress` frames.
    pub frames: Vec<Instant>,
    pub response: String,
}

impl Record {
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }
}

/// The outcome of one load phase.
pub struct Phase {
    pub records: Vec<Record>,
    /// The measured window; its CPU readings are the process's minus
    /// this client thread's.
    pub cuts: Cuts,
    /// Round trips of the `stats` probes, in µs.
    pub stats_rtt_us: Vec<f64>,
}

impl Phase {
    /// The sub-window an op belongs to, by its due time.
    pub fn sub_window(&self, r: &Record) -> Option<usize> {
        self.cuts.index(r.due)
    }
}

struct Conn<'s> {
    stream: TcpStream,
    outbox: Vec<u8>,
    inbox: Vec<u8>,
    source: &'s Source,
    next: usize,
    /// Open ops awaiting their final line.
    outstanding: usize,
    /// Closed loop: instants at which window slots freed, oldest first.
    free_at: Vec<Instant>,
    /// Paced: when the previous op answered.
    last_done: Instant,
}

impl Conn<'_> {
    /// Sends whatever the source allows at `now`.
    fn send_ready(
        &mut self,
        now: Instant,
        start: Instant,
        end: Instant,
        records: &mut Vec<Record>,
    ) {
        loop {
            let Some(op) = self.source.ops().get(self.next) else {
                return;
            };
            let (due, ready) = match self.source {
                Source::Open(_) => {
                    let due = start + op.due;
                    if due > now || due >= end {
                        return;
                    }
                    (due, due)
                }
                Source::Window(_, window) => {
                    if now >= end || self.outstanding >= *window {
                        return;
                    }
                    let freed = if self.free_at.is_empty() {
                        start
                    } else {
                        self.free_at.remove(0)
                    };
                    (freed, freed)
                }
                Source::Paced(_) => {
                    let due = start + op.due;
                    if self.outstanding > 0 || due > now || due >= end {
                        return;
                    }
                    (now, due.max(self.last_done))
                }
            };
            self.outbox.extend_from_slice(op.line.as_bytes());
            records.push(Record {
                inst: op.inst,
                light: op.light,
                id: op.id,
                due,
                ready,
                sent: now,
                done: None,
                frames: Vec::new(),
                response: String::new(),
            });
            self.next += 1;
            self.outstanding += 1;
        }
    }

    /// When the source next wants to send, if it is waiting on the clock.
    fn wake(&self, start: Instant) -> Option<Instant> {
        let op = self.source.ops().get(self.next)?;
        match self.source {
            Source::Open(_) => Some(start + op.due),
            Source::Paced(_) if self.outstanding == 0 => Some(start + op.due),
            _ => None,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => {
                    self.outbox.drain(..k);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what is available and returns the complete lines.
    fn receive(&mut self) -> io::Result<Vec<String>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(k) => self.inbox.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.inbox.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbox.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line[..pos]).into_owned());
        }
        Ok(lines)
    }
}

/// Drives one load phase: `warmup` then a measured window of `window`,
/// then drains. `stats` sends a `stats` probe on the given connection
/// every period of the window (traced runs only).
pub fn drive(
    addr: SocketAddr,
    sources: &[Source],
    warmup: Duration,
    window: Duration,
    stats: Option<(usize, Duration)>,
) -> io::Result<Phase> {
    let mut conns = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for source in sources {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            outbox: Vec::new(),
            inbox: Vec::new(),
            source,
            next: 0,
            outstanding: 0,
            free_at: Vec::new(),
            last_done: Instant::now(),
        });
    }
    let mut records: Vec<Record> = Vec::new();
    let mut stats_sent: Vec<Instant> = Vec::new();
    let mut stats_rtt_us = Vec::new();
    let start = Instant::now();
    let mut cuts = Cuts::new(start, warmup, window);
    let (warm, end) = (cuts.warm, cuts.end);
    let mut next_stats = warm;
    let daemon_cpu = || process_cpu().saturating_sub(thread_cpu());
    let mut fds = Vec::new();
    loop {
        let now = Instant::now();
        cuts.observe(now, daemon_cpu);
        for conn in &mut conns {
            let before = records.len();
            conn.send_ready(now, start, end, &mut records);
            for (i, r) in records.iter().enumerate().skip(before) {
                index.insert(r.id, i);
            }
        }
        if let Some((c, period)) = stats {
            if now >= next_stats && now < end {
                let id = STATS_ID + stats_sent.len() as u64;
                conns[c]
                    .outbox
                    .extend_from_slice(format!("{{\"id\":{id},\"op\":\"stats\"}}\n").as_bytes());
                stats_sent.push(now);
                next_stats += period;
            }
        }
        for conn in &mut conns {
            conn.flush()?;
        }
        let idle = conns.iter().all(|c| c.outstanding == 0);
        if (now >= end && idle) || now >= end + DRAIN {
            break;
        }
        let mut wake: Option<Instant> = None;
        let mut consider = |t: Instant| wake = Some(wake.map_or(t, |w: Instant| w.min(t)));
        for conn in &conns {
            if let Some(t) = conn.wake(start) {
                consider(t);
            }
        }
        if stats.is_some() && next_stats < end {
            consider(next_stats);
        }
        if let Some(t) = cuts.next_bound(now) {
            consider(t);
        }
        if end + DRAIN > now {
            consider(end + DRAIN);
        }
        fds.clear();
        for conn in &conns {
            let mut events = POLLIN;
            if !conn.outbox.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(
                std::os::fd::AsRawFd::as_raw_fd(&conn.stream),
                events,
            ));
        }
        let timeout = wake.map(|t| t.saturating_duration_since(now));
        poll_until(&mut fds, timeout)?;
        for (c, conn) in conns.iter_mut().enumerate() {
            if !fds[c].wants_read() {
                continue;
            }
            let lines = conn.receive()?;
            let at = Instant::now();
            for line in lines {
                let Some(id) = jsonio::u64_field(&line, "id") else {
                    continue;
                };
                if id >= STATS_ID {
                    if let Some(sent) = stats_sent.get((id - STATS_ID) as usize) {
                        stats_rtt_us.push(at.duration_since(*sent).as_secs_f64() * 1e6);
                    }
                    continue;
                }
                let Some(&i) = index.get(&id) else { continue };
                let rec = &mut records[i];
                if jsonio::u64_field(&line, "progress") == Some(1) {
                    rec.frames.push(at);
                    continue;
                }
                rec.done = Some(at);
                rec.response = line;
                conn.outstanding -= 1;
                conn.last_done = at;
                if matches!(conn.source, Source::Window(..)) {
                    conn.free_at.push(at);
                }
            }
        }
    }
    Ok(Phase {
        records,
        cuts,
        stats_rtt_us,
    })
}
