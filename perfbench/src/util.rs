//! Small measurement helpers: a seeded PRNG, percentiles, CPU clocks,
//! a nanosecond-resolution `ppoll(2)`, the request-stream hash, and the
//! in-memory span log of traced runs.

use bncg_serve::reactor::PollFd;
use std::ffi::{c_int, c_ulong, c_void};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: every input of a run derives from one of these, seeded
/// by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_cafe_f00d_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Sub-windows per measured window: every end-to-end metric is computed
/// per sub-window and reported as the median over them, so a transient
/// stall of the host moves at most a minority of them.
pub const SUB_WINDOWS: usize = 5;

/// The measured window after the warm-up, cut into [`SUB_WINDOWS`] equal
/// sub-windows, with the CPU clock read as each boundary is crossed.
pub struct Cuts {
    pub warm: Instant,
    pub end: Instant,
    cpu: Vec<Option<Duration>>,
}

impl Cuts {
    pub fn new(start: Instant, warmup: Duration, window: Duration) -> Cuts {
        Cuts {
            warm: start + warmup,
            end: start + warmup + window,
            cpu: vec![None; SUB_WINDOWS + 1],
        }
    }

    fn bound(&self, i: usize) -> Instant {
        self.warm + (self.end - self.warm) * i as u32 / SUB_WINDOWS as u32
    }

    /// The sub-window holding `t`, if `t` is inside the measured window.
    pub fn index(&self, t: Instant) -> Option<usize> {
        if t < self.warm || t >= self.end {
            return None;
        }
        let at = (t - self.warm).as_secs_f64() / (self.end - self.warm).as_secs_f64();
        Some(((at * SUB_WINDOWS as f64) as usize).min(SUB_WINDOWS - 1))
    }

    pub fn sub_secs(&self) -> f64 {
        (self.end - self.warm).as_secs_f64() / SUB_WINDOWS as f64
    }

    /// The next boundary after `now` whose CPU reading is still due.
    pub fn next_bound(&self, now: Instant) -> Option<Instant> {
        (0..=SUB_WINDOWS).map(|i| self.bound(i)).find(|b| *b > now)
    }

    /// Reads `cpu` for every boundary crossed by `now` not yet read.
    pub fn observe(&mut self, now: Instant, cpu: impl Fn() -> Duration) {
        for i in 0..=SUB_WINDOWS {
            if self.cpu[i].is_none() && now >= self.bound(i) {
                self.cpu[i] = Some(cpu());
            }
        }
    }

    /// CPU milliseconds spent in each sub-window.
    pub fn cpu_ms(&self) -> Vec<f64> {
        self.cpu
            .windows(2)
            .map(|w| match (w[0], w[1]) {
                (Some(a), Some(b)) => ms(b.saturating_sub(a)),
                _ => 0.0,
            })
            .collect()
    }
}

/// FNV-1a over a byte stream: printed per workload so two builds can
/// show they were fed the identical request stream.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock(clock: c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and both clock ids are defined by Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// `poll(2)` with a nanosecond timeout (`None` waits forever), so an
/// open-loop client wakes at an op's due time rather than at the next
/// millisecond. `EINTR` reads as zero ready descriptors.
pub fn poll_until(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: i64::from(d.subsec_nanos()),
    });
    let tp = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `struct pollfd`-layout entries (`PollFd` is `repr(C)`) whose length
    // is passed alongside; `tp` is null or points at `ts`, which outlives
    // the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, tp, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// One span of a traced run: a timed call at a layer boundary.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request (op id) the span belongs to; 0 for replay calls.
    pub req: u64,
}

/// Spans kept in memory during a traced run and written out at exit.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of an open span.
    pub fn finish(&mut self, span: usize, at: Instant) {
        self.spans[span].end = at;
    }

    /// Opens a root span starting now; close it with [`SpanLog::finish`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            req: 0,
        })
    }

    /// Writes one JSON line per span (µs offsets from the log's origin).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_micros();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                at(s.start),
                at(s.end),
                s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
