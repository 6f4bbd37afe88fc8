//! `charlie-serve` — the always-on simulation service.
//!
//! A long-running daemon that accepts sweep/run campaigns over plain TCP
//! (newline-delimited JSON, with a minimal HTTP/1.1 shim for `curl`),
//! admission-controls them against a bounded queue, schedules their cells
//! across a persistent worker pool, and streams each completed
//! [`RunSummary`] back incrementally. Every campaign is backed by a
//! config-keyed CRC-framed checkpoint journal, so a SIGKILL'd daemon
//! resumes exactly-once per cell on restart. That journal is also the
//! campaign's own memo: a resubmit replays what it journaled without
//! simulating. A small shared memo cache adds cross-campaign reuse and
//! coalesces concurrent duplicates down to one simulation.
//!
//! The wire format for results is deliberately the *journal* format
//! ([`charlie::checkpoint::encode_summary`]): the bytes a client decodes
//! are the bytes a resumed daemon would replay, which is what makes a
//! kill-and-restart campaign byte-identical to an uninterrupted one.
//!
//! ## Protocol
//!
//! One request per connection, one JSON object per line:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! {"cmd":"submit","grid":"paper","procs":8,"refs":160000,"seed":12648430}
//! {"cmd":"submit","cells":[{"workload":"Mp3d","strategy":"PREF","transfer":8,
//!                           "layout":"interleaved"}],"deadline_ms":60000}
//! ```
//!
//! Replies are NDJSON frames: an opening
//! `{"ok":true,"campaign":"c…","cells":N,"restored":K}`, then one
//! `{"cell":…}` (or `{"cell_error":…}`) per cell *in request order*, then
//! `{"done":…}`. Degraded outcomes use `{"error":…}` frames:
//! `"saturated"` (shed, with `retry_after_ms`), `"draining"` (daemon is
//! shutting down; the campaign token resumes the rest after restart),
//! `"WallClockExceeded"` (per-request deadline, with progress counters),
//! `"bad_request"` / `"oversized"` (validation).
//!
//! The HTTP shim maps `GET /stats` and `POST /submit` onto the same
//! handlers; a shed campaign answers `429` with a `Retry-After` header.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use charlie::checkpoint::{encode_summary, Journal, JournalOptions};
use charlie::parallel::Pool;
use charlie::prefetch::HwPrefetchConfig;
use charlie::retry::RetryPolicy;
use charlie::wire::{self, Json};
use charlie::{
    execute_cell, experiments, BusConfig, Experiment, Protocol, RunConfig, RunError, RunSummary,
};

pub mod client;
pub mod worker;

/// Longest accepted request line / HTTP body: anything larger is garbage
/// or abuse, answered with an `oversized` frame instead of unbounded
/// buffering.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Seconds an idle connection may sit without sending a complete request.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// `Retry-After` the daemon advertises when shedding (milliseconds).
pub const RETRY_AFTER_MS: u64 = 1000;

/// Largest per-proc reference count one submit may ask for. Admission
/// control bounds how many campaigns run, not how long each cell runs;
/// without this ceiling a single `refs`-in-the-billions cell would occupy
/// a pool worker indefinitely (deadlines act only at the wait level) and
/// starve every other campaign. The paper's own grid tops out around
/// 160k refs per proc; 10M leaves two orders of magnitude of headroom.
pub const MAX_REFS_PER_PROC: usize = 10_000_000;

/// The error message queued-but-unstarted cells complete with during a
/// drain; the campaign handler recognizes it and answers a `draining`
/// frame (with the resumable token) instead of a per-cell error.
const DRAINING_MSG: &str = "daemon draining; resubmit campaign to resume";

/// Process-wide SIGTERM latch (the handler can only touch a static).
pub(crate) static SIGTERM_DRAIN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
pub(crate) fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERM_DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
pub(crate) fn install_sigterm_handler() {}

/// Longest the accept loop waits for a connection before it re-checks the
/// drain latch: how promptly an idle daemon notices SIGTERM or `shutdown`.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Blocks until `listener` has a connection to accept or `timeout` passes.
/// A signal cutting the wait short is not an error: the caller re-checks
/// the drain latch either way.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `pfd` is one valid, exclusively borrowed `struct pollfd`
    // for the whole call, matching `nfds = 1`; the fd stays open because
    // `listener` is borrowed.
    if unsafe { poll(&mut pfd, 1, timeout_ms) } < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) -> io::Result<()> {
    std::thread::sleep(timeout);
    Ok(())
}

/// Daemon configuration, defaulted from the `CHARLIE_SERVE_*` environment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`CHARLIE_SERVE_ADDR`, default `127.0.0.1:7077`;
    /// port 0 picks a free port — the daemon prints the resolved address).
    pub addr: String,
    /// Admission-queue capacity: campaigns admitted concurrently before
    /// the daemon sheds with `saturated` (`CHARLIE_SERVE_QUEUE`, default 8).
    pub queue: usize,
    /// Default per-request wall-clock deadline in milliseconds; 0 means
    /// none (`CHARLIE_SERVE_DEADLINE_MS`). Requests may override.
    pub deadline_ms: u64,
    /// Largest cell grid one request may submit (default 4096).
    pub cell_budget: usize,
    /// Worker threads; 0 means one per core.
    pub jobs: usize,
    /// Directory holding per-campaign checkpoint journals
    /// (default `charlie-serve-state`).
    pub state_dir: PathBuf,
}

impl ServeConfig {
    /// Reads `CHARLIE_SERVE_ADDR` / `CHARLIE_SERVE_QUEUE` /
    /// `CHARLIE_SERVE_DEADLINE_MS` over the built-in defaults.
    pub fn from_env() -> ServeConfig {
        let env_num = |key: &str, default: u64| -> u64 {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        ServeConfig {
            addr: std::env::var("CHARLIE_SERVE_ADDR")
                .unwrap_or_else(|_| "127.0.0.1:7077".to_owned()),
            queue: env_num("CHARLIE_SERVE_QUEUE", 8) as usize,
            deadline_ms: env_num("CHARLIE_SERVE_DEADLINE_MS", 0),
            cell_budget: 4096,
            jobs: 0,
            state_dir: PathBuf::from("charlie-serve-state"),
        }
    }
}

/// A memoized cell is keyed by everything that determines its bytes: the
/// machine/trace config and the experiment. The per-request deadline is
/// deliberately *not* part of the key (and `wall_limit_ms` is forced to 0)
/// so one client's short deadline can never poison the shared cache.
type CellKey = (RunConfig, Experiment);

pub(crate) fn cell_config(cfg: &RunConfig) -> RunConfig {
    RunConfig { wall_limit_ms: 0, ..*cfg }
}

/// One in-flight cell: the first claimant runs it, everyone else parks on
/// the condvar until `slot` fills.
struct CellEntry {
    slot: Mutex<Option<Result<Arc<RunSummary>, RunError>>>,
    cond: Condvar,
}

impl CellEntry {
    fn new() -> CellEntry {
        CellEntry { slot: Mutex::new(None), cond: Condvar::new() }
    }
}

/// What [`MemoCache::claim`] established about a cell.
enum Claim {
    /// Already simulated; here is the shared summary.
    Hit(Arc<RunSummary>),
    /// This claimant must run it (and [`MemoCache::complete`] it); the
    /// entry is also its own wait handle.
    Run(Arc<CellEntry>),
    /// Someone else is running it; wait on the entry.
    Wait(Arc<CellEntry>),
}

/// Completed cells the shared memo cache retains before evicting the least
/// recently used — bounds an always-on daemon's memory instead of growing
/// one entry per distinct cell forever. A resubmitted campaign does not
/// need it (its own journal answers, see [`Campaign::present`]); the cache
/// serves cells that *different* campaigns share. 512 cells (~1 MB at
/// ~1.9 KB per summary) hold three users' passes over the paper's
/// exhibits, taken in turn, as well as an unbounded cache would
/// (`exhibit_sweeps_within_the_cap_hit_as_if_unbounded`); DESIGN.md §16
/// measures where that stops holding and why the cap is not larger.
const MEMO_CACHE_CAP: usize = 512;

struct CacheInner {
    /// Completed cells, stamped with the tick of their last use.
    done: HashMap<CellKey, (u64, Arc<RunSummary>)>,
    inflight: HashMap<CellKey, Arc<CellEntry>>,
    /// Monotonic use counter driving LRU eviction.
    tick: u64,
}

impl CacheInner {
    /// Inserts a completed cell, evicting the least recently used entry
    /// once the cache is over `cap`.
    fn store(&mut self, cap: usize, key: CellKey, summary: Arc<RunSummary>) {
        self.tick += 1;
        self.done.insert(key, (self.tick, summary));
        while self.done.len() > cap {
            let oldest = self
                .done
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("cache over cap is non-empty");
            self.done.remove(&oldest);
        }
    }
}

/// The request-level memo/dedup cache: completed cells are shared across
/// campaigns (bounded LRU), concurrent duplicates coalesce onto one
/// simulation, and errors are *never* cached — a panicking cell degrades
/// only the campaigns waiting on it, then becomes runnable again.
struct MemoCache {
    inner: Mutex<CacheInner>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl MemoCache {
    fn new(cap: usize) -> MemoCache {
        MemoCache {
            inner: Mutex::new(CacheInner {
                done: HashMap::new(),
                inflight: HashMap::new(),
                tick: 0,
            }),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn claim(&self, key: CellKey) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((stamp, sum)) = inner.done.get_mut(&key) {
            *stamp = tick;
            let sum = Arc::clone(sum);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Claim::Hit(sum);
        }
        if let Some(entry) = inner.inflight.get(&key) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Claim::Wait(Arc::clone(entry));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CellEntry::new());
        inner.inflight.insert(key, Arc::clone(&entry));
        Claim::Run(entry)
    }

    fn complete(&self, key: CellKey, result: Result<Arc<RunSummary>, RunError>) {
        let entry = {
            let mut inner = self.inner.lock().unwrap();
            let entry = inner.inflight.remove(&key);
            if let Ok(sum) = &result {
                inner.store(self.cap, key, Arc::clone(sum));
            }
            entry
        };
        if let Some(entry) = entry {
            *entry.slot.lock().unwrap() = Some(result);
            entry.cond.notify_all();
        }
    }

    /// Blocks until the entry resolves, or `None` at the deadline. The
    /// simulation itself is *not* cancelled — it finishes into the cache
    /// for every other (and future) campaign.
    fn wait(
        &self,
        entry: &CellEntry,
        deadline: Option<Instant>,
    ) -> Option<Result<Arc<RunSummary>, RunError>> {
        let mut slot = entry.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            match deadline {
                None => slot = entry.cond.wait(slot).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    slot = entry.cond.wait_timeout(slot, d - now).unwrap().0;
                }
            }
        }
    }

    /// Seeds a journal-restored cell; a cell someone is already re-running
    /// keeps the in-flight claim (the restore is then just redundant).
    fn insert_done(&self, key: CellKey, summary: Arc<RunSummary>) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.done.contains_key(&key) {
            inner.store(self.cap, key, summary);
        }
    }

    fn entries(&self) -> usize {
        self.inner.lock().unwrap().done.len()
    }
}

/// One campaign's durable state: its journal plus every cell already
/// journaled (exactly-once: restored at open, extended on first write).
/// The map doubles as the campaign's own memo — a resubmit answers from
/// it before consulting the shared cache — and lives only as long as the
/// campaign's registry entry.
struct Campaign {
    journal: Journal,
    present: HashMap<Experiment, Arc<RunSummary>>,
}

impl Campaign {
    /// Appends `summary` unless this campaign already holds that cell.
    fn journal_once(&mut self, summary: &Arc<RunSummary>) {
        if let Entry::Vacant(slot) = self.present.entry(summary.experiment) {
            self.journal.append(summary);
            slot.insert(Arc::clone(summary));
        }
    }
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    cells_executed: AtomicU64,
    cells_failed: AtomicU64,
    cells_restored: AtomicU64,
    campaigns_completed: AtomicU64,
    campaigns_drained: AtomicU64,
    campaigns_deadline_exceeded: AtomicU64,
}

struct ServerState {
    cfg: ServeConfig,
    cache: MemoCache,
    pool: Pool,
    registry: Mutex<HashMap<String, Arc<Mutex<Campaign>>>>,
    stats: Stats,
    /// Campaigns currently admitted (bounded by `cfg.queue`).
    active: AtomicUsize,
    /// Live connection-handler threads; the drain waits on the condvar
    /// for zero.
    conns: (Mutex<usize>, Condvar),
    /// Local drain latch (the `shutdown` command); ORed with the SIGTERM
    /// static so in-process test servers can drain independently.
    drain: AtomicBool,
    started: Instant,
    /// Test hook ([`Server::hold_admitted`]): while `true`, admitted
    /// campaigns keep their queue slot but do not start.
    hold: (Mutex<bool>, Condvar),
}

impl ServerState {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || SIGTERM_DRAIN.load(Ordering::SeqCst)
    }

    /// Bounded-queue admission: increments `active` unless the queue is
    /// full. The returned guard releases the slot on drop (including on
    /// panic or a vanished client).
    fn admit(self: &Arc<Self>) -> Option<AdmissionGuard> {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= self.cfg.queue {
                return None;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(AdmissionGuard { state: Arc::clone(self) }),
                Err(seen) => current = seen,
            }
        }
    }

}

struct AdmissionGuard {
    state: Arc<ServerState>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The daemon: bind once, then [`Server::run`] until drained.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listen socket and builds the shared state (cache, pool,
    /// campaign registry). Fails fast on an unusable address.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| io::Error::new(e.kind(), format!("binding {}: {e}", cfg.addr)))?;
        let jobs = if cfg.jobs == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            cfg.jobs
        };
        let state = Arc::new(ServerState {
            cache: MemoCache::new(MEMO_CACHE_CAP),
            pool: Pool::new(jobs),
            registry: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            active: AtomicUsize::new(0),
            conns: (Mutex::new(0), Condvar::new()),
            drain: AtomicBool::new(false),
            started: Instant::now(),
            hold: (Mutex::new(false), Condvar::new()),
            cfg,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop. Returns once a drain (SIGTERM or the `shutdown`
    /// command) has been requested *and* every connection has finished —
    /// at which point all accepted cells are journaled or answered.
    pub fn run(&self) -> io::Result<()> {
        install_sigterm_handler();
        // Non-blocking so a wakeup whose connection vanished before
        // `accept` cannot wedge the loop past a drain.
        self.listener.set_nonblocking(true)?;
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    *state.conns.0.lock().unwrap() += 1;
                    std::thread::spawn(move || {
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle_connection(&state, stream);
                        }));
                        *state.conns.0.lock().unwrap() -= 1;
                        state.conns.1.notify_all();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, ACCEPT_POLL)?;
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: no new connections; wait for in-flight campaigns to
        // stream their `draining`/`done` frames. Queued cells short-circuit
        // (the pool jobs see the flag), in-flight cells finish and journal.
        let (conns, idle) = &self.state.conns;
        drop(idle.wait_while(conns.lock().unwrap(), |live| *live > 0).unwrap());
        Ok(())
    }

    /// Requests a drain (what SIGTERM does, callable in-process).
    pub fn request_drain(&self) {
        self.state.drain.store(true, Ordering::SeqCst);
    }

    /// Test hook for deterministic admission tests: while held, every
    /// admitted campaign keeps its queue slot but waits before opening its
    /// journal, so a test can saturate the queue without racing the
    /// occupant's completion. Release before draining.
    #[doc(hidden)]
    pub fn hold_admitted(&self, held: bool) {
        *self.state.hold.0.lock().unwrap() = held;
        self.state.hold.1.notify_all();
    }
}

/// Reads `\n`-terminated lines (and exact byte ranges) from a socket with
/// a hard size cap and an idle limit, so hostile or wedged clients can
/// neither buffer the daemon into the ground nor pin a drain forever.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

enum LineResult {
    Line(Vec<u8>),
    Oversized,
    Eof,
}

impl LineReader {
    fn new(stream: TcpStream) -> io::Result<LineReader> {
        stream.set_read_timeout(Some(Duration::from_millis(250)))?;
        Ok(LineReader { stream, buf: Vec::new(), pos: 0 })
    }

    fn fill(&mut self, idle_since: &mut Instant) -> io::Result<bool> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                *idle_since = Instant::now();
                Ok(true)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if idle_since.elapsed() > IDLE_LIMIT {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "idle connection"));
                }
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    fn next_line(&mut self) -> io::Result<LineResult> {
        let mut idle_since = Instant::now();
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                if nl > MAX_REQUEST_BYTES {
                    // The terminator arrived in the same read burst as the
                    // overflow; the line is still over the cap.
                    return Ok(LineResult::Oversized);
                }
                let mut line = self.buf[self.pos..self.pos + nl].to_vec();
                self.pos += nl + 1;
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineResult::Line(line));
            }
            if self.buf.len() - self.pos > MAX_REQUEST_BYTES {
                return Ok(LineResult::Oversized);
            }
            let before = self.buf.len();
            if !self.fill(&mut idle_since)? && self.buf.len() == before {
                return Ok(if self.buf.len() > self.pos {
                    LineResult::Line(self.buf.split_off(self.pos))
                } else {
                    LineResult::Eof
                });
            }
        }
    }

    /// Reads exactly `n` bytes (HTTP bodies); `n` is pre-checked against
    /// the cap by the caller.
    fn read_exact_n(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut idle_since = Instant::now();
        while self.buf.len() - self.pos < n {
            if !self.fill(&mut idle_since)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        let body = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(body)
    }
}

/// Frame writer that knows whether it is speaking raw NDJSON or the HTTP
/// shim (status line + headers before the first frame, then NDJSON body).
struct Responder {
    stream: TcpStream,
    http: bool,
    status_sent: bool,
}

impl Responder {
    /// The client's address (`ip:port`) — the salt de-synchronizing
    /// per-client backoff hints. Empty when the socket cannot say (the
    /// hint then degrades to one shared jitter value, never an error).
    fn peer(&self) -> String {
        self.stream.peer_addr().map(|a| a.to_string()).unwrap_or_default()
    }

    fn status(&mut self, code: u16, reason: &str, extra_headers: &str) -> io::Result<()> {
        if self.http && !self.status_sent {
            self.status_sent = true;
            write!(
                self.stream,
                "HTTP/1.1 {code} {reason}\r\nContent-Type: application/x-ndjson\r\n\
                 Connection: close\r\n{extra_headers}\r\n"
            )?;
        }
        Ok(())
    }

    /// One frame: status (200 if none was sent yet), the JSON line, flush —
    /// flushing per frame is what makes the stream incremental.
    fn frame(&mut self, json: &str) -> io::Result<()> {
        self.status(200, "OK", "")?;
        self.stream.write_all(json.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = match LineReader::new(reader_stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut resp = Responder { stream, http: false, status_sent: false };

    let first = match reader.next_line() {
        Ok(LineResult::Line(line)) => line,
        Ok(LineResult::Oversized) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = resp.frame(&format!(
                "{{\"error\":\"oversized\",\"limit_bytes\":{MAX_REQUEST_BYTES}}}"
            ));
            return;
        }
        _ => return,
    };
    let text = String::from_utf8_lossy(&first).into_owned();

    let request = if text.starts_with("GET ") || text.starts_with("POST ") {
        resp.http = true;
        match read_http_request(state, &text, &mut reader, &mut resp) {
            Some(body) => body,
            None => return, // already answered (404 / oversized / bad body)
        }
    } else {
        text
    };

    match wire::parse(request.trim()) {
        Ok(v) => dispatch(state, &v, &mut resp),
        Err(e) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = resp.status(400, "Bad Request", "");
            let mut f = String::from("{\"error\":\"bad_request\",");
            wire::push_str_field(&mut f, "detail", &e);
            f.pop();
            f.push('}');
            let _ = resp.frame(&f);
        }
    }
}

/// The HTTP/1.1 shim: consumes headers, maps `GET /stats` to the stats
/// command and `POST /submit` to the submitted body, 404s everything else.
/// Returns the JSON request text, or `None` after answering directly.
fn read_http_request(
    state: &Arc<ServerState>,
    request_line: &str,
    reader: &mut LineReader,
    resp: &mut Responder,
) -> Option<String> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let mut content_length = 0usize;
    loop {
        match reader.next_line() {
            Ok(LineResult::Line(line)) if line.is_empty() => break,
            Ok(LineResult::Line(line)) => {
                let header = String::from_utf8_lossy(&line).into_owned();
                if let Some((name, value)) = header.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap_or(usize::MAX);
                    }
                }
            }
            _ => return None,
        }
    }

    match (method, path) {
        ("GET", "/stats") => Some("{\"cmd\":\"stats\"}".to_owned()),
        ("POST", "/submit") => {
            if content_length > MAX_REQUEST_BYTES {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let _ = resp.status(413, "Payload Too Large", "");
                let _ = resp.frame(&format!(
                    "{{\"error\":\"oversized\",\"limit_bytes\":{MAX_REQUEST_BYTES}}}"
                ));
                return None;
            }
            match reader.read_exact_n(content_length) {
                Ok(body) => Some(String::from_utf8_lossy(&body).into_owned()),
                Err(_) => None,
            }
        }
        _ => {
            let _ = resp.status(404, "Not Found", "");
            let _ = resp.frame("{\"error\":\"not_found\"}");
            None
        }
    }
}

fn dispatch(state: &Arc<ServerState>, request: &Json, resp: &mut Responder) {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    let cmd = match request.field("cmd").and_then(|c| c.str().map(str::to_owned)) {
        Ok(cmd) => cmd,
        Err(e) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = resp.status(400, "Bad Request", "");
            let mut f = String::from("{\"error\":\"bad_request\",");
            wire::push_str_field(&mut f, "detail", &e);
            f.pop();
            f.push('}');
            let _ = resp.frame(&f);
            return;
        }
    };
    match cmd.as_str() {
        "ping" => {
            let _ = resp.frame("{\"ok\":true,\"pong\":true}");
        }
        "stats" => {
            let _ = resp.frame(&render_stats(state));
        }
        "shutdown" => {
            state.drain.store(true, Ordering::SeqCst);
            let _ = resp.frame("{\"ok\":true,\"draining\":true}");
        }
        "submit" => handle_submit(state, request, resp),
        other => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = resp.status(400, "Bad Request", "");
            let mut f = String::from("{\"error\":\"bad_request\",");
            wire::push_str_field(&mut f, "detail", &format!("unknown cmd {other:?}"));
            f.pop();
            f.push('}');
            let _ = resp.frame(&f);
        }
    }
}

fn render_stats(state: &ServerState) -> String {
    let s = &state.stats;
    let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut json = format!(
        concat!(
            "{{\"uptime_ms\":{},",
            "\"queue\":{{\"capacity\":{},\"active\":{}}},",
            "\"admission\":{{\"requests\":{},\"accepted\":{},\"shed\":{},",
            "\"bad_requests\":{}}},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"entries\":{}}},",
            "\"cells\":{{\"executed\":{},\"failed\":{},\"restored\":{}}},",
            "\"campaigns\":{{\"completed\":{},\"drained\":{},\"deadline_exceeded\":{}}}}}"
        ),
        state.started.elapsed().as_millis(),
        state.cfg.queue,
        state.active.load(Ordering::SeqCst),
        g(&s.requests),
        g(&s.accepted),
        g(&s.shed),
        g(&s.bad_requests),
        state.cache.hits.load(Ordering::Relaxed),
        state.cache.misses.load(Ordering::Relaxed),
        state.cache.coalesced.load(Ordering::Relaxed),
        state.cache.entries(),
        g(&s.cells_executed),
        g(&s.cells_failed),
        g(&s.cells_restored),
        g(&s.campaigns_completed),
        g(&s.campaigns_drained),
        g(&s.campaigns_deadline_exceeded),
    );
    // Fleet health rides along only once a worker has registered in this
    // state dir, so a workerless daemon's stats stay byte-stable.
    if let Some(workers) = worker::render_workers_section(&state.cfg.state_dir) {
        json.pop();
        json.push_str(",\"workers\":");
        json.push_str(&workers);
        json.push('}');
    }
    json
}

/// One decoded `submit` request.
pub(crate) struct SubmitSpec {
    pub(crate) cells: Vec<Experiment>,
    pub(crate) cfg: RunConfig,
    pub(crate) deadline_ms: u64,
}

pub(crate) fn decode_submit(default_deadline_ms: u64, v: &Json) -> Result<SubmitSpec, String> {
    let mut cfg = RunConfig::default();
    if let Some(n) = v.opt_field("procs") {
        cfg.procs = n.num()? as usize;
        if cfg.procs == 0 || cfg.procs > 64 {
            return Err(format!("procs {} out of range 1..=64", cfg.procs));
        }
    }
    if let Some(n) = v.opt_field("refs") {
        let refs = n.num()?;
        if refs == 0 || refs > MAX_REFS_PER_PROC as u64 {
            return Err(format!("refs {refs} out of range 1..={MAX_REFS_PER_PROC}"));
        }
        cfg.refs_per_proc = refs as usize;
    }
    if let Some(n) = v.opt_field("seed") {
        cfg.seed = n.num()?;
    }
    if let Some(s) = v.opt_field("hw_prefetch") {
        cfg.hw_prefetch = HwPrefetchConfig::parse(s.str()?)?;
    }
    if let Some(s) = v.opt_field("protocol") {
        let spec = s.str()?;
        cfg.protocol = Protocol::parse(spec)
            .ok_or_else(|| format!("unknown protocol {spec:?} ({})", Protocol::CHOICES))?;
    }
    if let Some(smp) = v.opt_field("sampling") {
        cfg.sampling = Some(decode_sampling(smp)?);
    }
    // Deadlines act at the campaign-wait level; the cell itself runs (and
    // is cached) unlimited so the key stays deadline-independent.
    cfg.wall_limit_ms = 0;

    let deadline_ms = match v.opt_field("deadline_ms") {
        Some(n) => n.num()?,
        None => default_deadline_ms,
    };

    let cells: Vec<Experiment> = match (v.opt_field("grid"), v.opt_field("cells")) {
        (Some(g), None) => match g.str()? {
            "paper" => experiments::full_grid(),
            other => return Err(format!("unknown grid {other:?} (expected \"paper\")")),
        },
        (None, Some(list)) => list
            .arr()?
            .iter()
            .map(wire::decode_experiment)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("exactly one of \"grid\" or \"cells\" is required".into()),
    };
    if cells.is_empty() {
        return Err("empty cell grid".into());
    }
    // A transfer the bus cannot build would panic a pool worker; answer
    // `bad_request` here instead.
    if let Some(exp) =
        cells.iter().find(|e| !BusConfig::TRANSFER_RANGE.contains(&e.transfer_cycles))
    {
        return Err(format!(
            "transfer {} out of range {:?}",
            exp.transfer_cycles,
            BusConfig::TRANSFER_RANGE
        ));
    }
    Ok(SubmitSpec { cells, cfg, deadline_ms })
}

/// Decodes the request's nested `sampling` object: the named mode's
/// defaults with any field overridden, validated like the CLI flags. The
/// resulting config lands in [`RunConfig::sampling`], so sampled cells get
/// their own cache key, journal, and campaign token — they can never
/// coalesce with (or pollute) an exact run of the same grid.
fn decode_sampling(v: &Json) -> Result<charlie::SamplingConfig, String> {
    let mode_name = v.field("mode")?.str()?;
    let mode = charlie::SamplingMode::parse(mode_name)
        .ok_or_else(|| format!("unknown sampling mode {mode_name:?} (smarts or simpoint)"))?;
    let mut smp = match mode {
        charlie::SamplingMode::Smarts => charlie::SamplingConfig::smarts(),
        charlie::SamplingMode::Simpoint => charlie::SamplingConfig::simpoint(),
    };
    if let Some(n) = v.opt_field("window") {
        smp.window_accesses = n.num()?;
    }
    if let Some(n) = v.opt_field("period") {
        smp.period = n.num()?;
    }
    if let Some(n) = v.opt_field("warmup") {
        smp.warmup = n.num()?;
    }
    if let Some(n) = v.opt_field("max_k") {
        smp.max_k = n.num()?;
    }
    if let Some(n) = v.opt_field("seed") {
        smp.seed = n.num()?;
    }
    if let Some(n) = v.opt_field("cold") {
        smp.cold = n.num()?;
    }
    smp.validate()?;
    Ok(smp)
}

/// The campaign's durable identity: config plus grid, hashed into the
/// journal's config key and the resumable token.
pub(crate) fn campaign_key(cfg: &RunConfig, cells: &[Experiment]) -> (String, String) {
    let mut grid = String::new();
    for exp in cells {
        grid.push_str(&wire::encode_experiment(*exp));
    }
    let key = format!("{}/g{:016x}", cfg.journal_key("serve"), RetryPolicy::salt(&grid));
    let token = format!("c{:016x}", RetryPolicy::salt(&key));
    (key, token)
}

/// A request's or a pool job's handle on a registry campaign. Dropping the
/// last lease evicts the registry entry, closing the journal's fd and
/// freeing the campaign's memo — an always-on daemon must not pin one open
/// file (or one summary map) per campaign it ever served. The on-disk
/// journal survives eviction; a resubmit reopens and restores it.
struct CampaignLease {
    state: Arc<ServerState>,
    token: String,
    /// `None` only inside `drop`, which releases it under the registry lock.
    campaign: Option<Arc<Mutex<Campaign>>>,
}

impl CampaignLease {
    fn campaign(&self) -> &Mutex<Campaign> {
        self.campaign.as_ref().expect("a live lease holds its campaign")
    }
}

impl Clone for CampaignLease {
    fn clone(&self) -> CampaignLease {
        CampaignLease {
            state: Arc::clone(&self.state),
            token: self.token.clone(),
            campaign: self.campaign.clone(),
        }
    }
}

impl Drop for CampaignLease {
    fn drop(&mut self) {
        let mut registry = self.state.registry.lock().unwrap();
        let Some(mine) = self.campaign.take() else { return };
        // Every reference besides the registry's is a lease, and each
        // lease lets go of it under this lock, so exactly two strong refs
        // (the registry's and this one) mean this is the last lease: of
        // several dropping at once, exactly one sees it.
        if registry
            .get(&self.token)
            .is_some_and(|entry| Arc::ptr_eq(entry, &mine) && Arc::strong_count(entry) == 2)
        {
            registry.remove(&self.token);
        }
        drop(mine);
    }
}

/// Opens (or rejoins) the campaign's journal. Every restored cell lands in
/// the campaign's own memo and seeds the shared cache for other campaigns.
/// Returns the campaign lease and how many cells it already holds.
fn open_campaign(
    state: &Arc<ServerState>,
    token: &str,
    key: &str,
    cell_cfg: &RunConfig,
) -> io::Result<(CampaignLease, usize)> {
    let lease = |campaign: &Arc<Mutex<Campaign>>| CampaignLease {
        state: Arc::clone(state),
        token: token.to_owned(),
        campaign: Some(Arc::clone(campaign)),
    };
    let mut registry = state.registry.lock().unwrap();
    if let Some(campaign) = registry.get(token) {
        let present = campaign.lock().unwrap().present.len();
        return Ok((lease(campaign), present));
    }
    std::fs::create_dir_all(&state.cfg.state_dir).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("creating state dir {}: {e}", state.cfg.state_dir.display()),
        )
    })?;
    let path = state.cfg.state_dir.join(format!("{token}.ckpt"));
    let opts = JournalOptions { config: Some(key.to_owned()), sync: false };
    let (journal, restored) = Journal::open_with(&path, opts)?;
    let restored_count = restored.len();
    let mut present = HashMap::with_capacity(restored_count);
    for summary in restored {
        let summary = Arc::new(summary);
        state.cache.insert_done((*cell_cfg, summary.experiment), Arc::clone(&summary));
        present.insert(summary.experiment, summary);
    }
    state.stats.cells_restored.fetch_add(restored_count as u64, Ordering::Relaxed);
    let campaign = Arc::new(Mutex::new(Campaign { journal, present }));
    registry.insert(token.to_owned(), Arc::clone(&campaign));
    Ok((lease(&campaign), restored_count))
}

fn error_frame(kind: &str, detail: &str) -> String {
    let mut f = String::from("{\"error\":\"");
    f.push_str(kind);
    f.push_str("\",");
    wire::push_str_field(&mut f, "detail", detail);
    f.pop();
    f.push('}');
    f
}

fn handle_submit(state: &Arc<ServerState>, request: &Json, resp: &mut Responder) {
    let spec = match decode_submit(state.cfg.deadline_ms, request) {
        Ok(spec) => spec,
        Err(e) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = resp.status(400, "Bad Request", "");
            let _ = resp.frame(&error_frame("bad_request", &e));
            return;
        }
    };
    if spec.cells.len() > state.cfg.cell_budget {
        state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = resp.status(413, "Payload Too Large", "");
        let _ = resp.frame(&format!(
            "{{\"error\":\"oversized\",\"cells\":{},\"budget\":{}}}",
            spec.cells.len(),
            state.cfg.cell_budget
        ));
        return;
    }

    // Admission control: a full queue sheds with a structured retryable
    // reply (and HTTP 429 + Retry-After through the shim) instead of
    // queueing unboundedly.
    let _admission = match state.admit() {
        Some(guard) => guard,
        None => {
            state.stats.shed.fetch_add(1, Ordering::Relaxed);
            // Deterministic per-client jitter (same LCG as the batch retry
            // ladder, salted by peer address): N clients shed in the same
            // burst re-arrive spread across [0.75, 1.25) of the hint
            // instead of stampeding back in lockstep.
            let peer = resp.peer();
            let retry_ms =
                charlie::retry::jittered_ms(RETRY_AFTER_MS, RetryPolicy::salt(&peer));
            let _ = resp.status(
                429,
                "Too Many Requests",
                &format!("Retry-After: {}\r\n", retry_ms.div_ceil(1000)),
            );
            let _ = resp.frame(&format!(
                "{{\"error\":\"saturated\",\"retry_after_ms\":{retry_ms},\
                 \"active\":{},\"queue\":{}}}",
                state.active.load(Ordering::SeqCst),
                state.cfg.queue
            ));
            return;
        }
    };
    state.stats.accepted.fetch_add(1, Ordering::Relaxed);
    drop(state.hold.1.wait_while(state.hold.0.lock().unwrap(), |held| *held).unwrap());

    let cell_cfg = cell_config(&spec.cfg);
    let (key, token) = campaign_key(&cell_cfg, &spec.cells);
    let (lease, restored) = match open_campaign(state, &token, &key, &cell_cfg) {
        Ok(opened) => opened,
        Err(e) => {
            let _ = resp.status(500, "Internal Server Error", "");
            let _ = resp.frame(&error_frame("journal", &e.to_string()));
            return;
        }
    };
    let campaign = lease.campaign();

    let total = spec.cells.len();
    if resp
        .frame(&format!(
            "{{\"ok\":true,\"campaign\":\"{token}\",\"cells\":{total},\"restored\":{restored}}}"
        ))
        .is_err()
    {
        return;
    }

    // Claim every cell up front: duplicates coalesce immediately and the
    // pool runs misses in parallel while we stream in request order. The
    // campaign's own journal answers first (counted as cache hits), so a
    // resubmit of any size re-simulates nothing however small the shared
    // cache is.
    let claims: Vec<(Experiment, Claim)> = {
        let journaled = campaign.lock().unwrap();
        spec.cells
            .iter()
            .map(|&exp| {
                let claim = match journaled.present.get(&exp) {
                    Some(sum) => {
                        state.cache.hits.fetch_add(1, Ordering::Relaxed);
                        Claim::Hit(Arc::clone(sum))
                    }
                    None => state.cache.claim((cell_cfg, exp)),
                };
                (exp, claim)
            })
            .collect()
    };
    for (exp, claim) in &claims {
        if let Claim::Run(_) = claim {
            let state = Arc::clone(state);
            let lease = lease.clone();
            let exp = *exp;
            state.clone().pool.submit(move |_worker| {
                run_cell_job(&state, lease, cell_cfg, exp);
            });
        }
    }

    let deadline = match spec.deadline_ms {
        0 => None,
        ms => Some(Instant::now() + Duration::from_millis(ms)),
    };
    let mut completed = 0usize;
    for (i, (exp, claim)) in claims.into_iter().enumerate() {
        let result = match claim {
            Claim::Hit(sum) => Ok(sum),
            Claim::Run(entry) | Claim::Wait(entry) => {
                match state.cache.wait(&entry, deadline) {
                    Some(result) => result,
                    None => {
                        state
                            .stats
                            .campaigns_deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = resp.frame(&format!(
                            "{{\"error\":\"WallClockExceeded\",\"limit_ms\":{},\
                             \"campaign\":\"{token}\",\"completed\":{completed},\
                             \"remaining\":{}}}",
                            spec.deadline_ms,
                            total - i
                        ));
                        return;
                    }
                }
            }
        };
        match result {
            Ok(sum) => {
                // Cache hits journal here too: this campaign's journal must
                // be complete even when another campaign did the work.
                campaign.lock().unwrap().journal_once(&sum);
                completed += 1;
                let mut frame = String::from("{\"cell\":");
                frame.push_str(&encode_summary(&sum));
                frame.push('}');
                if resp.frame(&frame).is_err() {
                    return; // client went away; cells keep landing in cache + journal
                }
            }
            Err(RunError::Trace(msg)) if msg == DRAINING_MSG => {
                state.stats.campaigns_drained.fetch_add(1, Ordering::Relaxed);
                let _ = resp.frame(&format!(
                    "{{\"error\":\"draining\",\"campaign\":\"{token}\",\
                     \"completed\":{completed},\"remaining\":{}}}",
                    total - i
                ));
                return;
            }
            Err(err) => {
                let mut frame = String::from("{\"cell_error\":{\"experiment\":");
                frame.push_str(&wire::encode_experiment(exp));
                frame.push(',');
                wire::push_str_field(&mut frame, "error", &err.to_string());
                frame.pop();
                frame.push_str("}}");
                if resp.frame(&frame).is_err() {
                    return;
                }
            }
        }
    }
    state.stats.campaigns_completed.fetch_add(1, Ordering::Relaxed);
    let _ = resp.frame(&format!(
        "{{\"done\":true,\"campaign\":\"{token}\",\"cells\":{total},\
         \"completed\":{completed},\"failed\":{}}}",
        total - completed
    ));
}

/// One pool job: execute the claimed cell through the shared retry ladder,
/// journal it into the submitting campaign, publish to the cache. During a
/// drain, queued-but-unstarted cells complete with the draining marker
/// instead of running, so the daemon exits promptly and the cells re-run
/// on resume.
fn run_cell_job(
    state: &Arc<ServerState>,
    lease: CampaignLease,
    cell_cfg: RunConfig,
    exp: Experiment,
) {
    let result = if state.draining() {
        Err(RunError::Trace(DRAINING_MSG.to_owned()))
    } else {
        let salt = RetryPolicy::salt(&format!("{exp}"));
        let outcome = RetryPolicy::TRANSIENT_IO.run(salt, RunError::is_transient_io, || {
            // Panics inside the simulator surface as RunError::Panic through
            // execute_cell's isolation, so one bad cell degrades only the
            // campaigns waiting on it.
            execute_cell(&cell_cfg, exp)
        });
        match outcome {
            Ok(summary) => {
                state.stats.cells_executed.fetch_add(1, Ordering::Relaxed);
                let summary = Arc::new(summary);
                // Journal before publishing: a crash after the cache sees
                // the cell but before the journal does would re-run it on
                // resume (wasteful but correct); the reverse order could
                // answer a client from a cell the journal never got.
                lease.campaign().lock().unwrap().journal_once(&summary);
                Ok(summary)
            }
            Err(err) => {
                state.stats.cells_failed.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    };
    state.cache.complete((cell_cfg, exp), result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie::Strategy;
    use charlie::Workload;

    fn tiny_cfg() -> RunConfig {
        RunConfig { refs_per_proc: 600, procs: 2, ..RunConfig::default() }
    }

    #[test]
    fn campaign_key_is_stable_and_grid_sensitive() {
        let cfg = tiny_cfg();
        let a = vec![Experiment::paper(Workload::Water, Strategy::Pref, 8)];
        let b = vec![Experiment::paper(Workload::Water, Strategy::Pws, 8)];
        let (key1, tok1) = campaign_key(&cfg, &a);
        let (key2, tok2) = campaign_key(&cfg, &a);
        assert_eq!((key1.clone(), tok1.clone()), (key2, tok2), "same request, same token");
        let (_, tok3) = campaign_key(&cfg, &b);
        assert_ne!(tok1, tok3, "different grid, different token");
        assert!(tok1.len() == 17 && tok1.starts_with('c'));
        assert!(key1.starts_with("serve/p2/r600/"));
    }

    /// The done-side of the cache is a bounded LRU: inserting past the cap
    /// evicts the least recently *used* entry, and a claim refreshes
    /// recency.
    #[test]
    fn cache_evicts_least_recently_used_beyond_cap() {
        let cache = MemoCache::new(2);
        let cfg = cell_config(&tiny_cfg());
        let exps = [
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Strategy::Pref, 8),
            Experiment::paper(Workload::Water, Strategy::Pws, 8),
        ];
        let summary = Arc::new(execute_cell(&cfg, exps[0]).unwrap());
        cache.insert_done((cfg, exps[0]), Arc::clone(&summary));
        cache.insert_done((cfg, exps[1]), Arc::clone(&summary));
        // Touch the oldest entry so the *other* one is LRU.
        assert!(matches!(cache.claim((cfg, exps[0])), Claim::Hit(_)));
        cache.insert_done((cfg, exps[2]), Arc::clone(&summary));
        assert_eq!(cache.entries(), 2, "cap bounds the cache");
        assert!(matches!(cache.claim((cfg, exps[0])), Claim::Hit(_)), "recently used survives");
        assert!(matches!(cache.claim((cfg, exps[1])), Claim::Run(_)), "LRU entry was evicted");
    }

    /// Replays the paper's exhibits through a shared cache of `cap` cells,
    /// one campaign per exhibit per user, `users` users (distinct seeds, so
    /// no cell is shared between users) taking turns exhibit by exhibit.
    /// Returns `(hits, misses)`.
    fn exhibit_sweeps(cap: usize, users: u64, summary: &Arc<RunSummary>) -> (u64, u64) {
        let cache = MemoCache::new(cap);
        for exhibit in EXHIBITS {
            for user in 0..users {
                // The shared lab's cells: a campaign runs on one machine.
                let base = RunConfig { seed: user, ..tiny_cfg() };
                let cfg = cell_config(&base);
                let cells = (experiments::exhibit(exhibit).expect("registered").cells)(&base);
                let claims: Vec<(Experiment, Claim)> = cells
                    .into_iter()
                    .filter(|&(c, _)| c == base)
                    .map(|(_, exp)| (exp, cache.claim((cfg, exp))))
                    .collect();
                for (exp, claim) in claims {
                    if let Claim::Run(_) = claim {
                        cache.complete((cfg, exp), Ok(Arc::clone(summary)));
                    }
                }
            }
        }
        (cache.hits.load(Ordering::Relaxed), cache.misses.load(Ordering::Relaxed))
    }

    /// The exhibits whose cells the paper's evaluation reads, in the order
    /// `charlie experiments all` prints them, then the two post-paper ones.
    const EXHIBITS: [&str; 10] = [
        "figure1",
        "table2",
        "figure2",
        "figure3",
        "table3",
        "table4",
        "table5",
        "proc-util",
        "hw-prefetch",
        "protocols",
    ];

    /// The shared cache's sizing (see [`MEMO_CACHE_CAP`]): up to three
    /// users taking turns over the exhibits hit as often as with a cache
    /// that never evicts.
    #[test]
    fn exhibit_sweeps_within_the_cap_hit_as_if_unbounded() {
        let cfg = cell_config(&tiny_cfg());
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let summary = Arc::new(execute_cell(&cfg, exp).unwrap());
        for users in 1..=3 {
            let unbounded = exhibit_sweeps(usize::MAX, users, &summary);
            assert!(unbounded.0 > 0, "exhibits share cells");
            assert_eq!(exhibit_sweeps(MEMO_CACHE_CAP, users, &summary), unbounded);
        }
    }

    #[test]
    fn cache_coalesces_and_never_caches_errors() {
        let cache = MemoCache::new(MEMO_CACHE_CAP);
        let cfg = cell_config(&tiny_cfg());
        let exp = Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8);
        let key = (cfg, exp);

        let entry = match cache.claim(key) {
            Claim::Run(entry) => entry,
            _ => panic!("first claim must be Run"),
        };
        assert!(matches!(cache.claim(key), Claim::Wait(_)), "duplicate coalesces");
        cache.complete(key, Err(RunError::Panic("boom".into())));
        assert!(matches!(
            cache.wait(&entry, None),
            Some(Err(RunError::Panic(_)))
        ));
        // The error was not cached: the cell is claimable (and runnable) again.
        assert!(matches!(cache.claim(key), Claim::Run(_)));
        assert_eq!(cache.coalesced.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cache_wait_honors_deadline_without_poisoning() {
        let cache = MemoCache::new(MEMO_CACHE_CAP);
        let cfg = cell_config(&tiny_cfg());
        let exp = Experiment::paper(Workload::Water, Strategy::Pref, 8);
        let key = (cfg, exp);
        let entry = match cache.claim(key) {
            Claim::Run(entry) => entry,
            _ => panic!(),
        };
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(cache.wait(&entry, deadline).is_none(), "deadline fires");
        // The slow simulation still completes into the cache for everyone.
        let summary = Arc::new(execute_cell(&cfg, exp).unwrap());
        cache.complete(key, Ok(Arc::clone(&summary)));
        match cache.claim(key) {
            Claim::Hit(sum) => assert_eq!(*sum, *summary),
            _ => panic!("late completion is a hit for the next claimant"),
        }
    }

    #[test]
    fn decode_submit_validates() {
        let ok = wire::parse(
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Water\",\"strategy\":\"PREF\",\
             \"transfer\":8,\"layout\":\"interleaved\"}],\"procs\":2,\"refs\":600}",
        )
        .unwrap();
        let spec = decode_submit(1234, &ok).unwrap();
        assert_eq!(spec.cells.len(), 1);
        assert_eq!(spec.cfg.procs, 2);
        assert_eq!(spec.deadline_ms, 1234, "server default applies when unset");
        assert_eq!(spec.cfg.wall_limit_ms, 0, "cell config is deadline-free");
        assert_eq!(spec.cfg.sampling, None, "exact mode unless requested");

        let sampled = wire::parse(
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\
             \"sampling\":{\"mode\":\"smarts\",\"period\":41}}",
        )
        .unwrap();
        let spec = decode_submit(0, &sampled).unwrap();
        let smp = spec.cfg.sampling.expect("sampling decoded");
        assert_eq!(smp.mode, charlie::SamplingMode::Smarts);
        assert_eq!(smp.period, 41, "explicit field overrides the mode default");
        assert_eq!(smp.cold, 8, "unspecified fields take the mode default");

        for bad in [
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\"cells\":[]}",
            "{\"cmd\":\"submit\",\"cells\":[]}",
            "{\"cmd\":\"submit\",\"grid\":\"nope\"}",
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\"procs\":0}",
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\"hw_prefetch\":\"bogus\"}",
            // Unbounded work per cell is rejected up front: a refs count in
            // the billions would pin pool workers past any deadline.
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\"refs\":99999999999}",
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Water\",\"strategy\":\"PREF\",\
             \"transfer\":9999999,\"layout\":\"interleaved\"}]}",
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Water\",\"strategy\":\"PREF\",\
             \"transfer\":101,\"layout\":\"interleaved\"}]}",
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"Water\",\"strategy\":\"PREF\",\
             \"transfer\":0,\"layout\":\"interleaved\"}]}",
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\"sampling\":{\"mode\":\"census\"}}",
            "{\"cmd\":\"submit\",\"grid\":\"paper\",\
             \"sampling\":{\"mode\":\"smarts\",\"period\":0}}",
        ] {
            let v = wire::parse(bad).unwrap();
            assert!(decode_submit(0, &v).is_err(), "{bad} must be rejected");
        }
    }

    /// Sampled campaigns live under their own journal key (and token):
    /// they can never coalesce with an exact run of the same grid, and
    /// exact-mode keys are unchanged from before sampling existed.
    /// The keys (and tokens) campaign journals were written under before
    /// the key suffix moved to `RunConfig::journal_key`: existing daemon
    /// journals must stay resumable.
    #[test]
    fn campaign_keys_match_historical_journals() {
        use charlie::prefetch::HwPrefetchConfig;
        let cells = vec![Experiment::paper(Workload::Water, Strategy::Pref, 8)];
        let base = RunConfig { procs: 2, refs_per_proc: 600, seed: 3, ..RunConfig::default() };
        let golden = [
            (base, "serve/p2/r600/s0x3/g396d90b792dd07a5", "c3997d25f64171a61"),
            (
                RunConfig { hw_prefetch: HwPrefetchConfig::stride(2, 4), ..base },
                "serve/p2/r600/s0x3/hw=stride:2:4/g396d90b792dd07a5",
                "cc0299558bd54c71d",
            ),
            (
                RunConfig { protocol: Protocol::Dragon, ..base },
                "serve/p2/r600/s0x3/proto=dragon/g396d90b792dd07a5",
                "c7af9221f787a0eb8",
            ),
            (
                RunConfig { sampling: Some(charlie::SamplingConfig::smarts()), ..base },
                "serve/p2/r600/s0x3/smp=smarts:4096:37:2:0:0:8/g396d90b792dd07a5",
                "c1de9715019b89ab2",
            ),
            (
                RunConfig {
                    hw_prefetch: HwPrefetchConfig::markov(2),
                    protocol: Protocol::Moesi,
                    sampling: Some(charlie::SamplingConfig::simpoint()),
                    ..base
                },
                "serve/p2/r600/s0x3/hw=markov:2:0/proto=moesi/smp=simpoint:4096:0:1:8:24301:0\
                 /g396d90b792dd07a5",
                "ccd8f86a607f7a944",
            ),
        ];
        for (cfg, key, token) in golden {
            assert_eq!(campaign_key(&cfg, &cells), (key.to_owned(), token.to_owned()));
        }
        let paper = RunConfig { procs: 8, refs_per_proc: 160_000, seed: 0xC0FFEE, ..base };
        let (key, token) = campaign_key(&paper, &experiments::full_grid());
        assert_eq!(key, "serve/p8/r160000/s0xc0ffee/ga14f08d5a83a1615");
        assert_eq!(token, "cadcf32d6b03a78f5");
    }

    #[test]
    fn campaign_key_separates_sampled_from_exact() {
        let cells = vec![Experiment::paper(Workload::Water, Strategy::Pref, 8)];
        let exact = tiny_cfg();
        let sampled = RunConfig { sampling: Some(charlie::SamplingConfig::smarts()), ..exact };
        let (key_exact, tok_exact) = campaign_key(&exact, &cells);
        let (key_smp, tok_smp) = campaign_key(&sampled, &cells);
        assert!(!key_exact.contains("/smp="), "exact keys are unchanged");
        assert!(key_smp.contains("/smp=smarts:4096:37:2:0:0:8"), "{key_smp}");
        assert_ne!(tok_exact, tok_smp);
    }

    /// An in-process daemon on port 0 over a fresh state dir named `name`,
    /// plus the thread running its accept loop.
    fn start_server(name: &str) -> (Arc<Server>, String, std::thread::JoinHandle<()>, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "charlie-serve-{name}-{}-{:x}",
            std::process::id(),
            RetryPolicy::salt(name)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue: 4,
            deadline_ms: 0,
            cell_budget: 4096,
            jobs: 2,
            state_dir: dir.clone(),
        };
        let server = Arc::new(Server::bind(cfg).unwrap());
        let addr = server.local_addr().unwrap().to_string();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run().unwrap())
        };
        (server, addr, runner, dir)
    }

    fn tiny_request(cells: Vec<Experiment>) -> client::SubmitRequest {
        client::SubmitRequest {
            grid: client::Grid::Cells(cells),
            procs: Some(2),
            refs: Some(600),
            seed: None,
            deadline_ms: None,
            hw_prefetch: None,
            protocol: None,
            sampling: None,
        }
    }

    fn cells_of(frames: &[client::Frame]) -> Vec<RunSummary> {
        frames
            .iter()
            .filter_map(|f| match f {
                client::Frame::Cell(sum) => Some(sum.clone()),
                _ => None,
            })
            .collect()
    }

    /// `(cache.hits, cache.misses, cells.executed)` from the stats reply.
    fn memo_counters(addr: &str) -> (u64, u64, u64) {
        let v = wire::parse(&client::stats(addr).unwrap()).unwrap();
        let num = |section: &str, field: &str| {
            v.field(section).unwrap().field(field).unwrap().num().unwrap()
        };
        (num("cache", "hits"), num("cache", "misses"), num("cells", "executed"))
    }

    /// The accept loop wakes on a connection instead of sleeping between
    /// polls: back-to-back pings cost no poll interval each, and a drain
    /// with no client connected ends `run` within one poll timeout.
    #[test]
    fn idle_daemon_accepts_and_drains_promptly() {
        let (server, addr, runner, dir) = start_server("accept");
        const PINGS: u32 = 100;
        let pings = Instant::now();
        for _ in 0..PINGS {
            client::ping(&addr).unwrap();
        }
        let pings = pings.elapsed();
        // A loop that sleeps a poll interval per connection takes about
        // PINGS × ACCEPT_POLL; half of that leaves room for a loaded host.
        assert!(pings < PINGS * ACCEPT_POLL / 2, "{PINGS} pings took {pings:?}");

        let drain = Instant::now();
        server.request_drain();
        runner.join().unwrap();
        let drain = drain.elapsed();
        assert!(drain < Duration::from_secs(1), "drain took {drain:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A campaign's journal is its own memo: resubmitting a completed
    /// campaign larger than the shared cache re-simulates nothing and
    /// counts every cell as a hit, while a different campaign sharing cells
    /// with a recent one still hits on them through the shared cache.
    #[test]
    fn resubmit_beyond_cache_cap_replays_its_journal() {
        let (_server, addr, runner, dir) = start_server("journal-memo");
        // Distinct tiny cells: every legal transfer latency under each
        // strategy, on both layouts, cut just past the cache's capacity.
        let big: Vec<Experiment> = Strategy::ALL
            .iter()
            .flat_map(|&st| BusConfig::TRANSFER_RANGE.map(move |t| (st, t)))
            .flat_map(|(st, t)| {
                let exp = Experiment::paper(Workload::Water, st, t);
                [exp, exp.restructured()]
            })
            .take(MEMO_CACHE_CAP + 40)
            .collect();
        let first = cells_of(&client::submit(&addr, &tiny_request(big.clone())).unwrap());
        assert_eq!(first.len(), big.len());
        let (hits, misses, executed) = memo_counters(&addr);
        assert_eq!((misses, executed), (big.len() as u64, big.len() as u64));

        let again = cells_of(&client::submit(&addr, &tiny_request(big.clone())).unwrap());
        assert_eq!(again, first, "the resubmit replays identical summaries");
        assert_eq!(
            memo_counters(&addr),
            (hits + big.len() as u64, misses, executed),
            "a resubmit is all hits, no misses, nothing executed"
        );
        let v = wire::parse(&client::stats(&addr).unwrap()).unwrap();
        let entries = v.field("cache").unwrap().field("entries").unwrap().num().unwrap();
        assert!(entries <= MEMO_CACHE_CAP as u64, "{entries} cached cells");

        // Cross-campaign reuse: a new grid sharing two cells with a recent
        // campaign simulates only its third.
        let recent = vec![
            Experiment::paper(Workload::Mp3d, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Mp3d, Strategy::Pref, 8),
        ];
        client::submit(&addr, &tiny_request(recent.clone())).unwrap();
        let (hits, misses, executed) = memo_counters(&addr);
        let mut overlap = recent;
        overlap.push(Experiment::paper(Workload::Mp3d, Strategy::Pws, 8));
        let frames = client::submit(&addr, &tiny_request(overlap)).unwrap();
        assert_eq!(cells_of(&frames).len(), 3);
        assert_eq!(memo_counters(&addr), (hits + 2, misses + 1, executed + 1));

        client::shutdown(&addr).unwrap();
        runner.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Full in-process round trip: bind on port 0, submit a two-cell
    /// campaign twice, verify identical summaries and that the second pass
    /// is all cache hits; then drain.
    #[test]
    fn end_to_end_submit_and_coalesce() {
        let (server, addr, runner, dir) = start_server("e2e");
        let cells = vec![
            Experiment::paper(Workload::Water, Strategy::NoPrefetch, 8),
            Experiment::paper(Workload::Water, Strategy::Pref, 8),
        ];
        let req = tiny_request(cells);
        let first = client::submit(&addr, &req).unwrap();
        let second = client::submit(&addr, &req).unwrap();
        let (a, b) = (cells_of(&first), cells_of(&second));
        assert_eq!(a.len(), 2);
        assert_eq!(a, b, "second submit replays identical summaries");
        assert!(matches!(first[0], client::Frame::Opened { restored: 0, .. }));
        assert!(first.iter().any(|f| matches!(f, client::Frame::Done { .. })));

        let stats = client::stats(&addr).unwrap();
        let v = wire::parse(&stats).unwrap();
        let cache = v.field("cache").unwrap();
        assert_eq!(cache.field("misses").unwrap().num().unwrap(), 2);
        assert!(cache.field("hits").unwrap().num().unwrap() >= 2, "second pass hits");

        // Completed campaigns release their registry entry (and journal
        // fd); the lease drops just after the client sees `done`, so poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.state.registry.lock().unwrap().is_empty() {
            assert!(
                Instant::now() < deadline,
                "completed campaign must be evicted from the registry"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        client::shutdown(&addr).unwrap();
        runner.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
