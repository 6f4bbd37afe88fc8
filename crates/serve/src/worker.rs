//! Lease-based multi-worker campaigns: N peer processes shard one grid.
//!
//! There is no coordinator. Workers rendezvous on a shared `--state-dir`:
//! `charlie submit --workers N` writes a **manifest** (`<token>.manifest`,
//! the submit request verbatim) next to the campaign journal
//! (`<token>.ckpt`), and every `charlie serve --worker` polling that
//! directory claims cells by appending CRC-framed, fsync'd lease records
//! to the journal itself — the same file, the same framing, and the same
//! first-wins read rules a single daemon already uses, so a campaign can
//! be driven by one daemon today and a fleet tomorrow.
//!
//! ## The claim protocol
//!
//! 1. **Scan** the journal: published cells, plus a lease table mapping
//!    each unpublished cell to its newest generation, holder, and renewed
//!    deadline. Every scan is a [`SharedTail::refresh`] of the worker's one
//!    tail of the campaign, which reads only the bytes appended since the
//!    previous scan — so coordination I/O grows with the journal, not with
//!    cells × journal.
//! 2. **Pick** an unpublished cell that is unleased or whose deadline has
//!    passed, and **append** a claim (`gen = newest + 1`, deadline
//!    `now + lease_ms`), fsync'd — a claim that has not reached disk does
//!    not exist.
//! 3. **Verify** by scanning again: concurrent claimants can both append the
//!    same generation, and the winner is the *first* record in file order
//!    (O_APPEND makes file order a total order). Losers walk away and
//!    pick another cell; nothing blocks.
//! 4. **Run** the cell while a heartbeat thread appends renewals every
//!    `lease_ms / 3`. A worker that dies (SIGKILL, wedge, frozen writer)
//!    stops renewing; once the deadline passes any peer reclaims the cell
//!    at the next generation.
//! 5. **Publish** behind a fencing check: scan again, and drop the result if
//!    the cell was published meanwhile or its newest generation exceeds
//!    ours (we were presumed dead and superseded — a zombie's late result
//!    is refused). Even the residual race — two fencing checks passing
//!    before either append lands — only duplicates a *byte-identical*
//!    deterministic summary, and every reader keeps the first occurrence,
//!    so publication stays exactly-once per cell.
//!
//! Failure is modeled as worker death, never as protocol repair: a lease
//! or journal append that errors (including a chaos-frozen writer) kills
//! the worker, its heartbeats stop, and the fleet reclaims its cells.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use charlie::chaos;
use charlie::checkpoint::{
    compact_shared, encode_lease, encode_summary, ensure_shared, frame_line, scan_shared,
    LeaseEvent, LeaseRecord, LeaseTable, SharedAppender, SharedTail,
};
use charlie::retry::RetryPolicy;
use charlie::wire;
use charlie::{execute_cell, Experiment, RunConfig, RunError, RunSummary};

use crate::{campaign_key, cell_config, decode_submit, install_sigterm_handler, SIGTERM_DRAIN};

/// One worker process (or in-process worker, in tests).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The rendezvous directory: manifests, journals, health, receipts.
    pub state_dir: PathBuf,
    /// Worker id, unique within the fleet (default `w<pid>`); appears in
    /// lease records, health files, and draining receipts.
    pub id: String,
    /// Lease duration in milliseconds: how long a silent worker keeps its
    /// cells before peers may reclaim them. Heartbeats renew at a third of
    /// this, so one missed beat never costs a live worker its lease.
    pub lease_ms: u64,
    /// Idle poll interval in milliseconds.
    pub poll_ms: u64,
    /// Concurrent claim threads within this worker.
    pub jobs: usize,
    /// Exit once every discovered campaign is fully published and no
    /// manifests remain (the spawn-and-join mode); a service worker keeps
    /// polling for new manifests instead.
    pub exit_when_idle: bool,
    /// Test hook simulating SIGKILL at the adversarial boundary: die —
    /// heartbeats and all — immediately after the Nth claim lands and
    /// verifies, leaving a durable claim that will never publish.
    pub die_after_claims: Option<u64>,
}

impl WorkerConfig {
    /// Defaults for a worker over `state_dir`.
    pub fn new(state_dir: impl Into<PathBuf>) -> WorkerConfig {
        WorkerConfig {
            state_dir: state_dir.into(),
            id: format!("w{}", std::process::id()),
            lease_ms: 3000,
            poll_ms: 100,
            jobs: 1,
            exit_when_idle: false,
            die_after_claims: None,
        }
    }
}

/// What one worker did before exiting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Claims that landed and verified as won (includes reclaims).
    pub claimed: u64,
    /// Cells this worker published.
    pub completed: u64,
    /// Claims that took over an expired peer lease.
    pub reclaimed: u64,
    /// Results dropped at the fencing check (superseded or already
    /// published by a peer).
    pub fenced: u64,
    /// Journal scans (tail refreshes) made by the claim loops.
    pub scans: u64,
    /// Journal bytes those scans read.
    pub scan_bytes: u64,
    /// Exited through a SIGTERM drain (receipt written).
    pub drained: bool,
}

/// A campaign as the fleet sees it: the decoded manifest plus the derived
/// identity that names its journal.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Resumable token (`c…`), also the journal/manifest file stem.
    pub token: String,
    /// Journal config key (refused on mismatch when joining).
    pub key: String,
    /// Per-cell config (deadline-independent, like the daemon's).
    pub cell_cfg: RunConfig,
    /// The grid, in request order; lease records index into this.
    pub cells: Vec<Experiment>,
    /// The shared campaign journal.
    pub journal: PathBuf,
    /// The manifest file itself.
    pub path: PathBuf,
}

impl Manifest {
    /// A fresh incremental reader of the campaign journal.
    pub fn tail(&self) -> SharedTail {
        SharedTail::new(&self.journal, &self.key, &self.cells)
    }
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

fn io_err(path: &Path, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
}

/// Decodes a manifest file (one submit-request line) into the campaign it
/// names. The token is derived from the request, exactly as the daemon
/// derives it — the filename is just a rendezvous convention.
pub fn load_manifest(path: &Path) -> io::Result<Manifest> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let line = text.lines().find(|l| !l.trim().is_empty()).ok_or_else(|| io_err(path, "empty manifest"))?;
    let v = wire::parse(line.trim()).map_err(|e| io_err(path, e))?;
    let spec = decode_submit(0, &v).map_err(|e| io_err(path, e))?;
    let cell_cfg = cell_config(&spec.cfg);
    let (key, token) = campaign_key(&cell_cfg, &spec.cells);
    let journal = path.with_file_name(format!("{token}.ckpt"));
    Ok(Manifest { token, key, cell_cfg, cells: spec.cells, journal, path: path.to_path_buf() })
}

/// Publishes a campaign into `state_dir` for workers to find: creates the
/// journal with its durable header, then the manifest (atomically — a
/// worker never sees a torn manifest). `request_line` is the submit
/// request exactly as [`crate::client::SubmitRequest::encode`] renders it,
/// so daemon submissions and fleet submissions resolve identical tokens.
pub fn write_manifest(state_dir: &Path, request_line: &str) -> io::Result<Manifest> {
    std::fs::create_dir_all(state_dir)
        .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", state_dir.display())))?;
    let v = wire::parse(request_line.trim())
        .map_err(|e| io_err(state_dir, format!("submit request: {e}")))?;
    let spec = decode_submit(0, &v).map_err(|e| io_err(state_dir, format!("submit request: {e}")))?;
    let cell_cfg = cell_config(&spec.cfg);
    let (key, token) = campaign_key(&cell_cfg, &spec.cells);
    let journal = state_dir.join(format!("{token}.ckpt"));
    ensure_shared(&journal, &key)?;
    let path = state_dir.join(format!("{token}.manifest"));
    let mut body = String::with_capacity(request_line.len() + 1);
    body.push_str(request_line.trim());
    body.push('\n');
    chaos::write_atomic(&path, body.as_bytes(), "manifest")?;
    Ok(Manifest { token, key, cell_cfg, cells: spec.cells, journal, path })
}

/// The campaign's summaries in request order; `None` holes for cells not
/// yet published.
pub fn collect(m: &Manifest) -> io::Result<Vec<Option<RunSummary>>> {
    let scan = scan_shared(&m.journal, Some(&m.key))?;
    let by_exp: HashMap<Experiment, &RunSummary> =
        scan.summaries.iter().map(|s| (s.experiment, s)).collect();
    Ok(m.cells.iter().map(|exp| by_exp.get(exp).map(|s| (*s).clone())).collect())
}

/// End-of-campaign cleanup, run by the joiner once the fleet is quiesced:
/// compacts the journal (dropping superseded lease generations and the
/// lease trails of published cells) and removes the manifest so idle
/// workers stop rediscovering the campaign.
pub fn finalize(m: &Manifest) -> io::Result<()> {
    compact_shared(&m.journal, &m.key, &m.cells)?;
    match std::fs::remove_file(&m.path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io::Error::new(e.kind(), format!("{}: {e}", m.path.display()))),
    }
}

/// Per-campaign state shared by a worker's claim threads and its
/// heartbeat thread. The appenders are persistent for the campaign so a
/// one-shot chaos fault (`lease:torn@k`) fires once per process instead
/// of re-arming on every append.
struct Fleet<'a> {
    cfg: &'a WorkerConfig,
    m: &'a Manifest,
    /// The worker's one tail of the campaign journal, shared by every scan.
    tail: &'a Mutex<SharedTail>,
    lease_app: Mutex<SharedAppender>,
    out_app: Mutex<SharedAppender>,
    /// `(cell, gen)` leases this worker currently holds (being simulated).
    active: Mutex<Vec<(u64, u64)>>,
    claimed: AtomicU64,
    completed: AtomicU64,
    reclaimed: AtomicU64,
    fenced: AtomicU64,
    scans: AtomicU64,
    scan_bytes: AtomicU64,
    /// SIGKILL simulation fired ([`WorkerConfig::die_after_claims`]):
    /// everything stops, including heartbeats.
    dead: AtomicBool,
    /// Campaign fully published; the heartbeat thread may exit.
    done: AtomicBool,
    /// First fatal error out of any thread (a failed append = this worker
    /// is dead; peers will reclaim).
    failed: Mutex<Option<io::Error>>,
}

impl Fleet<'_> {
    fn draining(&self) -> bool {
        SIGTERM_DRAIN.load(Ordering::SeqCst)
    }

    fn stopping(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
            || self.done.load(Ordering::SeqCst)
            || self.failed.lock().unwrap().is_some()
    }

    fn fail(&self, e: io::Error) {
        self.failed.lock().unwrap().get_or_insert(e);
    }

    fn append_lease(&self, rec: &LeaseRecord) -> io::Result<()> {
        self.lease_app.lock().unwrap().append(&frame_line(&encode_lease(rec)))
    }

    /// Scans the journal (refreshes the tail) and answers `query` from the
    /// up-to-date table.
    fn scan<R>(&self, query: impl FnOnce(&LeaseTable) -> R) -> io::Result<R> {
        let mut tail = self.tail.lock().unwrap();
        let before = tail.scan_bytes();
        let answer = query(tail.refresh()?);
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.scan_bytes.fetch_add(tail.scan_bytes() - before, Ordering::Relaxed);
        Ok(answer)
    }

    /// The lifetime counters as they stand.
    fn totals(&self) -> WorkerReport {
        WorkerReport {
            claimed: self.claimed.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            reclaimed: self.reclaimed.load(Ordering::SeqCst),
            fenced: self.fenced.load(Ordering::SeqCst),
            scans: self.scans.load(Ordering::SeqCst),
            scan_bytes: self.scan_bytes.load(Ordering::SeqCst),
            drained: false,
        }
    }

    fn write_health(&self) {
        let _ = write_health(self.cfg, &self.totals());
    }
}

/// One claim thread: scan → pick → claim → verify → run → fence → publish
/// until the campaign is published, the worker is draining, or it died.
fn claim_loop(fleet: &Fleet) {
    let id = fleet.cfg.id.as_str();
    loop {
        if fleet.stopping() || fleet.draining() {
            return;
        }
        let scanned = fleet.scan(|t| {
            let pick =
                t.claimable(now_ms()).map(|cell| (cell, t.lease(cell).map_or(0, |l| l.gen)));
            (t.published() == t.cells(), pick)
        });
        let (complete, pick) = match scanned {
            Ok(scanned) => scanned,
            Err(e) => return fleet.fail(e),
        };
        if complete {
            fleet.done.store(true, Ordering::SeqCst);
            return;
        }
        let Some((cell, prior_gen)) = pick else {
            // Everything unpublished is validly leased (to peers, or to
            // this worker's other threads); wait for publishes or expiry.
            std::thread::sleep(Duration::from_millis(fleet.cfg.poll_ms));
            continue;
        };
        let gen = prior_gen + 1;
        let event = if prior_gen == 0 { LeaseEvent::Claim } else { LeaseEvent::Reclaim };
        let rec = LeaseRecord {
            event,
            cell,
            worker: id.to_owned(),
            gen,
            deadline_ms: now_ms() + fleet.cfg.lease_ms,
        };
        if let Err(e) = fleet.append_lease(&rec) {
            return fleet.fail(e);
        }
        // Verify: first gen-opening record in file order wins the
        // generation. (A torn claim — chaos-injected or a real partial
        // write — simply fails to scan as ours, and we retry.)
        match fleet.scan(|t| t.winner(cell, gen) == Some(id)) {
            Err(e) => return fleet.fail(e),
            Ok(false) => continue, // lost the race; pick another cell
            Ok(true) => {}
        }
        fleet.claimed.fetch_add(1, Ordering::SeqCst);
        if event == LeaseEvent::Reclaim {
            fleet.reclaimed.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(n) = fleet.cfg.die_after_claims {
            if fleet.claimed.load(Ordering::SeqCst) >= n {
                // Simulated SIGKILL at the worst boundary: the claim is
                // durable, the work will never happen, heartbeats stop.
                fleet.dead.store(true, Ordering::SeqCst);
                return;
            }
        }
        fleet.active.lock().unwrap().push((cell, gen));
        fleet.write_health();

        let exp = fleet.m.cells[cell as usize];
        let salt = RetryPolicy::salt(&format!("{exp}"));
        let outcome = RetryPolicy::TRANSIENT_IO
            .run(salt, RunError::is_transient_io, || execute_cell(&fleet.m.cell_cfg, exp));
        fleet.active.lock().unwrap().retain(|&(c, g)| (c, g) != (cell, gen));
        let summary = match outcome {
            Ok(summary) => summary,
            Err(e) => {
                // A deterministic cell failure would fail on every peer
                // too; retrying it around the fleet forever would livelock
                // the campaign. Model it as this worker's death and let
                // the joiner surface whatever the fleet could not finish.
                return fleet.fail(io::Error::other(format!("cell {exp} failed: {e}")));
            }
        };

        // Fencing: publish only while our generation is still the newest
        // and nobody published the cell meanwhile.
        let fenced = fleet
            .scan(|t| t.is_published(cell) || t.lease(cell).is_some_and(|l| l.gen > gen));
        match fenced {
            Err(e) => return fleet.fail(e),
            Ok(true) => {
                fleet.fenced.fetch_add(1, Ordering::SeqCst);
                fleet.write_health();
                continue;
            }
            Ok(false) => {}
        }
        if let Err(e) = fleet.out_app.lock().unwrap().append(&frame_line(&encode_summary(&summary)))
        {
            return fleet.fail(e);
        }
        fleet.completed.fetch_add(1, Ordering::SeqCst);
        fleet.write_health();
    }
}

/// The heartbeat thread: every `lease_ms / 3`, renew every active lease
/// and refresh the health file. Dies with the worker — which is the point:
/// a SIGKILL'd worker's deadlines stop moving.
fn heartbeat_loop(fleet: &Fleet) {
    let beat = Duration::from_millis((fleet.cfg.lease_ms / 3).max(1));
    let tick = Duration::from_millis(fleet.cfg.poll_ms.min(fleet.cfg.lease_ms / 3).max(1));
    let mut last = std::time::Instant::now();
    loop {
        // A draining worker's claim loops stop claiming; once its last
        // in-flight cell is done there is nothing left to renew.
        if fleet.stopping() || (fleet.draining() && fleet.active.lock().unwrap().is_empty()) {
            return;
        }
        std::thread::sleep(tick);
        if last.elapsed() < beat {
            continue;
        }
        last = std::time::Instant::now();
        let held: Vec<(u64, u64)> = fleet.active.lock().unwrap().clone();
        for (cell, gen) in held {
            let rec = LeaseRecord {
                event: LeaseEvent::Renew,
                cell,
                worker: fleet.cfg.id.clone(),
                gen,
                deadline_ms: now_ms() + fleet.cfg.lease_ms,
            };
            if let Err(e) = fleet.append_lease(&rec) {
                return fleet.fail(e);
            }
        }
        fleet.write_health();
    }
}

fn health_path(cfg: &WorkerConfig) -> PathBuf {
    cfg.state_dir.join("workers").join(format!("{}.json", cfg.id))
}

fn write_health(cfg: &WorkerConfig, totals: &WorkerReport) -> io::Result<()> {
    let dir = cfg.state_dir.join("workers");
    std::fs::create_dir_all(&dir)
        .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", dir.display())))?;
    let mut s = String::from("{");
    wire::push_str_field(&mut s, "worker", &cfg.id);
    s.push_str(&format!(
        "\"pid\":{},\"draining\":{},\"last_heartbeat_ms\":{},\"lease_ms\":{},\
         \"claimed\":{},\"completed\":{},\"reclaimed\":{},\"fenced\":{},\
         \"scans\":{},\"scan_bytes\":{}}}",
        std::process::id(),
        u64::from(totals.drained),
        now_ms(),
        cfg.lease_ms,
        totals.claimed,
        totals.completed,
        totals.reclaimed,
        totals.fenced,
        totals.scans,
        totals.scan_bytes,
    ));
    chaos::write_atomic(&health_path(cfg), s.as_bytes(), "health")
}

/// Writes the draining receipt: which peers were alive (fresh heartbeats)
/// when this worker left, so an operator reading `receipts/` can tell a
/// clean handoff from a fleet that died with it.
fn write_receipt(cfg: &WorkerConfig, totals: &WorkerReport) -> io::Result<()> {
    let dir = cfg.state_dir.join("receipts");
    std::fs::create_dir_all(&dir)
        .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", dir.display())))?;
    let mut survivors: Vec<String> = read_health_files(&cfg.state_dir)
        .into_iter()
        .filter(|h| h.worker != cfg.id && now_ms().saturating_sub(h.last_heartbeat_ms) < 2 * h.lease_ms)
        .map(|h| h.worker)
        .collect();
    survivors.sort();
    let mut s = String::from("{");
    wire::push_str_field(&mut s, "worker", &cfg.id);
    s.push_str(&format!(
        "\"drained_at_ms\":{},\"completed\":{},\"survivors\":[",
        now_ms(),
        totals.completed
    ));
    for (i, w) in survivors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(w);
        s.push('"');
    }
    s.push_str("]}");
    chaos::write_atomic(&dir.join(format!("{}.json", cfg.id)), s.as_bytes(), "health")
}

/// Runs a worker until drain, death, or (with
/// [`WorkerConfig::exit_when_idle`]) until no campaign needs it.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    install_sigterm_handler();
    std::fs::create_dir_all(&cfg.state_dir).map_err(|e| {
        io::Error::new(e.kind(), format!("creating {}: {e}", cfg.state_dir.display()))
    })?;
    let mut report = WorkerReport::default();
    let mut tails: HashMap<PathBuf, Mutex<SharedTail>> = HashMap::new();
    write_health(cfg, &report)?;
    loop {
        if SIGTERM_DRAIN.load(Ordering::SeqCst) {
            report.drained = true;
            write_health(cfg, &report)?;
            write_receipt(cfg, &report)?;
            return Ok(report);
        }
        let mut manifests: Vec<PathBuf> = match std::fs::read_dir(&cfg.state_dir) {
            Ok(dir) => dir
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "manifest"))
                .collect(),
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{}: {e}", cfg.state_dir.display()),
                ))
            }
        };
        manifests.sort();
        // One tail per campaign for the worker's lifetime; a campaign
        // whose manifest is gone (finalized) drops its tail.
        tails.retain(|path, _| manifests.contains(path));
        let mut all_done = true;
        for path in &manifests {
            let m = match load_manifest(path) {
                Ok(m) => m,
                // The joiner may remove (or still be renaming) a manifest
                // under us; skip and re-poll rather than dying.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let tail = tails.entry(path.clone()).or_insert_with(|| Mutex::new(m.tail()));
            let (died, complete) = run_campaign(cfg, &m, tail, &mut report)?;
            if died {
                // die_after_claims fired: the worker is "dead" — stop
                // touching the state dir entirely, like a SIGKILL.
                return Ok(report);
            }
            all_done &= complete;
        }
        if cfg.exit_when_idle && all_done {
            write_health(cfg, &report)?;
            return Ok(report);
        }
        write_health(cfg, &report)?;
        std::thread::sleep(Duration::from_millis(cfg.poll_ms));
    }
}

/// Drives one campaign until it is fully published, this worker drains, or
/// it dies. `report` holds the worker's lifetime counters, which the
/// health file shows; they come back updated. Returns (died, campaign
/// complete).
fn run_campaign(
    cfg: &WorkerConfig,
    m: &Manifest,
    tail: &Mutex<SharedTail>,
    report: &mut WorkerReport,
) -> io::Result<(bool, bool)> {
    ensure_shared(&m.journal, &m.key)?;
    let fleet = Fleet {
        cfg,
        m,
        tail,
        lease_app: Mutex::new(SharedAppender::open(&m.journal, "lease")?),
        out_app: Mutex::new(SharedAppender::open(&m.journal, "journal")?),
        active: Mutex::new(Vec::new()),
        claimed: AtomicU64::new(report.claimed),
        completed: AtomicU64::new(report.completed),
        reclaimed: AtomicU64::new(report.reclaimed),
        fenced: AtomicU64::new(report.fenced),
        scans: AtomicU64::new(report.scans),
        scan_bytes: AtomicU64::new(report.scan_bytes),
        dead: AtomicBool::new(false),
        done: AtomicBool::new(false),
        failed: Mutex::new(None),
    };
    // One claim loop runs on this thread: a fresh thread per campaign
    // would take its own allocator arena and keep that memory.
    std::thread::scope(|scope| {
        for _ in 1..cfg.jobs.max(1) {
            scope.spawn(|| claim_loop(&fleet));
        }
        scope.spawn(|| heartbeat_loop(&fleet));
        claim_loop(&fleet);
    });
    if let Some(e) = fleet.failed.lock().unwrap().take() {
        fleet.write_health();
        return Err(e);
    }
    *report = WorkerReport { drained: report.drained, ..fleet.totals() };
    Ok((fleet.dead.load(Ordering::SeqCst), fleet.done.load(Ordering::SeqCst)))
}

/// One parsed `workers/<id>.json` health file.
#[derive(Clone, Debug)]
struct Health {
    worker: String,
    pid: u64,
    draining: bool,
    last_heartbeat_ms: u64,
    lease_ms: u64,
    claimed: u64,
    completed: u64,
    reclaimed: u64,
    fenced: u64,
    scans: u64,
    scan_bytes: u64,
}

fn read_health_files(state_dir: &Path) -> Vec<Health> {
    let dir = state_dir.join("workers");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.filter_map(Result::ok) {
        let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
        let Ok(v) = wire::parse(text.trim()) else { continue };
        let num = |name: &str| v.opt_field(name).and_then(|n| n.num().ok()).unwrap_or(0);
        let Some(worker) = v.opt_field("worker").and_then(|w| w.str().ok()) else { continue };
        out.push(Health {
            worker: worker.to_owned(),
            pid: num("pid"),
            draining: num("draining") != 0,
            last_heartbeat_ms: num("last_heartbeat_ms"),
            lease_ms: num("lease_ms"),
            claimed: num("claimed"),
            completed: num("completed"),
            reclaimed: num("reclaimed"),
            fenced: num("fenced"),
            scans: num("scans"),
            scan_bytes: num("scan_bytes"),
        });
    }
    out.sort_by(|a, b| a.worker.cmp(&b.worker));
    out
}

/// Per-holder live/expired lease counts across every campaign manifest in
/// the state dir (only unpublished cells count — a published cell's stale
/// lease trail is inert until compaction sweeps it).
fn lease_counts(state_dir: &Path) -> HashMap<String, (u64, u64)> {
    let mut counts: HashMap<String, (u64, u64)> = HashMap::new();
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return counts;
    };
    let now = now_ms();
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "manifest") {
            continue;
        }
        let Ok(m) = load_manifest(&path) else { continue };
        let Ok(scan) = scan_shared(&m.journal, Some(&m.key)) else { continue };
        let table = LeaseTable::from_scan(&scan, &m.cells);
        for (_, lease) in table.unpublished_leases() {
            let slot = counts.entry(lease.holder.to_owned()).or_insert((0, 0));
            if now > lease.deadline_ms {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
    }
    counts
}

/// The `workers` section of `serve --stats`: one entry per health file,
/// with heartbeat age, liveness (heartbeat younger than two lease
/// periods), lifetime counters, and current live/expired lease counts.
/// `None` when no worker has ever registered, so a workerless daemon's
/// stats are unchanged.
pub fn render_workers_section(state_dir: &Path) -> Option<String> {
    let health = read_health_files(state_dir);
    if health.is_empty() {
        return None;
    }
    let leases = lease_counts(state_dir);
    let now = now_ms();
    let mut live_total = 0u64;
    let mut detail = String::from("[");
    for (i, h) in health.iter().enumerate() {
        let age = now.saturating_sub(h.last_heartbeat_ms);
        let live = !h.draining && age < 2 * h.lease_ms.max(1);
        live_total += u64::from(live);
        let (lease_live, lease_expired) = leases.get(&h.worker).copied().unwrap_or((0, 0));
        if i > 0 {
            detail.push(',');
        }
        let mut entry = String::from("{");
        wire::push_str_field(&mut entry, "worker", &h.worker);
        entry.push_str(&format!(
            "\"pid\":{},\"live\":{},\"draining\":{},\"heartbeat_age_ms\":{},\
             \"leases_live\":{},\"leases_expired\":{},\
             \"claimed\":{},\"completed\":{},\"reclaimed\":{},\"fenced\":{},\
             \"scans\":{},\"scan_bytes\":{}}}",
            h.pid,
            u64::from(live),
            u64::from(h.draining),
            age,
            lease_live,
            lease_expired,
            h.claimed,
            h.completed,
            h.reclaimed,
            h.fenced,
            h.scans,
            h.scan_bytes,
        ));
        detail.push_str(&entry);
    }
    detail.push(']');
    Some(format!("{{\"total\":{},\"live\":{live_total},\"detail\":{detail}}}", health.len()))
}
