//! `charlie serve` (the daemon and its control plane) and `charlie submit`
//! (a campaign client that renders daemon-streamed cells exactly like the
//! local batch commands would).
//!
//! `submit --grid paper` reproduces the stdout of `charlie experiments all`
//! byte-for-byte, and `submit --workload W` that of `charlie sweep`:
//! the daemon streams journal-format summaries, the client restores them
//! into a [`Lab`] memo, and the exhibits render from that memo — the same
//! code path as a local run, fed from the wire instead of the simulator.

use crate::args::{Args, ArgsError};
use charlie::bus::BusConfig;
use charlie::prefetch::{HwPrefetchConfig, Strategy};
use charlie::workloads::Layout;
use charlie::{experiments as exhibits, Experiment, Lab, RunConfig};
use charlie_serve::{client, worker, ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;

fn addr_from(args: &Args, cfg: &ServeConfig) -> String {
    args.get("addr").map(str::to_owned).unwrap_or_else(|| cfg.addr.clone())
}

/// `charlie serve`.
pub fn serve<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "addr", "queue", "deadline-ms", "jobs", "state-dir", "stats", "ping", "shutdown",
        "worker", "worker-id", "lease-ms", "poll-ms", "exit-when-idle",
    ])?;
    let mut cfg = ServeConfig::from_env();
    cfg.addr = addr_from(args, &cfg);
    cfg.queue = args.get_or("queue", cfg.queue)?;
    cfg.deadline_ms = args.get_or("deadline-ms", cfg.deadline_ms)?;
    cfg.jobs = args.get_or("jobs", cfg.jobs)?;
    if let Some(dir) = args.get("state-dir") {
        cfg.state_dir = dir.into();
    }

    // Offline fleet health: with an explicit --state-dir, --stats reads
    // the health files and lease tables directly — no daemon required, so
    // a dead fleet is still observable.
    if args.switch("stats") && args.get("state-dir").is_some() {
        let section = worker::render_workers_section(&cfg.state_dir)
            .unwrap_or_else(|| "{\"total\":0,\"live\":0,\"detail\":[]}".to_owned());
        let _ = writeln!(out, "{{\"workers\":{section}}}");
        return Ok(());
    }

    // Peer worker mode: no socket, no daemon — claim cells of any
    // campaign manifest in the state dir through fsync'd journal leases.
    if args.switch("worker") {
        let mut wcfg = worker::WorkerConfig::new(cfg.state_dir.clone());
        if let Some(id) = args.get("worker-id") {
            wcfg.id = id.to_owned();
        }
        wcfg.lease_ms = args.get_or("lease-ms", wcfg.lease_ms)?;
        wcfg.poll_ms = args.get_or("poll-ms", wcfg.poll_ms)?;
        if cfg.jobs > 0 {
            wcfg.jobs = cfg.jobs;
        }
        wcfg.exit_when_idle = args.switch("exit-when-idle");
        if wcfg.lease_ms == 0 {
            return Err(ArgsError("--lease-ms must be at least 1".into()));
        }
        let _ = writeln!(out, "worker {} on {}", wcfg.id, wcfg.state_dir.display());
        let _ = out.flush();
        let report = worker::run_worker(&wcfg).map_err(|e| ArgsError(e.to_string()))?;
        let _ = writeln!(
            out,
            "worker {}: claimed {} (reclaimed {}), completed {}, fenced {}{}",
            wcfg.id,
            report.claimed,
            report.reclaimed,
            report.completed,
            report.fenced,
            if report.drained { "; drained" } else { "" },
        );
        return Ok(());
    }

    // Control-plane queries against a running daemon.
    if args.switch("stats") {
        let reply = client::stats(&cfg.addr).map_err(|e| ArgsError(e.to_string()))?;
        let _ = writeln!(out, "{reply}");
        return Ok(());
    }
    if args.switch("ping") {
        let reply = client::ping(&cfg.addr).map_err(|e| ArgsError(e.to_string()))?;
        let _ = writeln!(out, "{reply}");
        return Ok(());
    }
    if args.switch("shutdown") {
        let reply = client::shutdown(&cfg.addr).map_err(|e| ArgsError(e.to_string()))?;
        let _ = writeln!(out, "{reply}");
        return Ok(());
    }

    if cfg.queue == 0 {
        return Err(ArgsError("--queue must be at least 1".into()));
    }
    let server = Server::bind(cfg).map_err(|e| ArgsError(e.to_string()))?;
    let addr = server.local_addr().map_err(|e| ArgsError(e.to_string()))?;
    // Announce the resolved address (port 0 picks a free one) before
    // blocking, so wrappers can discover where to connect.
    let _ = writeln!(out, "listening on {addr}");
    let _ = out.flush();
    server.run().map_err(|e| ArgsError(e.to_string()))?;
    let _ = writeln!(out, "drained; exiting");
    Ok(())
}

/// The `charlie sweep` grid for one workload (every strategy across the
/// paper's latency sweep, restructured when the layout is padded).
fn sweep_grid(workload: charlie::Workload, layout: Layout) -> Vec<Experiment> {
    Strategy::ALL
        .into_iter()
        .flat_map(|s| {
            BusConfig::PAPER_SWEEP.into_iter().map(move |lat| {
                let exp = Experiment::paper(workload, s, lat);
                if layout == Layout::Padded {
                    exp.restructured()
                } else {
                    exp
                }
            })
        })
        .collect()
}

/// `charlie submit`.
pub fn submit<W: Write>(args: &Args, out: &mut W) -> Result<(), ArgsError> {
    args.expect_known(&[
        "addr", "grid", "workload", "layout", "procs", "refs", "seed", "deadline-ms",
        "hw-prefetch", "protocol", "json", "workers", "state-dir", "lease-ms", "sample-mode",
        "sample-window", "sample-period", "sample-warm", "sample-k", "sample-seed", "sample-cold",
    ])?;
    let addr = addr_from(args, &ServeConfig::from_env());

    // Resolve every knob client-side with the daemon's own defaults and
    // send them explicitly: the rendered header and the executed cells
    // must agree even when the two processes see different environments.
    let defaults = RunConfig::default();
    let procs = args.get_or("procs", defaults.procs)?;
    let refs = args.get_or("refs", defaults.refs_per_proc)?;
    let seed = args.get_or("seed", defaults.seed)?;
    let hw_prefetch = match args.get("hw-prefetch") {
        None => None,
        Some(spec) => {
            let hw = HwPrefetchConfig::parse(spec).map_err(ArgsError)?;
            hw.is_enabled().then_some(hw)
        }
    };
    let protocol = match args.get("protocol") {
        None => None,
        Some(spec) => {
            let p = charlie::Protocol::parse(&spec.to_ascii_lowercase()).ok_or_else(|| {
                ArgsError(format!("unknown protocol {spec:?} ({})", charlie::Protocol::CHOICES))
            })?;
            (p != charlie::Protocol::WriteInvalidate).then_some(p)
        }
    };
    let deadline_ms = match args.get("deadline-ms") {
        None => None,
        Some(v) => {
            Some(v.parse().map_err(|_| ArgsError(format!("--deadline-ms: cannot parse {v:?}")))?)
        }
    };
    let sampling = crate::commands::sampling_from_args(args)?;

    let layout = match args.get("layout") {
        None | Some("interleaved") | Some("original") => Layout::Interleaved,
        Some("padded") | Some("restructured") => Layout::Padded,
        Some(other) => {
            return Err(ArgsError(format!("unknown layout {other:?} (interleaved, padded)")))
        }
    };
    let (grid, workload) = match (args.get("grid"), args.get("workload")) {
        (Some("paper"), None) => (client::Grid::Paper, None),
        (Some(other), None) => {
            return Err(ArgsError(format!("unknown grid {other:?} (expected paper)")))
        }
        (None, Some(name)) => {
            let workload = charlie::Workload::EXTENDED
                .into_iter()
                .find(|w| w.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| ArgsError(format!("unknown workload {name:?}")))?;
            (client::Grid::Cells(sweep_grid(workload, layout)), Some(workload))
        }
        _ => {
            return Err(ArgsError(
                "exactly one of --grid paper or --workload NAME is required".into(),
            ))
        }
    };

    let request = client::SubmitRequest {
        grid,
        procs: Some(procs),
        refs: Some(refs),
        seed: Some(seed),
        deadline_ms,
        hw_prefetch,
        protocol,
        sampling,
    };

    let mut lab = Lab::new(RunConfig {
        procs,
        refs_per_proc: refs,
        seed,
        hw_prefetch: hw_prefetch.unwrap_or(HwPrefetchConfig::OFF),
        protocol: protocol.unwrap_or(charlie::Protocol::WriteInvalidate),
        sampling,
        ..RunConfig::default()
    });

    // Fleet mode: no daemon — publish a manifest into the shared state
    // dir, spawn (or just join) lease-claiming workers, and render from
    // the shared journal once every cell is published.
    if let Some(n) = args.get("workers") {
        let n: usize =
            n.parse().map_err(|_| ArgsError(format!("--workers: cannot parse {n:?}")))?;
        let state_dir: PathBuf =
            args.get("state-dir").unwrap_or("charlie-serve-state").into();
        let lease_ms: u64 = args.get_or("lease-ms", 3000)?;
        return submit_fleet(n, &state_dir, lease_ms, &request, lab, workload, layout, args, out);
    }

    let mut campaign = String::new();
    let mut restored = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut done = false;

    let frames = client::submit(&addr, &request).map_err(|e| ArgsError(e.to_string()))?;
    for frame in frames {
        match frame {
            client::Frame::Opened { campaign: token, restored: r, .. } => {
                campaign = token;
                restored = r;
            }
            client::Frame::Cell(summary) => lab.restore(summary),
            client::Frame::CellError { experiment, error } => {
                let what = experiment.map_or_else(|| "<unknown cell>".to_owned(), |e| e.to_string());
                failures.push(format!("{what}: {error}"));
            }
            client::Frame::Done { cells, completed, failed, .. } => {
                eprintln!(
                    "campaign {campaign}: {completed}/{cells} cells \
                     ({restored} restored, {failed} failed)"
                );
                done = true;
            }
            client::Frame::Saturated { retry_after_ms } => {
                return Err(ArgsError(format!(
                    "daemon saturated; retry in {retry_after_ms}ms"
                )));
            }
            client::Frame::Draining { campaign, completed, remaining } => {
                return Err(ArgsError(format!(
                    "daemon draining after {completed} cell(s) ({remaining} journaled for \
                     later); resubmit after restart to resume campaign {campaign}"
                )));
            }
            client::Frame::DeadlineExceeded { limit_ms, completed, remaining } => {
                return Err(ArgsError(format!(
                    "wall-clock limit of {limit_ms}ms exceeded: {completed} cell(s) \
                     completed, {remaining} remaining (they finish into the daemon cache)"
                )));
            }
            client::Frame::Error { kind, detail } => {
                return Err(ArgsError(format!("daemon rejected request ({kind}): {detail}")));
            }
        }
    }
    if !done {
        return Err(ArgsError(format!(
            "connection to {addr} ended before the campaign finished"
        )));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("cell failed: {f}");
        }
        return Err(ArgsError(format!(
            "{} campaign cell(s) failed; see stderr for details",
            failures.len()
        )));
    }

    // Render exactly what the local commands would have printed: the memo
    // is fully populated, so the exhibits below are pure lookups.
    match workload {
        None => {
            let _ = write!(out, "{}", exhibits::paper_grid(&mut lab));
        }
        Some(w) => render_sweep(&mut lab, w, layout, args.switch("json"), out),
    }
    Ok(())
}

/// `submit --workers N`: spawn-and-join over a shared state dir. With
/// `N == 0`, join-only — the manifest is published and externally started
/// `serve --worker` processes (possibly on other hosts sharing the
/// directory) drive it. Either way the joiner owns campaign end-of-life:
/// it collects the summaries, compacts the journal, and removes the
/// manifest once the fleet has quiesced.
#[allow(clippy::too_many_arguments)]
fn submit_fleet<W: Write>(
    workers: usize,
    state_dir: &std::path::Path,
    lease_ms: u64,
    request: &client::SubmitRequest,
    mut lab: Lab,
    workload: Option<charlie::Workload>,
    layout: Layout,
    args: &Args,
    out: &mut W,
) -> Result<(), ArgsError> {
    let fail = |e: std::io::Error| ArgsError(e.to_string());
    let m = worker::write_manifest(state_dir, &request.encode()).map_err(fail)?;
    let exe = std::env::current_exe().map_err(fail)?;
    let mut children = Vec::new();
    for i in 0..workers {
        let child = std::process::Command::new(&exe)
            .arg("serve")
            .arg("--worker")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--worker-id")
            .arg(format!("w{}-{}", std::process::id(), i + 1))
            .arg("--lease-ms")
            .arg(lease_ms.to_string())
            .arg("--exit-when-idle")
            // The fleet's stdout stays quiet: this process renders the
            // campaign; worker banners would corrupt byte-identical output.
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(fail)?;
        children.push(child);
    }

    // Poll progress through one tail: each poll reads only new bytes.
    let mut tail = m.tail();
    let mut progress = || tail.refresh().map(|t| t.published()).map_err(fail);
    let total = m.cells.len();
    let mut published = progress()?;
    while published < total {
        std::thread::sleep(std::time::Duration::from_millis(100));
        published = progress()?;
        let mut alive = 0;
        for child in children.iter_mut() {
            if matches!(child.try_wait(), Ok(None)) {
                alive += 1;
            }
        }
        if workers > 0 && alive == 0 {
            // Workers may have published the final cell on their way out.
            published = progress()?;
            if published == total {
                break;
            }
            return Err(ArgsError(format!(
                "all {workers} workers exited with {published}/{total} cells published \
                 (campaign {} remains resumable)",
                m.token
            )));
        }
    }

    let summaries = worker::collect(&m).map_err(fail)?;
    for (exp, summary) in m.cells.iter().zip(summaries) {
        match summary {
            Some(s) => lab.restore(s),
            None => return Err(ArgsError(format!("cell {exp} missing after completion"))),
        }
    }
    // Quiesce before compacting: idle workers exit on their own once the
    // grid is published; anything wedged is killed rather than left to
    // race the compaction rename.
    let patience = std::time::Instant::now();
    for mut child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if patience.elapsed() < std::time::Duration::from_secs(10) => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
    worker::finalize(&m).map_err(fail)?;
    eprintln!("campaign {}: {total}/{total} cells (fleet of {workers})", m.token);

    match workload {
        None => {
            let _ = write!(out, "{}", exhibits::paper_grid(&mut lab));
        }
        Some(w) => render_sweep(&mut lab, w, layout, args.switch("json"), out),
    }
    Ok(())
}

/// The `charlie sweep` stdout, byte-for-byte.
fn render_sweep<W: Write>(
    lab: &mut Lab,
    workload: charlie::Workload,
    layout: Layout,
    json: bool,
    out: &mut W,
) {
    if json {
        let mut rows = Vec::new();
        for s in Strategy::PREFETCHING {
            for lat in BusConfig::PAPER_SWEEP {
                let mut exp = Experiment::paper(workload, s, lat);
                if layout == Layout::Padded {
                    exp = exp.restructured();
                }
                let rel = lab.relative_time(exp);
                rows.push(format!(
                    "{{\"strategy\":\"{}\",\"transfer\":{lat},\"relative_time\":{rel:.6}}}",
                    s.name()
                ));
            }
        }
        let _ = writeln!(out, "[{}]", rows.join(","));
    } else {
        let table = exhibits::figure2_for(lab, workload);
        let _ = writeln!(out, "{table}");
    }
}
