//! `serve_mixed`: one closed-loop client against an in-process loopback
//! daemon (`jobs = 1`). Each submit is a small campaign of tiny cells;
//! about three in four use a fresh seed and miss the memo cache, the rest
//! repeat an earlier campaign and hit it.

use std::path::Path;
use std::time::{Duration, Instant};

use charlie::bus::BusConfig;
use charlie::checkpoint::{encode_summary, frame_line, Journal, JournalOptions};
use charlie::prefetch::Strategy;
use charlie::{Experiment, RunConfig, RunSummary, Workload};
use charlie_serve::client::{self, Frame, Grid, SubmitRequest};
use charlie_serve::{ServeConfig, Server};

use crate::stats::{median, percentile, self_times, Tracer};
use crate::{
    refs, round_seed, set_guards, splitmix64, verify_against_execute_cell, Args, Outcome, RunDir,
    REF_SEED,
};

const PROCS: usize = 8;
const REFS: usize = 2_000;
const CELLS_PER_SUBMIT: usize = 4;
/// Timed submits a run makes at least, so ten lie beyond the p90.
const MIN_SUBMITS: usize = 100;
/// Daemons bound per run; `setup_s` is the fastest bind-to-first-ping.
const SETUPS: usize = 9;

/// The cell config the daemon derives from a request (see [`campaign`]).
pub fn cell_config(seed: u64) -> RunConfig {
    RunConfig {
        procs: PROCS,
        refs_per_proc: REFS,
        seed,
        wall_limit_ms: 0,
        ..RunConfig::default()
    }
}

/// `n` distinct paper-grid cells chosen by `seed`.
fn pick_cells(seed: u64, n: usize) -> Vec<Experiment> {
    let mut cells = Vec::with_capacity(n);
    let mut k = 0u64;
    while cells.len() < n {
        let h = splitmix64(seed ^ splitmix64(k));
        k += 1;
        let exp = Experiment::paper(
            Workload::ALL[(h % 5) as usize],
            Strategy::ALL[((h >> 8) % 5) as usize],
            BusConfig::PAPER_SWEEP[((h >> 16) % 5) as usize],
        );
        if !cells.contains(&exp) {
            cells.push(exp);
        }
    }
    cells
}

fn campaign(seed: u64) -> SubmitRequest {
    SubmitRequest {
        grid: Grid::Cells(pick_cells(seed, CELLS_PER_SUBMIT)),
        procs: Some(PROCS),
        refs: Some(REFS),
        seed: Some(seed),
        ..SubmitRequest::paper()
    }
}

fn cells_of(req: &SubmitRequest) -> &[Experiment] {
    match &req.grid {
        Grid::Cells(cells) => cells,
        Grid::Paper => unreachable!("serve_mixed submits explicit cells"),
    }
}

/// One timed submit.
struct Submit {
    /// Index into the run's campaign list.
    campaign: usize,
    latency_ms: f64,
    admit_ms: f64,
    summaries: Vec<RunSummary>,
    ok: bool,
}

fn submit(addr: &str, req: &SubmitRequest, campaign: usize) -> Submit {
    let t0 = Instant::now();
    let mut admit = None;
    let frames = client::submit_streaming(addr, req, |f| {
        if matches!(f, Frame::Opened { .. }) {
            admit.get_or_insert(t0.elapsed());
        }
    });
    let latency = t0.elapsed();
    let mut summaries = Vec::new();
    let mut done = false;
    for f in frames.iter().flatten() {
        match f {
            Frame::Cell(s) => summaries.push(s.clone()),
            Frame::Done { failed: 0, .. } => done = true,
            _ => {}
        }
    }
    let ok = done && summaries.len() == cells_of(req).len();
    Submit {
        campaign,
        latency_ms: latency.as_secs_f64() * 1e3,
        admit_ms: admit.unwrap_or(latency).as_secs_f64() * 1e3,
        summaries,
        ok,
    }
}

fn memo_counters(addr: &str) -> Result<(u64, u64), String> {
    let text = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    let v = charlie::wire::parse(&text)?;
    let cache = v.field("cache")?;
    Ok((cache.field("hits")?.num()?, cache.field("misses")?.num()?))
}

/// Everything the daemon serves in one run: warm-up, timed closed loop,
/// and the untimed checks.
fn drive(addr: &str, args: &Args, dir: &RunDir, out: &mut Outcome) -> Result<(), String> {
    // Warm-up at the reference seed: three fresh campaigns and one repeat.
    let warm_reqs: Vec<SubmitRequest> = (0..3).map(|k| campaign(REF_SEED + k)).collect();
    let mut warm = Vec::new();
    for (i, req) in warm_reqs.iter().chain([&warm_reqs[0]]).enumerate() {
        let s = submit(addr, req, i);
        out.check(s.ok, || format!("warm-up submit {i} failed"));
        warm.extend(s.summaries);
    }
    out.ref_checksum = crate::checksum(&warm);
    set_guards(out, &warm);
    if args.make_reference {
        return Ok(());
    }

    let budget = if args.trace {
        args.budget() / 2
    } else {
        args.budget()
    };
    let (hits0, misses0) = memo_counters(addr)?;
    let mut campaigns: Vec<SubmitRequest> = Vec::new();
    let mut submits: Vec<Submit> = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while submits.len() < MIN_SUBMITS || start.elapsed() < budget {
        let pick = splitmix64(args.seed ^ splitmix64(i ^ 0x5EED));
        let repeat = !campaigns.is_empty() && pick.is_multiple_of(4);
        let idx = if repeat {
            (pick >> 2) as usize % campaigns.len()
        } else {
            campaigns.push(campaign(round_seed(args.seed, i)));
            campaigns.len() - 1
        };
        i += 1;
        submits.push(submit(addr, &campaigns[idx], idx));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (hits1, misses1) = memo_counters(addr)?;

    out.attempted = submits.len() as u64;
    out.failed = submits.iter().filter(|s| !s.ok).count() as u64;
    let delivered: u64 = submits.iter().flat_map(|s| &s.summaries).map(refs).sum();
    let latency: Vec<f64> = submits.iter().map(|s| s.latency_ms).collect();
    out.set("refs_per_sec", delivered as f64 / elapsed);
    out.set(
        "submit_p50_ms",
        percentile(&latency, 0.5).ok_or("too few submits for p50")?,
    );
    out.set(
        "submit_p90_ms",
        percentile(&latency, 0.9).ok_or("too few submits for p90")?,
    );
    out.set(
        "serve.admit_ms",
        median(&submits.iter().map(|s| s.admit_ms).collect::<Vec<_>>()),
    );
    out.set("serve.memo_hits", (hits1 - hits0) as f64);
    out.set("serve.memo_misses", (misses1 - misses0) as f64);

    // Every streamed summary must equal `execute_cell` for its cell; a
    // repeat must stream exactly what its first submit streamed.
    let mut first: Vec<Option<&Submit>> = vec![None; campaigns.len()];
    let mut checks = Vec::new();
    for s in submits.iter().filter(|s| s.ok) {
        match first[s.campaign] {
            Some(f) => out.check(f.summaries == s.summaries, || {
                format!(
                    "repeat of campaign {} streamed different summaries",
                    s.campaign
                )
            }),
            None => {
                first[s.campaign] = Some(s);
                let cfg = cell_config(campaigns[s.campaign].seed.expect("campaigns carry a seed"));
                let cells = cells_of(&campaigns[s.campaign]);
                checks.extend(
                    cells
                        .iter()
                        .zip(&s.summaries)
                        .map(|(e, got)| (cfg, *e, got)),
                );
            }
        }
    }
    out.mismatches.extend(verify_against_execute_cell(&checks));

    if args.trace {
        traced_replay(&campaigns, &submits, &dir.sub("traced")?, out)?;
    }
    Ok(())
}

/// Replays the timed submits layer by layer, in the order the daemon calls
/// them: the cell chain for every miss, then the wire codec and the
/// journal append for every streamed cell.
fn traced_replay(
    campaigns: &[SubmitRequest],
    submits: &[Submit],
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut overhead_ms = Vec::with_capacity(submits.len());
    let (mut appends, mut bytes, mut codec_calls) = (0u64, 0u64, 0u64);
    let root = out.tracer.enter("round");
    let mut journals: Vec<Option<Journal>> = (0..campaigns.len()).map(|_| None).collect();
    for s in submits.iter().filter(|s| s.ok) {
        let seed = campaigns[s.campaign].seed.expect("campaigns carry a seed");
        let mut chain = Duration::ZERO;
        let fresh = journals[s.campaign].is_none();
        if fresh {
            let path = dir.join(format!("{}.ckpt", s.campaign));
            let (j, _) = Journal::open_with(&path, JournalOptions::default())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            journals[s.campaign] = Some(j);
        }
        let journal = journals[s.campaign].as_mut().expect("opened above");
        for (exp, streamed) in cells_of(&campaigns[s.campaign]).iter().zip(&s.summaries) {
            let summary = if fresh {
                let t = Instant::now();
                let (summary, _) =
                    crate::grid::traced_cell(&cell_config(seed), *exp, &mut out.tracer)?;
                chain += t.elapsed();
                summary
            } else {
                streamed.clone()
            };
            let tr = &mut out.tracer;
            let encoded = tr.time("wire.encode", || encode_summary(&summary));
            let line = format!("{{\"cell\":{encoded}}}");
            let decoded = tr.time("wire.decode", || client::decode_frame(&line));
            codec_calls += 1;
            let same = matches!(&decoded, Ok(Frame::Cell(d)) if d == streamed && *d == summary);
            out.check(same, || {
                format!("traced {exp} (seed {seed}) differs from the daemon's")
            });
            if fresh {
                out.tracer
                    .time("checkpoint.append", || journal.append(&summary));
                appends += 1;
                bytes += frame_line(&encoded).len() as u64;
            }
        }
        overhead_ms.push(s.latency_ms - chain.as_secs_f64() * 1e3);
    }
    out.tracer.exit(root);

    let selfs = self_times(out.tracer.spans());
    let secs = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 * 1e-9;
    let per_call_us = |name: &str, n: u64| secs(name) * 1e6 / n.max(1) as f64;
    out.set("workloads.gen_s", secs("workloads.gen"));
    out.set("trace.validate_s", secs("trace.validate"));
    out.set("prefetch.apply_s", secs("prefetch.apply"));
    out.set("sim.run_s", secs("sim.run"));
    out.set("wire.encode_us", per_call_us("wire.encode", codec_calls));
    out.set("wire.decode_us", per_call_us("wire.decode", codec_calls));
    out.set(
        "checkpoint.append_us",
        per_call_us("checkpoint.append", appends),
    );
    out.set("checkpoint.bytes", bytes as f64 / appends.max(1) as f64);
    out.set("serve.overhead_ms", median(&overhead_ms));
    out.set(
        "trace.overhead_s",
        Tracer::estimated_overhead_s(out.tracer.spans().len()),
    );
    out.set("trace.unattributed_s", secs("round"));
    out.set("trace.rounds", 1.0);
    Ok(())
}

pub fn run(args: &Args, dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue: 8,
            deadline_ms: 0,
            cell_budget: 4096,
            jobs: 1,
            state_dir: dir.sub(&format!("serve-{k}"))?,
        };
        let t0 = Instant::now();
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let result = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.run());
            let mut result = client::ping(&addr)
                .map(|_| ())
                .map_err(|e| format!("ping: {e}"));
            setups.push(t0.elapsed().as_secs_f64());
            if result.is_ok() && k + 1 == SETUPS {
                result = drive(&addr, args, dir, &mut out);
            }
            server.request_drain();
            match daemon.join() {
                Ok(Ok(())) => result,
                Ok(Err(e)) => result.and(Err(format!("daemon: {e}"))),
                Err(_) => result.and(Err("daemon thread panicked".into())),
            }
        });
        result?;
    }
    // Whether the daemon's first accept finds the ping or sleeps through
    // its 25 ms accept poll first is a race between two threads; the
    // fastest of the daemons is the one that did not sleep.
    out.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    Ok(out)
}
