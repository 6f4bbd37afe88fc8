//! Client side of the serve protocol: request encoding, frame decoding,
//! and blocking helpers over one TCP connection per request.
//!
//! The CLI (`charlie submit`, `charlie serve --stats`) and the service
//! tests both speak through this module, so a protocol change breaks them
//! together at compile time instead of silently diverging.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use charlie::checkpoint::decode_summary_value;
use charlie::prefetch::HwPrefetchConfig;
use charlie::wire;
use charlie::{Experiment, Protocol, RunSummary, SamplingConfig};

/// Which cells a submit asks for.
#[derive(Clone, Debug)]
pub enum Grid {
    /// The full paper grid (the daemon expands it; what
    /// `charlie experiments all` simulates).
    Paper,
    /// An explicit cell list, streamed back in this order.
    Cells(Vec<Experiment>),
}

/// One campaign submission.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    pub grid: Grid,
    /// Processors; daemon default when `None`.
    pub procs: Option<usize>,
    /// References per processor; daemon default when `None`.
    pub refs: Option<usize>,
    /// Workload seed; daemon default when `None`.
    pub seed: Option<u64>,
    /// Per-request wall-clock deadline (ms); daemon default when `None`.
    pub deadline_ms: Option<u64>,
    /// Online hardware prefetcher; off when `None`.
    pub hw_prefetch: Option<HwPrefetchConfig>,
    /// Coherence protocol; the daemon default (Illinois) when `None`.
    pub protocol: Option<Protocol>,
    /// Sampled-mode simulation; exact execution when `None`. Part of the
    /// campaign identity: sampled cells journal their CI and never share a
    /// cache entry or journal with an exact run of the same grid.
    pub sampling: Option<SamplingConfig>,
}

impl SubmitRequest {
    /// A paper-grid submission with every knob on the daemon default.
    pub fn paper() -> SubmitRequest {
        SubmitRequest {
            grid: Grid::Paper,
            procs: None,
            refs: None,
            seed: None,
            deadline_ms: None,
            hw_prefetch: None,
            protocol: None,
            sampling: None,
        }
    }

    /// The request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = String::from("{\"cmd\":\"submit\",");
        match &self.grid {
            Grid::Paper => wire::push_str_field(&mut s, "grid", "paper"),
            Grid::Cells(cells) => {
                s.push_str("\"cells\":[");
                for (i, exp) in cells.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&wire::encode_experiment(*exp));
                }
                s.push_str("],");
            }
        }
        if let Some(p) = self.procs {
            s.push_str(&format!("\"procs\":{p},"));
        }
        if let Some(r) = self.refs {
            s.push_str(&format!("\"refs\":{r},"));
        }
        if let Some(seed) = self.seed {
            s.push_str(&format!("\"seed\":{seed},"));
        }
        if let Some(ms) = self.deadline_ms {
            s.push_str(&format!("\"deadline_ms\":{ms},"));
        }
        if let Some(hw) = self.hw_prefetch {
            wire::push_str_field(&mut s, "hw_prefetch", &hw.to_string());
        }
        if let Some(proto) = self.protocol {
            wire::push_str_field(&mut s, "protocol", proto.key_name());
        }
        if let Some(smp) = self.sampling {
            s.push_str(&format!(
                "\"sampling\":{{\"mode\":\"{}\",\"window\":{},\"period\":{},\"warmup\":{},\
                 \"max_k\":{},\"seed\":{},\"cold\":{}}},",
                smp.mode.name(),
                smp.window_accesses,
                smp.period,
                smp.warmup,
                smp.max_k,
                smp.seed,
                smp.cold,
            ));
        }
        s.pop();
        s.push('}');
        s
    }
}

/// One decoded reply frame.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Campaign accepted: its resumable token, grid size, and how many
    /// cells the journal already held.
    Opened { campaign: String, cells: u64, restored: u64 },
    /// One completed cell (journal-format summary, lossless).
    Cell(RunSummary),
    /// One cell failed; the campaign continues degraded.
    CellError { experiment: Option<Experiment>, error: String },
    /// Campaign finished streaming.
    Done { campaign: String, cells: u64, completed: u64, failed: u64 },
    /// Admission control shed this request; retry after the hint.
    Saturated { retry_after_ms: u64 },
    /// The daemon is shutting down; resubmit the same request after
    /// restart — the token names the journal that resumes it.
    Draining { campaign: String, completed: u64, remaining: u64 },
    /// The per-request deadline fired; progress so far.
    DeadlineExceeded { limit_ms: u64, completed: u64, remaining: u64 },
    /// Validation or internal failure (`bad_request`, `oversized`,
    /// `journal`, …).
    Error { kind: String, detail: String },
}

/// Decodes one reply line.
pub fn decode_frame(line: &str) -> Result<Frame, String> {
    let v = wire::parse(line.trim())?;
    if let Some(cell) = v.opt_field("cell") {
        return Ok(Frame::Cell(decode_summary_value(cell)?));
    }
    if let Some(err) = v.opt_field("cell_error") {
        let experiment = err.opt_field("experiment").and_then(|e| wire::decode_experiment(e).ok());
        let error = err.field("error")?.str()?.to_owned();
        return Ok(Frame::CellError { experiment, error });
    }
    if v.opt_field("done").is_some() {
        return Ok(Frame::Done {
            campaign: v.field("campaign")?.str()?.to_owned(),
            cells: v.field("cells")?.num()?,
            completed: v.field("completed")?.num()?,
            failed: v.field("failed")?.num()?,
        });
    }
    if let Some(kind) = v.opt_field("error") {
        let kind = kind.str()?.to_owned();
        let num = |name: &str| v.opt_field(name).and_then(|n| n.num().ok()).unwrap_or(0);
        return Ok(match kind.as_str() {
            "saturated" => Frame::Saturated { retry_after_ms: num("retry_after_ms") },
            "draining" => Frame::Draining {
                campaign: v.field("campaign")?.str()?.to_owned(),
                completed: num("completed"),
                remaining: num("remaining"),
            },
            "WallClockExceeded" => Frame::DeadlineExceeded {
                limit_ms: num("limit_ms"),
                completed: num("completed"),
                remaining: num("remaining"),
            },
            _ => Frame::Error {
                kind,
                detail: v
                    .opt_field("detail")
                    .and_then(|d| d.str().ok())
                    .unwrap_or_default()
                    .to_owned(),
            },
        });
    }
    if v.opt_field("ok").is_some() {
        if let Some(campaign) = v.opt_field("campaign") {
            return Ok(Frame::Opened {
                campaign: campaign.str()?.to_owned(),
                cells: v.field("cells")?.num()?,
                restored: v.field("restored")?.num()?,
            });
        }
        // ping/shutdown acknowledgements surface as a generic ok.
        return Ok(Frame::Error { kind: "ok".into(), detail: line.trim().to_owned() });
    }
    Err(format!("unrecognized frame: {line:?}"))
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| io::Error::new(e.kind(), format!("connecting to {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Submits a campaign, invoking `on_frame` for each decoded reply frame as
/// it arrives (the stream is incremental: cells show up as they finish).
/// Undecodable reply lines abort with `InvalidData`.
pub fn submit_streaming(
    addr: &str,
    req: &SubmitRequest,
    mut on_frame: impl FnMut(&Frame),
) -> io::Result<Vec<Frame>> {
    let mut stream = connect(addr)?;
    send_line(&mut stream, &req.encode())?;
    let mut frames = Vec::new();
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let frame = decode_frame(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{addr}: {e}")))?;
        on_frame(&frame);
        let terminal = matches!(
            frame,
            Frame::Done { .. }
                | Frame::Saturated { .. }
                | Frame::Draining { .. }
                | Frame::DeadlineExceeded { .. }
                | Frame::Error { .. }
        );
        frames.push(frame);
        if terminal {
            break;
        }
    }
    Ok(frames)
}

/// [`submit_streaming`] without a callback.
pub fn submit(addr: &str, req: &SubmitRequest) -> io::Result<Vec<Frame>> {
    submit_streaming(addr, req, |_| {})
}

fn one_line_command(addr: &str, cmd: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    send_line(&mut stream, cmd)?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("{addr}: daemon closed the connection without replying"),
        ));
    }
    Ok(reply.trim_end().to_owned())
}

/// One-line stats snapshot (the daemon's counters as a JSON object).
pub fn stats(addr: &str) -> io::Result<String> {
    one_line_command(addr, "{\"cmd\":\"stats\"}")
}

/// Liveness probe.
pub fn ping(addr: &str) -> io::Result<String> {
    one_line_command(addr, "{\"cmd\":\"ping\"}")
}

/// Asks the daemon to drain and exit (what SIGTERM does).
pub fn shutdown(addr: &str) -> io::Result<String> {
    one_line_command(addr, "{\"cmd\":\"shutdown\"}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlie::{Strategy, Workload};

    #[test]
    fn request_encoding_round_trips_through_wire_parse() {
        let req = SubmitRequest {
            grid: Grid::Cells(vec![Experiment::paper(Workload::Mp3d, Strategy::Pref, 8)]),
            procs: Some(2),
            refs: Some(600),
            seed: Some(7),
            deadline_ms: Some(5000),
            hw_prefetch: Some(HwPrefetchConfig::stride(2, 4)),
            protocol: Some(Protocol::Dragon),
            sampling: Some(SamplingConfig::smarts()),
        };
        let v = wire::parse(&req.encode()).unwrap();
        assert_eq!(v.field("cmd").unwrap().str().unwrap(), "submit");
        assert_eq!(v.field("procs").unwrap().num().unwrap(), 2);
        assert_eq!(v.field("hw_prefetch").unwrap().str().unwrap(), "stride:2:4");
        assert_eq!(v.field("protocol").unwrap().str().unwrap(), "dragon");
        let smp = v.field("sampling").unwrap();
        assert_eq!(smp.field("mode").unwrap().str().unwrap(), "smarts");
        assert_eq!(smp.field("period").unwrap().num().unwrap(), 37);
        assert_eq!(smp.field("cold").unwrap().num().unwrap(), 8);
        let cells = v.field("cells").unwrap().arr().unwrap();
        assert_eq!(
            wire::decode_experiment(&cells[0]).unwrap(),
            Experiment::paper(Workload::Mp3d, Strategy::Pref, 8)
        );
        let paper = wire::parse(&SubmitRequest::paper().encode()).unwrap();
        assert_eq!(paper.field("grid").unwrap().str().unwrap(), "paper");
    }

    #[test]
    fn frame_decoding_covers_every_shape() {
        match decode_frame("{\"ok\":true,\"campaign\":\"cdeadbeef\",\"cells\":3,\"restored\":1}")
            .unwrap()
        {
            Frame::Opened { campaign, cells, restored } => {
                assert_eq!((campaign.as_str(), cells, restored), ("cdeadbeef", 3, 1));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            decode_frame("{\"error\":\"saturated\",\"retry_after_ms\":1000}").unwrap(),
            Frame::Saturated { retry_after_ms: 1000 }
        ));
        assert!(matches!(
            decode_frame(
                "{\"error\":\"WallClockExceeded\",\"limit_ms\":5,\"campaign\":\"c0\",\
                 \"completed\":2,\"remaining\":7}"
            )
            .unwrap(),
            Frame::DeadlineExceeded { limit_ms: 5, completed: 2, remaining: 7 }
        ));
        assert!(matches!(
            decode_frame("{\"error\":\"draining\",\"campaign\":\"c1\",\"completed\":0,\
                          \"remaining\":4}")
                .unwrap(),
            Frame::Draining { remaining: 4, .. }
        ));
        assert!(matches!(
            decode_frame("{\"done\":true,\"campaign\":\"c2\",\"cells\":4,\"completed\":4,\
                          \"failed\":0}")
                .unwrap(),
            Frame::Done { completed: 4, failed: 0, .. }
        ));
        assert!(decode_frame("not json").is_err());
        assert!(decode_frame("{\"mystery\":1}").is_err());
    }
}
