//! Plain-text trace serialization.
//!
//! Traces round-trip through a line-oriented format so users can bring their
//! own address traces (or export, inspect and edit generated ones):
//!
//! ```text
//! # anything after '#' is a comment
//! charlie-trace v1
//! procs 2
//! proc 0
//! w 12            # 12 cycles of CPU work
//! r 0x1000        # read
//! W 0x1004        # write
//! p 0x2000        # shared-mode prefetch
//! P 0x3000        # exclusive-mode prefetch
//! l 3             # acquire lock 3
//! u 3             # release lock 3
//! b 0             # barrier episode 0
//! proc 1
//! b 0
//! ```
//!
//! Addresses accept hex (`0x…`) or decimal. Events belong to the most recent
//! `proc` header; every processor in `procs N` must get a header (even if
//! its stream is empty).

use crate::addr::{Addr, PackedAddr};
use crate::event::{AccessKind, BarrierId, LockId, TraceEvent};
use crate::stream::{ProcTrace, Trace};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Magic first line of the format.
const MAGIC: &str = "charlie-trace v1";

/// Error reading a serialized trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem at a given 1-based line number.
    Parse {
        /// Line the problem was found on.
        line: usize,
        /// Byte offset of the start of that line within the input — what a
        /// user seeks to in a multi-megabyte trace their editor won't open.
        byte: usize,
        /// What went wrong, phrased as "expected X, found Y" where possible.
        message: String,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::Parse { line, byte, message } => {
                write!(f, "line {line} (byte offset {byte}): {message}")
            }
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Serializes `trace` to `out` in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(trace: &Trace, mut out: W) -> std::io::Result<()> {
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "procs {}", trace.num_procs())?;
    for (p, stream) in trace.iter() {
        writeln!(out, "proc {}", p.index())?;
        for ev in stream.events() {
            match ev {
                TraceEvent::Work(n) => writeln!(out, "w {n}")?,
                TraceEvent::Access { addr, kind } => {
                    let tag = if kind.is_write() { 'W' } else { 'r' };
                    writeln!(out, "{tag} {}", addr.unpack())?;
                }
                TraceEvent::Prefetch { addr, exclusive } => {
                    let tag = if exclusive { 'P' } else { 'p' };
                    writeln!(out, "{tag} {}", addr.unpack())?;
                }
                TraceEvent::LockAcquire(l) => writeln!(out, "l {}", l.0)?,
                TraceEvent::LockRelease(l) => writeln!(out, "u {}", l.0)?,
                TraceEvent::Barrier(b) => writeln!(out, "b {}", b.0)?,
            }
        }
    }
    Ok(())
}

/// Position of a parsed line: 1-based line number plus the byte offset of
/// the line's first byte within the input.
#[derive(Copy, Clone)]
struct Pos {
    line: usize,
    byte: usize,
}

impl Pos {
    fn err(self, message: String) -> ReadTraceError {
        ReadTraceError::Parse { line: self.line, byte: self.byte, message }
    }
}

/// Reads lines while tracking exact byte offsets (including the newline
/// bytes `BufRead::lines` would discard), so parse errors can point into
/// the raw file.
struct LineReader<R> {
    input: R,
    line: usize,
    byte: usize,
}

impl<R: BufRead> LineReader<R> {
    fn new(input: R) -> Self {
        LineReader { input, line: 0, byte: 0 }
    }

    /// Next non-empty, non-comment line with its position, or `None` at EOF.
    fn next_meaningful(&mut self) -> Result<Option<(Pos, String)>, ReadTraceError> {
        let mut raw = String::new();
        loop {
            let start = self.byte;
            raw.clear();
            let read = self.input.read_line(&mut raw)?;
            if read == 0 {
                return Ok(None);
            }
            self.line += 1;
            self.byte += read;
            let content = raw.split('#').next().unwrap_or("").trim();
            if !content.is_empty() {
                return Ok(Some((Pos { line: self.line, byte: start }, content.to_owned())));
            }
        }
    }

    /// Position just past everything read so far (for EOF errors).
    fn eof_pos(&self) -> Pos {
        Pos { line: self.line, byte: self.byte }
    }
}

fn parse_u64(token: &str, pos: Pos, what: &str) -> Result<u64, ReadTraceError> {
    let parsed = if let Some(hex) = token.strip_prefix("0x").or_else(|| token.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse()
    };
    parsed.map_err(|_| {
        pos.err(format!("expected {what} (decimal or 0x-hex integer), found {token:?}"))
    })
}

/// Parses a trace from `input` in the v1 text format.
///
/// # Errors
///
/// Returns [`ReadTraceError::Parse`] with a 1-based line number and the
/// byte offset of that line on any malformed line, unknown event tag,
/// out-of-range processor index, or missing header; each message says what
/// record was expected. [`ReadTraceError::Io`] on read failure. The result
/// is *not* lock/barrier-validated — run [`Trace::validate`] before
/// simulating.
pub fn read_trace<R: BufRead>(input: R) -> Result<Trace, ReadTraceError> {
    let mut lines = LineReader::new(input);

    let Some((pos, magic)) = lines.next_meaningful()? else {
        return Err(lines
            .eof_pos()
            .err(format!("empty trace file: expected magic line {MAGIC:?}")));
    };
    if magic != MAGIC {
        return Err(pos.err(format!("expected magic line {MAGIC:?}, found {magic:?}")));
    }

    let Some((pos, procs_line)) = lines.next_meaningful()? else {
        return Err(lines.eof_pos().err("expected `procs N` header, found end of file".into()));
    };
    let num_procs = match procs_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["procs", n] => parse_u64(n, pos, "processor count")? as usize,
        _ => {
            return Err(pos.err(format!("expected `procs N` header, found {procs_line:?}")));
        }
    };
    if num_procs == 0 || num_procs > 64 {
        return Err(pos.err(format!("processor count {num_procs} outside 1..=64")));
    }

    let mut streams: Vec<ProcTrace> = vec![ProcTrace::new(); num_procs];
    let mut current: Option<usize> = None;
    while let Some((pos, content)) = lines.next_meaningful()? {
        let mut parts = content.split_whitespace();
        // `next_meaningful` only yields non-blank content, so a missing
        // first token is unreachable — but a parse error pointing at the
        // line beats a panic if that invariant ever slips.
        let Some(tag) = parts.next() else {
            return Err(pos.err("expected an event tag, found a blank line".into()));
        };
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(pos.err(format!(
                "expected `{tag}` with one argument, found trailing tokens in {content:?}"
            )));
        }
        let arg = |what: &str| -> Result<u64, ReadTraceError> {
            let token = arg
                .ok_or_else(|| pos.err(format!("expected an argument after `{tag}` ({what})")))?;
            parse_u64(token, pos, what)
        };
        let addr = || -> Result<PackedAddr, ReadTraceError> {
            let raw = arg("address")?;
            PackedAddr::new(Addr::new(raw)).ok_or_else(|| {
                pos.err(format!(
                    "expected an address up to {:#x} (48 bits), found {raw:#x}",
                    PackedAddr::MAX
                ))
            })
        };
        if tag == "proc" {
            let p = arg("processor index")? as usize;
            if p >= num_procs {
                return Err(pos.err(format!(
                    "expected processor index in 0..{num_procs}, found {p}"
                )));
            }
            current = Some(p);
            continue;
        }
        let Some(p) = current else {
            return Err(pos.err(format!(
                "expected a `proc P` header before the first event, found `{tag}`"
            )));
        };
        let ev = match tag {
            "w" => TraceEvent::Work(arg("work cycles")? as u32),
            "r" => TraceEvent::Access { addr: addr()?, kind: AccessKind::Read },
            "W" => TraceEvent::Access { addr: addr()?, kind: AccessKind::Write },
            "p" => TraceEvent::Prefetch { addr: addr()?, exclusive: false },
            "P" => TraceEvent::Prefetch { addr: addr()?, exclusive: true },
            "l" => TraceEvent::LockAcquire(LockId(arg("lock id")? as u32)),
            "u" => TraceEvent::LockRelease(LockId(arg("lock id")? as u32)),
            "b" => TraceEvent::Barrier(BarrierId(arg("barrier id")? as u32)),
            other => {
                return Err(pos.err(format!(
                    "unknown event tag {other:?}: expected one of \
                     w/r/W/p/P/l/u/b or a `proc P` header"
                )));
            }
        };
        streams[p].push(ev);
    }
    Ok(Trace::from_procs(streams))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2);
        b.proc(0)
            .work(12)
            .read(Addr::new(0x1000))
            .write(Addr::new(0x1004))
            .prefetch(Addr::new(0x2000))
            .prefetch_exclusive(Addr::new(0x3000))
            .lock(3)
            .unlock(3)
            .barrier(0);
        b.proc(1).barrier(0);
        b.build()
    }

    fn round_trip(t: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(t, &mut buf).expect("write succeeds");
        read_trace(buf.as_slice()).expect("read succeeds")
    }

    #[test]
    fn round_trips_every_event_kind() {
        let t = sample();
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_streams_round_trip() {
        let t = TraceBuilder::new(3).build();
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# leading comment
charlie-trace v1

procs 1
proc 0   # the only processor
r 0x40   # hex address
W 68     # decimal address
";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.proc(0).num_accesses(), 2);
        let accesses: Vec<_> = t.proc(0).accesses().collect();
        assert_eq!(accesses[0].addr, Addr::new(0x40));
        assert_eq!(accesses[1].addr, Addr::new(68));
        assert!(accesses[1].kind.is_write());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace("dinero v9\nprocs 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_unknown_tag_with_line_and_byte() {
        let input = "charlie-trace v1\nprocs 1\nproc 0\nx 5\n";
        let err = read_trace(input.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, byte, message } => {
                assert_eq!(line, 4);
                assert_eq!(byte, input.find("x 5").unwrap());
                assert!(message.contains("unknown event tag"));
                assert!(message.contains("expected one of"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn byte_offsets_account_for_comments_and_blanks() {
        let input = "# header comment\ncharlie-trace v1\n\nprocs 1\nproc 0\n\n# hm\nr bad\n";
        let err = read_trace(input.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, byte, .. } => {
                assert_eq!(line, 8);
                assert_eq!(byte, input.find("r bad").unwrap());
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn display_includes_byte_offset_and_expectation() {
        let err = read_trace("charlie-trace v1\nprocs 1\nproc 0\nr 0xZZ\n".as_bytes()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("byte offset 32"), "{text}");
        assert!(text.contains("expected address"), "{text}");
    }

    #[test]
    fn truncated_file_reports_eof_expectation() {
        let err = read_trace("charlie-trace v1\n".as_bytes()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("expected `procs N` header, found end of file"), "{text}");
    }

    #[test]
    fn rejects_event_before_proc_header() {
        let err = read_trace("charlie-trace v1\nprocs 1\nr 0x40\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected a `proc P` header"));
    }

    #[test]
    fn rejects_out_of_range_proc() {
        let err = read_trace("charlie-trace v1\nprocs 2\nproc 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected processor index in 0..2, found 2"));
    }

    #[test]
    fn rejects_bad_address() {
        let err =
            read_trace("charlie-trace v1\nprocs 1\nproc 0\nr 0xZZ\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected address"));
    }

    #[test]
    fn rejects_addresses_past_48_bits_with_line_and_byte() {
        let input = "charlie-trace v1\nprocs 1\nproc 0\nr 0xffffffffffff\nP 0x1000000000000\n";
        let err = read_trace(input.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, byte, message } => {
                assert_eq!(line, 5);
                assert_eq!(byte, input.find("P 0x1").unwrap());
                assert!(message.contains("found 0x1000000000000"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_missing_argument_and_trailing_tokens() {
        let err = read_trace("charlie-trace v1\nprocs 1\nproc 0\nr\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected an argument after `r`"));
        let err =
            read_trace("charlie-trace v1\nprocs 1\nproc 0\nr 0x1 extra\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing tokens"));
    }

    #[test]
    fn rejects_zero_procs() {
        let err = read_trace("charlie-trace v1\nprocs 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("outside 1..=64"));
    }

    #[test]
    fn interleaved_proc_sections_append() {
        let text = "charlie-trace v1\nprocs 2\nproc 0\nr 0x0\nproc 1\nr 0x20\nproc 0\nr 0x40\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.proc(0).num_accesses(), 2);
        assert_eq!(t.proc(1).num_accesses(), 1);
    }
}
