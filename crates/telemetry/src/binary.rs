//! Compact self-describing binary timeline format ("NLTB").
//!
//! Schema v2 layout (header integers LEB128 varints, records fixed
//! width):
//!
//! ```text
//! magic   4 bytes  b"NLTB"
//! version 1 byte   (currently 2)
//! schema  varint len + UTF-8 bytes — a human-readable field map, so a
//!         decoder (or a person with xxd) can recover the layout from
//!         the file alone
//! strings varint count, then per string: varint len + UTF-8 bytes
//! spans   varint count, then per span one 29-byte wire record:
//!           u64 start, u64 dur, u32 cpu, u32 thread (MAX = none),
//!           u32 name index, u8 category tag — all little-endian
//! instants varint count, then per mark one wire record:
//!           start = time, dur = 0, thread = MAX, tag = 0
//! counters varint count, then per sample one wire record:
//!           start = time, dur = depth, thread = MAX, name = MAX, tag = 0
//! ```
//!
//! The record layout is [`noiselab_kernel::wire::WireRecord`] — the
//! same fixed-width encoding the tracer ring buffer uses, so a
//! timeline serializes with one `extend`-style cursor bump per record
//! instead of per-field varint branching.
//!
//! Schema **v3** appends one section to the v2 layout:
//!
//! ```text
//! freq    varint count, then per sample one wire record:
//!           start = time, dur = khz, thread = MAX, name = MAX, tag = 0
//! ```
//!
//! [`encode`] writes v3 *only when the report carries frequency
//! samples* (a DVFS-enabled run); any report without them — every run
//! on a machine with the DVFS axis disabled — encodes to exactly the
//! v2 bytes it always did, which is what keeps the pre-DVFS golden
//! fixtures byte-identical.
//!
//! [`decode`] also still reads schema **v1** (the all-varint layout
//! this module shipped with); `tests/golden_binary.rs` pins a v1
//! fixture byte-for-byte to keep that promise, and pins the v2
//! encoding of the same report so a format change must update the
//! fixture (and bump the version).

use crate::recorder::{CounterSample, FreqSample, InstantMark, Span, SpanCat, TelemetryReport};
use noiselab_kernel::{WireRecord, WIRE_NO_THREAD, WIRE_RECORD_BYTES};
use noiselab_sim::SimTime;

pub const MAGIC: &[u8; 4] = b"NLTB";
/// The schema version [`encode`] writes for reports without frequency
/// samples (every DVFS-disabled run).
pub const VERSION: u8 = 2;
/// The legacy all-varint schema [`decode`] still accepts.
pub const VERSION_V1: u8 = 1;
/// The v2-plus-freq-section schema [`encode`] writes when the report
/// carries DVFS frequency samples.
pub const VERSION_V3: u8 = 3;

/// The schema string embedded in every v2 file.
pub const SCHEMA: &str = "strings[len,bytes];wire:29B-le[start:u64,dur:u64,cpu:u32,\
                          thread:u32(MAX=none),name:u32,tag:u8];spans[wire,tag=cat];\
                          instants[wire,dur=0];counters[wire,dur=depth,name=MAX]";

/// The schema string embedded in every v3 file.
pub const SCHEMA_V3: &str = "strings[len,bytes];wire:29B-le[start:u64,dur:u64,cpu:u32,\
                          thread:u32(MAX=none),name:u32,tag:u8];spans[wire,tag=cat];\
                          instants[wire,dur=0];counters[wire,dur=depth,name=MAX];\
                          freq[wire,dur=khz,name=MAX]";

/// The schema string v1 files carry (kept for the decode-compat test).
pub const SCHEMA_V1: &str = "strings[len,bytes];spans[cpu,thread+1,name,cat:u8,start,dur];\
                          instants[cpu,name,time];counters[cpu,time,depth]";

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode the timeline sections of a report: schema v2, or v3 when the
/// report carries DVFS frequency samples.
pub fn encode(report: &TelemetryReport) -> Vec<u8> {
    let v3 = !report.freq.is_empty();
    let mut out = Vec::with_capacity(
        64 + (report.spans.len()
            + report.instants.len()
            + report.counters.len()
            + report.freq.len())
            * WIRE_RECORD_BYTES,
    );
    out.extend_from_slice(MAGIC);
    out.push(if v3 { VERSION_V3 } else { VERSION });
    put_str(&mut out, if v3 { SCHEMA_V3 } else { SCHEMA });
    put_varint(&mut out, report.strings.len() as u64);
    for s in &report.strings {
        put_str(&mut out, s);
    }
    put_varint(&mut out, report.spans.len() as u64);
    for sp in &report.spans {
        WireRecord {
            start: sp.start.0,
            dur_ns: sp.dur_ns,
            cpu: sp.cpu,
            thread: sp.thread.unwrap_or(WIRE_NO_THREAD),
            name: sp.name,
            tag: sp.cat.tag(),
        }
        .encode_into(&mut out);
    }
    put_varint(&mut out, report.instants.len() as u64);
    for m in &report.instants {
        WireRecord {
            start: m.time.0,
            dur_ns: 0,
            cpu: m.cpu,
            thread: WIRE_NO_THREAD,
            name: m.name,
            tag: 0,
        }
        .encode_into(&mut out);
    }
    put_varint(&mut out, report.counters.len() as u64);
    for c in &report.counters {
        WireRecord {
            start: c.time.0,
            dur_ns: c.depth as u64,
            cpu: c.cpu,
            thread: WIRE_NO_THREAD,
            name: u32::MAX,
            tag: 0,
        }
        .encode_into(&mut out);
    }
    if v3 {
        put_varint(&mut out, report.freq.len() as u64);
        for f in &report.freq {
            WireRecord {
                start: f.time.0,
                dur_ns: f.khz as u64,
                cpu: f.cpu,
                thread: WIRE_NO_THREAD,
                name: u32::MAX,
                tag: 0,
            }
            .encode_into(&mut out);
        }
    }
    out
}

/// A decoded timeline (the binary format carries no metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryTrace {
    pub schema: String,
    pub strings: Vec<String>,
    pub spans: Vec<Span>,
    pub instants: Vec<InstantMark>,
    pub counters: Vec<CounterSample>,
    /// DVFS frequency samples; empty for v1/v2 files.
    pub freq: Vec<FreqSample>,
}

/// Decode error with byte offset context and, once the header has been
/// read, the schema version of the file being decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    pub offset: usize,
    /// Schema version claimed by the input, `None` if the error struck
    /// before the version byte (missing magic, empty input).
    pub version: Option<u8>,
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.version {
            Some(v) => write!(
                f,
                "at byte {} (schema v{}): {}",
                self.offset, v, self.message
            ),
            None => write!(f, "at byte {}: {}", self.offset, self.message),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: Option<u8>,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos,
            version: self.version,
            message: message.into(),
        })
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return self.err("unexpected end of input");
        };
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return self.err("varint overflows u64");
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.varint()? as usize;
        if self.pos + len > self.buf.len() {
            return self.err(format!("string of {len} bytes overruns input"));
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.err("string is not valid UTF-8"),
        }
    }

    /// One fixed-width wire record (v2 sections).
    fn wire(&mut self, what: &str) -> Result<WireRecord, DecodeError> {
        let Some(w) = WireRecord::decode_from(self.buf, self.pos) else {
            return self.err(format!("truncated {what} record"));
        };
        self.pos += WIRE_RECORD_BYTES;
        Ok(w)
    }
}

/// Decode an NLTB buffer of any supported schema version (v1 or v2).
pub fn decode(buf: &[u8]) -> Result<BinaryTrace, DecodeError> {
    let mut r = Reader {
        buf,
        pos: 0,
        version: None,
    };
    if buf.len() < 5 || &buf[0..4] != MAGIC {
        return r.err("missing NLTB magic");
    }
    r.pos = 4;
    let version = r.byte()?;
    r.version = Some(version);
    match version {
        VERSION_V1 => decode_v1(&mut r),
        VERSION => decode_v2(&mut r, false),
        VERSION_V3 => decode_v2(&mut r, true),
        v => r.err(format!(
            "unsupported schema version {v} (supported: {VERSION_V1}, {VERSION}, {VERSION_V3})"
        )),
    }
}

/// Shared header tail: schema string + string table.
fn decode_strings(r: &mut Reader) -> Result<(String, Vec<String>), DecodeError> {
    let schema = r.string()?;
    let n_strings = r.varint()? as usize;
    let mut strings = Vec::with_capacity(n_strings.min(1 << 16));
    for _ in 0..n_strings {
        strings.push(r.string()?);
    }
    Ok((schema, strings))
}

/// The original all-varint layout.
fn decode_v1(r: &mut Reader) -> Result<BinaryTrace, DecodeError> {
    let (schema, strings) = decode_strings(r)?;
    let n_spans = r.varint()? as usize;
    let mut spans = Vec::with_capacity(n_spans.min(1 << 16));
    for _ in 0..n_spans {
        let cpu = r.varint()? as u32;
        let thread = match r.varint()? {
            0 => None,
            t => Some((t - 1) as u32),
        };
        let name = r.varint()? as u32;
        let tag = r.byte()?;
        let Some(cat) = SpanCat::from_tag(tag) else {
            return r.err(format!("unknown span category tag {tag}"));
        };
        let start = SimTime(r.varint()?);
        let dur_ns = r.varint()?;
        if name as usize >= strings.len() {
            return r.err(format!("span name index {name} out of range"));
        }
        spans.push(Span {
            cpu,
            thread,
            name,
            cat,
            start,
            dur_ns,
        });
    }
    let n_instants = r.varint()? as usize;
    let mut instants = Vec::with_capacity(n_instants.min(1 << 16));
    for _ in 0..n_instants {
        let cpu = r.varint()? as u32;
        let name = r.varint()? as u32;
        let time = SimTime(r.varint()?);
        if name as usize >= strings.len() {
            return r.err(format!("instant name index {name} out of range"));
        }
        instants.push(InstantMark { cpu, name, time });
    }
    let n_counters = r.varint()? as usize;
    let mut counters = Vec::with_capacity(n_counters.min(1 << 16));
    for _ in 0..n_counters {
        let cpu = r.varint()? as u32;
        let time = SimTime(r.varint()?);
        let depth = r.varint()? as u32;
        counters.push(CounterSample { cpu, time, depth });
    }
    finish(r, schema, strings, spans, instants, counters, Vec::new())
}

/// The fixed-width wire-record layout (v2, and v3 with `with_freq`).
fn decode_v2(r: &mut Reader, with_freq: bool) -> Result<BinaryTrace, DecodeError> {
    let (schema, strings) = decode_strings(r)?;
    let n_spans = r.varint()? as usize;
    let mut spans = Vec::with_capacity(n_spans.min(1 << 16));
    for _ in 0..n_spans {
        let w = r.wire("span")?;
        let Some(cat) = SpanCat::from_tag(w.tag) else {
            return r.err(format!("unknown span category tag {}", w.tag));
        };
        if w.name as usize >= strings.len() {
            return r.err(format!("span name index {} out of range", w.name));
        }
        spans.push(Span {
            cpu: w.cpu,
            thread: (w.thread != WIRE_NO_THREAD).then_some(w.thread),
            name: w.name,
            cat,
            start: SimTime(w.start),
            dur_ns: w.dur_ns,
        });
    }
    let n_instants = r.varint()? as usize;
    let mut instants = Vec::with_capacity(n_instants.min(1 << 16));
    for _ in 0..n_instants {
        let w = r.wire("instant")?;
        if w.name as usize >= strings.len() {
            return r.err(format!("instant name index {} out of range", w.name));
        }
        instants.push(InstantMark {
            cpu: w.cpu,
            name: w.name,
            time: SimTime(w.start),
        });
    }
    let n_counters = r.varint()? as usize;
    let mut counters = Vec::with_capacity(n_counters.min(1 << 16));
    for _ in 0..n_counters {
        let w = r.wire("counter")?;
        if w.dur_ns > u32::MAX as u64 {
            return r.err(format!("counter depth {} overflows u32", w.dur_ns));
        }
        counters.push(CounterSample {
            cpu: w.cpu,
            time: SimTime(w.start),
            depth: w.dur_ns as u32,
        });
    }
    let mut freq = Vec::new();
    if with_freq {
        let n_freq = r.varint()? as usize;
        freq.reserve(n_freq.min(1 << 16));
        for _ in 0..n_freq {
            let w = r.wire("freq")?;
            if w.dur_ns > u32::MAX as u64 {
                return r.err(format!("frequency {} kHz overflows u32", w.dur_ns));
            }
            freq.push(FreqSample {
                cpu: w.cpu,
                time: SimTime(w.start),
                khz: w.dur_ns as u32,
            });
        }
    }
    finish(r, schema, strings, spans, instants, counters, freq)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    r: &mut Reader,
    schema: String,
    strings: Vec<String>,
    spans: Vec<Span>,
    instants: Vec<InstantMark>,
    counters: Vec<CounterSample>,
    freq: Vec<FreqSample>,
) -> Result<BinaryTrace, DecodeError> {
    if r.pos != r.buf.len() {
        return r.err(format!("{} trailing bytes", r.buf.len() - r.pos));
    }
    Ok(BinaryTrace {
        schema,
        strings,
        spans,
        instants,
        counters,
        freq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> TelemetryReport {
        TelemetryReport {
            spans: vec![Span {
                cpu: 0,
                thread: Some(1),
                name: 0,
                cat: SpanCat::Run,
                start: SimTime(100),
                dur_ns: 50,
            }],
            instants: vec![InstantMark {
                cpu: 0,
                name: 0,
                time: SimTime(120),
            }],
            counters: vec![CounterSample {
                cpu: 0,
                time: SimTime(130),
                depth: 2,
            }],
            freq: vec![],
            strings: vec!["w".to_string()],
            n_cpus: 1,
            end: SimTime(200),
            dropped: 0,
            metrics: crate::metrics::MetricsSnapshot::default(),
        }
    }

    /// Hand-rolled v1 encoder so the legacy decode path keeps corrupt-
    /// input coverage without keeping a public v1 writer around.
    fn encode_v1(report: &TelemetryReport) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION_V1);
        put_str(&mut out, SCHEMA_V1);
        put_varint(&mut out, report.strings.len() as u64);
        for s in &report.strings {
            put_str(&mut out, s);
        }
        put_varint(&mut out, report.spans.len() as u64);
        for sp in &report.spans {
            put_varint(&mut out, sp.cpu as u64);
            put_varint(&mut out, sp.thread.map(|t| t as u64 + 1).unwrap_or(0));
            put_varint(&mut out, sp.name as u64);
            out.push(sp.cat.tag());
            put_varint(&mut out, sp.start.0);
            put_varint(&mut out, sp.dur_ns);
        }
        put_varint(&mut out, report.instants.len() as u64);
        for m in &report.instants {
            put_varint(&mut out, m.cpu as u64);
            put_varint(&mut out, m.name as u64);
            put_varint(&mut out, m.time.0);
        }
        put_varint(&mut out, report.counters.len() as u64);
        for c in &report.counters {
            put_varint(&mut out, c.cpu as u64);
            put_varint(&mut out, c.time.0);
            put_varint(&mut out, c.depth as u64);
        }
        out
    }

    #[test]
    fn varints_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader {
                buf: &buf,
                pos: 0,
                version: None,
            };
            assert_eq!(r.varint().expect("decode"), v);
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn v2_round_trips_every_section() {
        let report = small_report();
        let bytes = encode(&report);
        assert_eq!(bytes[4], VERSION);
        let trace = decode(&bytes).expect("decode v2");
        assert_eq!(trace.schema, SCHEMA);
        assert_eq!(trace.spans, report.spans);
        assert_eq!(trace.instants, report.instants);
        assert_eq!(trace.counters, report.counters);
        assert_eq!(trace.strings, report.strings);
    }

    #[test]
    fn v1_decodes_through_the_same_entry_point() {
        let report = small_report();
        let bytes = encode_v1(&report);
        assert_eq!(bytes[4], VERSION_V1);
        let trace = decode(&bytes).expect("decode v1");
        assert_eq!(trace.schema, SCHEMA_V1);
        assert_eq!(trace.spans, report.spans);
        assert_eq!(trace.instants, report.instants);
        assert_eq!(trace.counters, report.counters);
    }

    #[test]
    fn unknown_version_reports_found_and_supported() {
        let mut bytes = encode(&small_report());
        bytes[4] = 9;
        let err = decode(&bytes).expect_err("version 9 rejected");
        assert_eq!(err.version, Some(9));
        let msg = err.to_string();
        assert!(msg.contains("unsupported schema version 9"), "{msg}");
        assert!(msg.contains("supported: 1, 2, 3"), "{msg}");
    }

    #[test]
    fn freq_samples_promote_to_v3_and_round_trip() {
        let mut report = small_report();
        report.freq = vec![
            FreqSample {
                cpu: 0,
                time: SimTime(110),
                khz: 5_200_000,
            },
            FreqSample {
                cpu: 1,
                time: SimTime(140),
                khz: 800_000,
            },
        ];
        let bytes = encode(&report);
        assert_eq!(bytes[4], VERSION_V3);
        let trace = decode(&bytes).expect("decode v3");
        assert_eq!(trace.schema, SCHEMA_V3);
        assert_eq!(trace.freq, report.freq);
        assert_eq!(trace.spans, report.spans);
        // A freq-free report stays on v2, byte for byte.
        report.freq.clear();
        assert_eq!(encode(&report)[4], VERSION);
    }

    #[test]
    fn truncated_input_errors_with_offset_both_versions() {
        let report = small_report();
        for bytes in [encode(&report), encode_v1(&report)] {
            let expect_version = bytes[4];
            assert!(decode(&bytes).is_ok());
            let err = decode(&bytes[..bytes.len() - 3]).expect_err("truncated");
            assert!(err.offset > 0);
            assert_eq!(err.version, Some(expect_version));
        }
    }

    #[test]
    fn bad_string_index_rejected_both_versions() {
        let mut report = small_report();
        report.spans[0].name = 7; // only 1 string in the table
        for (bytes, v) in [(encode(&report), VERSION), (encode_v1(&report), VERSION_V1)] {
            let err = decode(&bytes).expect_err("bad name index");
            assert_eq!(err.version, Some(v));
            assert!(
                err.message.contains("name index 7 out of range"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn v1_overflowed_varint_rejected() {
        let mut bytes = vec![];
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION_V1);
        // Schema length as an 11-byte varint: overflows the u64 shift.
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        let err = decode(&bytes).expect_err("overflowing varint");
        assert!(
            err.message.contains("varint overflows u64"),
            "{}",
            err.message
        );
        assert_eq!(err.version, Some(VERSION_V1));
    }

    #[test]
    fn v2_record_count_overrunning_input_rejected() {
        let report = small_report();
        let mut bytes = encode(&report);
        // Find the span-count varint (count 1) right after the string
        // table and inflate it: claims more records than bytes remain.
        let tail = report.spans.len() * WIRE_RECORD_BYTES
            + (report.instants.len() + report.counters.len()) * (WIRE_RECORD_BYTES + 1) // + their counts
            + 1; // span count byte itself
        let span_count_at = bytes.len() - tail;
        assert_eq!(bytes[span_count_at], 1);
        bytes[span_count_at] = 100;
        // The decoder walks into the following sections reinterpreted as
        // span records; whichever check fires first, the overrun must be
        // rejected with v2 context.
        let err = decode(&bytes).expect_err("overflowed record count");
        assert_eq!(err.version, Some(VERSION));

        // Count intact but the final record's bytes missing: the
        // fixed-width reader reports the truncation directly.
        let whole = encode(&small_report());
        let err = decode(&whole[..whole.len() - 1]).expect_err("truncated record");
        assert!(
            err.message.contains("truncated counter record"),
            "{}",
            err.message
        );
        assert_eq!(err.version, Some(VERSION));
    }

    #[test]
    fn v2_counter_depth_overflow_rejected() {
        let report = small_report();
        let mut bytes = encode(&report);
        // The counter record is the last 29 bytes; dur_ns occupies bytes
        // 8..16 of it. Set it past u32::MAX.
        let rec = bytes.len() - WIRE_RECORD_BYTES;
        bytes[rec + 8..rec + 16].copy_from_slice(&(u64::MAX).to_le_bytes());
        let err = decode(&bytes).expect_err("depth overflow");
        assert!(err.message.contains("overflows u32"), "{}", err.message);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = decode(b"NOPE\x01").expect_err("bad magic");
        assert_eq!(err.version, None, "failed before the version byte");
        assert!(decode(&[]).is_err());
    }
}
