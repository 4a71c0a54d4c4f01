//! Span/event tracing: per-phase observability for simulated runs.
//!
//! When tracing is enabled on a [`crate::Device`], every kernel launch is
//! decomposed into **spans** — one per execution phase the kernel passed
//! through (see [`Phase`]) — each carrying the exact [`Counters`] delta
//! attributed to that phase, the modelled core time of that delta (from
//! [`crate::CostModel`]), and a host wall-clock share of the launch.
//!
//! Attribution is exact by construction: a block records a ledger snapshot
//! at every phase switch, deltas between snapshots are summed per phase
//! across blocks, and anything charged outside an explicit phase lands in
//! [`Phase::Uncategorized`]. The per-span deltas of a trace therefore sum
//! *exactly* to the device's cumulative ledger (a property the workspace
//! tests lock in).
//!
//! Traces serialize to JSON Lines (one span object per line) through the
//! in-repo codec below — the vendored `serde` is a marker stub (see
//! `vendor/README.md`), so the JSONL round-trip is implemented by hand and
//! tested against itself.

use crate::counters::Counters;
use serde::{Deserialize, Serialize};

/// Execution phase a span is attributed to. The taxonomy follows the
/// ConvStencil pipeline (DESIGN.md §9): device phases are set by kernel
/// code via [`crate::BlockCtx::phase`]; host phases (verify/retry) are
/// pushed by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Variant-I explicit layout transform (global stencil2row build).
    LayoutTransform,
    /// Staging input tiles into shared memory (stencil2row scatter).
    SmemScatter,
    /// Dual-tessellation compute (DMMAs; CUDA-core variants charge their
    /// dot products here too).
    Tessellation,
    /// Write-back of results to global memory.
    Epilogue,
    /// Periodic halo-exchange kernels.
    HaloExchange,
    /// Host-side verification against the CPU reference (wall time only;
    /// no device counters).
    Verify,
    /// Marker for a verified-execution retry attempt.
    Retry,
    /// An injected whole-launch failure (carries the fault counter).
    LaunchFault,
    /// An injected device hang (carries the stall-cycle counter; see
    /// `FaultPlan::hang`).
    DeviceStall,
    /// Work charged outside any explicit phase.
    Uncategorized,
}

impl Phase {
    /// Every phase, in canonical (pipeline) order.
    pub const ALL: [Phase; 10] = [
        Phase::LayoutTransform,
        Phase::SmemScatter,
        Phase::Tessellation,
        Phase::Epilogue,
        Phase::HaloExchange,
        Phase::Verify,
        Phase::Retry,
        Phase::LaunchFault,
        Phase::DeviceStall,
        Phase::Uncategorized,
    ];

    /// Stable machine-readable name (used in the JSONL encoding).
    pub fn name(self) -> &'static str {
        match self {
            Phase::LayoutTransform => "layout_transform",
            Phase::SmemScatter => "smem_scatter",
            Phase::Tessellation => "dmma_tessellation",
            Phase::Epilogue => "epilogue",
            Phase::HaloExchange => "halo_exchange",
            Phase::Verify => "verify",
            Phase::Retry => "retry",
            Phase::LaunchFault => "launch_fault",
            Phase::DeviceStall => "device_stall",
            Phase::Uncategorized => "uncategorized",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Dense index into per-phase accumulation arrays.
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// One traced scope: a phase's share of one launch (or one host-side
/// event), with its exact counter delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub phase: Phase,
    /// Launch attempt index the span belongs to (host spans reuse the
    /// index of the most recent launch, or 0).
    pub launch: u64,
    /// Exact event-ledger delta attributed to this span.
    pub counters: Counters,
    /// Modelled core time of the delta (Eq. 2 over Eq. 3/4, without
    /// launch overhead or wave quantization; see
    /// [`crate::CostModel::span_time`]). Zero for host-only spans.
    pub modeled_sec: f64,
    /// Host wall-clock attributed to the span, in nanoseconds. Device
    /// spans split their launch's wall time proportionally to modelled
    /// time; host spans measure their own scope.
    pub wall_ns: u64,
}

/// An ordered collection of spans for one device lifetime (one or more
/// launches plus any host-side spans the runner appended).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Append another trace's spans (in order).
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Sum of every span's counter delta. With tracing enabled for the
    /// device's whole lifetime this equals the device's cumulative ledger.
    pub fn total_counters(&self) -> Counters {
        self.spans.iter().map(|s| s.counters).sum()
    }

    /// Sum of every span's attributed wall time.
    pub fn total_wall_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.wall_ns).sum()
    }

    /// Sum of every span's modelled core time.
    pub fn total_modeled_sec(&self) -> f64 {
        self.spans.iter().map(|s| s.modeled_sec).sum()
    }

    /// Serialize as JSON Lines: one span object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`Trace::to_jsonl`] (blank lines
    /// ignored).
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            spans.push(Span::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Trace { spans })
    }
}

impl Span {
    /// One-line JSON object for this span.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"phase\":\"");
        s.push_str(self.phase.name());
        s.push_str("\",\"launch\":");
        s.push_str(&self.launch.to_string());
        s.push_str(",\"modeled_sec\":");
        // `{:?}` prints the shortest representation that round-trips.
        s.push_str(&format!("{:?}", self.modeled_sec));
        s.push_str(",\"wall_ns\":");
        s.push_str(&self.wall_ns.to_string());
        s.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.field_pairs().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(name);
            s.push_str("\":");
            s.push_str(&v.to_string());
        }
        s.push_str("}}");
        s
    }

    /// Parse one span from its JSON object form.
    pub fn from_json(line: &str) -> Result<Span, String> {
        let value = json::parse(line)?;
        let obj = value.as_object().ok_or("span must be a JSON object")?;
        let phase_name = json::get(obj, "phase")?
            .as_str()
            .ok_or("phase must be a string")?;
        let phase =
            Phase::from_name(phase_name).ok_or_else(|| format!("unknown phase '{phase_name}'"))?;
        let launch = json::get(obj, "launch")?
            .as_u64()
            .ok_or("launch must be an unsigned integer")?;
        let modeled_sec = json::get(obj, "modeled_sec")?
            .as_f64()
            .ok_or("modeled_sec must be a number")?;
        let wall_ns = json::get(obj, "wall_ns")?
            .as_u64()
            .ok_or("wall_ns must be an unsigned integer")?;
        let cobj = json::get(obj, "counters")?
            .as_object()
            .ok_or("counters must be an object")?;
        let mut counters = Counters::default();
        for (name, v) in cobj {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter {name} must be an unsigned integer"))?;
            if !counters.set_field(name, v) {
                return Err(format!("unknown counter field '{name}'"));
            }
        }
        Ok(Span {
            phase,
            launch,
            counters,
            modeled_sec,
            wall_ns,
        })
    }
}

/// Minimal JSON reader: the trace codec's, also used by the benchmark
/// crate for its committed artifacts. Numbers are kept as raw text so u64
/// counters round-trip without passing through f64.
pub mod json {
    /// One parsed JSON value.
    pub enum Value {
        Str(String),
        /// A number as written; read it with [`Value::as_u64`] or
        /// [`Value::as_f64`].
        Num(String),
        /// Object fields in document order.
        Obj(Vec<(String, Value)>),
        Arr(Vec<Value>),
        Bool(bool),
        Null,
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// The value of `key` in an object's fields.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// Parse one complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(other) => return Err(format!("bad escape '\\{}'", *other as char)),
                        None => return Err("unterminated escape".into()),
                    }
                    *pos += 1;
                }
                c => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let ch_len = utf8_len(c);
                    let end = (*pos + ch_len).min(b.len());
                    out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?);
                    *pos = end;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        if start == *pos {
            return Err(format!("expected a value at byte {start}"));
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        // Validate as f64 so garbage fails early; keep the raw text.
        text.parse::<f64>()
            .map_err(|_| format!("invalid number '{text}'"))?;
        Ok(Value::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(phase: Phase, dmma: u64) -> Span {
        Span {
            phase,
            launch: 3,
            counters: Counters {
                dmma_ops: dmma,
                global_read_bytes: 1024,
                shared_read_conflicts: 7,
                ..Default::default()
            },
            modeled_sec: 1.25e-6,
            wall_ns: 4321,
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn span_json_round_trips() {
        let span = sample_span(Phase::Tessellation, 42);
        let parsed = Span::from_json(&span.to_json()).unwrap();
        assert_eq!(parsed, span);
    }

    #[test]
    fn trace_jsonl_round_trips() {
        let mut trace = Trace::new();
        trace.push(sample_span(Phase::SmemScatter, 0));
        trace.push(sample_span(Phase::Tessellation, 99));
        trace.push(Span {
            modeled_sec: 0.1 + 0.2, // a value without an exact short decimal
            ..sample_span(Phase::Verify, 0)
        });
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn total_counters_sums_spans() {
        let mut trace = Trace::new();
        trace.push(sample_span(Phase::SmemScatter, 5));
        trace.push(sample_span(Phase::Tessellation, 7));
        let total = trace.total_counters();
        assert_eq!(total.dmma_ops, 12);
        assert_eq!(total.global_read_bytes, 2048);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::from_jsonl("{\"phase\":\"dmma_tessellation\"").is_err());
        assert!(Trace::from_jsonl("not json").is_err());
        assert!(Span::from_json(
            "{\"phase\":\"bogus\",\"launch\":0,\"modeled_sec\":0,\"wall_ns\":0,\"counters\":{}}"
        )
        .is_err());
    }

    #[test]
    fn huge_u64_counters_round_trip_exactly() {
        // A value not representable in f64 must survive the codec.
        let mut span = sample_span(Phase::Epilogue, 0);
        span.counters.int_ops = u64::MAX - 1;
        let parsed = Span::from_json(&span.to_json()).unwrap();
        assert_eq!(parsed.counters.int_ops, u64::MAX - 1);
    }
}
