//! The wire format: a minimal, dependency-free JSON value
//! ([`Json`] — parser and writer over `std` only, in the spirit of the
//! workspace's offline shims) plus the encode/decode functions for the
//! service's request and response bodies.
//!
//! ## Batch request (`POST /v1/batch`)
//!
//! ```json
//! {"queries": [
//!   {"tm": "dstm", "cm": "aggressive", "property": "of", "threads": 2, "vars": 1},
//!   {"tm": "TL2", "property": "ss", "threads": 2, "vars": 2}
//! ]}
//! ```
//!
//! `cm` is omitted (or `null`) for a bare TM. Properties use the short
//! codes `ss`, `op`, `of`, `lf`, `wf`.
//!
//! ## Batch response
//!
//! ```json
//! {"results": [
//!   {"tm": "dstm", "cm": "aggressive", "property": "of", "threads": 2, "vars": 1,
//!    "name": "dstm+aggressive", "holds": true, "states": 1977,
//!    "cached": false, "rebuilt": false},
//!   {"tm": "TL2", "property": "ss", "threads": 2, "vars": 2,
//!    "name": "TL2", "holds": true, "states": 20430,
//!    "cached": false, "rebuilt": false}
//! ],
//!  "stats": {"queries": 2, "cache_hits": 0, "...": "..."}}
//! ```
//!
//! A safety violation adds `"counterexample": "<word>"`; a liveness
//! violation adds `"lasso": {"prefix": [...], "cycle": [...],
//! "notation": "..."}` — all strings in the canonical `Display` forms,
//! so wire answers compare bit-identically against in-process ones. A
//! query that hit a resource limit instead carries
//! `"aborted": "<code>"` (an [`EngineError`] code such as `deadline` or
//! `state-limit:100000`) with `holds: false`.
//!
//! Requests may carry an optional `"deadline_ms"` member next to
//! `"queries"` — a whole-batch wall-clock budget that overrides the
//! server's configured default — and an optional `"trace": true`, which
//! asks the server to attach a per-query `"trace"` member to every
//! result: `{"phases": {"<phase>": <ns>, ...}, "events": [{"phase":
//! ..., "start_ns": ..., "dur_ns": ..., "value": ...}, ...],
//! "dropped_events": N}` (phase names are the
//! [`tm_obs::Phase::name`] vocabulary).

use std::fmt;

use tm_automata::EngineError;
use tm_obs::{JournalRead, Phase, PhaseNanos, TraceEvent, TraceRecord};
use tm_store::StoreEntry;

use crate::roster::{CmKind, PropertyKind, QuerySpec, TmKind};
use crate::service::{LatencyQuantiles, QueryOutcome, QueryResult, ServiceStats, SessionInfo};

/// Nesting-depth cap for parsed documents: arrays/objects deeper than
/// this are rejected with a [`JsonError`] instead of recursing toward a
/// stack overflow. The service's own bodies nest 4 levels deep.
pub const MAX_JSON_DEPTH: usize = 64;

/// A JSON value. Numbers are `f64` (every counter the service ships is
/// far below 2^53, where `f64` is exact).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered; keys are not deduplicated).
    Obj(Vec<(String, Json)>),
}

/// A parse error with its byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (`None` for
    /// negative, fractional, or unsafely large values).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as usize)
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            // Overflowing literals like 1e999 parse to infinity; reject
            // them so every in-tree number stays arithmetic-safe.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.error(format!("bad number {text:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired (the writer never
                            // emits them); map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.error(format!("bad escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar as raw bytes.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = text.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_JSON_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// A malformed request/response body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError(e.to_string())
    }
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

fn spec_members(spec: &QuerySpec) -> Vec<(String, Json)> {
    let mut members = vec![("tm".to_owned(), Json::Str(spec.tm.code().to_owned()))];
    if let Some(cm) = spec.cm.code() {
        members.push(("cm".to_owned(), Json::Str(cm.to_owned())));
    }
    members.push(("property".to_owned(), Json::Str(spec.property.code().to_owned())));
    members.push(("threads".to_owned(), num(spec.threads)));
    members.push(("vars".to_owned(), num(spec.vars)));
    members
}

/// Encodes a batch request body.
pub fn encode_batch(batch: &[QuerySpec]) -> String {
    Json::Obj(vec![(
        "queries".to_owned(),
        Json::Arr(batch.iter().map(|q| Json::Obj(spec_members(q))).collect()),
    )])
    .to_string()
}

fn decode_spec(value: &Json) -> Result<QuerySpec, WireError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| WireError(format!("query is missing {key:?}")))
    };
    let str_field = |key: &str| {
        field(key)?
            .as_str()
            .ok_or_else(|| WireError(format!("query field {key:?} must be a string")))
    };
    let usize_field = |key: &str| {
        field(key)?
            .as_usize()
            .ok_or_else(|| WireError(format!("query field {key:?} must be a non-negative integer")))
    };
    let tm: TmKind = str_field("tm")?.parse().map_err(WireError)?;
    let cm: CmKind = match value.get("cm") {
        None | Some(Json::Null) => CmKind::None,
        Some(v) => v
            .as_str()
            .ok_or_else(|| WireError("query field \"cm\" must be a string".to_owned()))?
            .parse()
            .map_err(WireError)?,
    };
    let property: PropertyKind = str_field("property")?.parse().map_err(WireError)?;
    let spec = QuerySpec {
        tm,
        cm,
        property,
        threads: usize_field("threads")?,
        vars: usize_field("vars")?,
    };
    // Out-of-range instance sizes are a client error (HTTP 400), never a
    // panic inside a serving thread.
    spec.validate().map_err(WireError)?;
    Ok(spec)
}

/// Encodes a batch request body with an optional whole-batch deadline
/// in milliseconds.
pub fn encode_batch_request(batch: &[QuerySpec], deadline_ms: Option<u64>) -> String {
    encode_batch_request_traced(batch, deadline_ms, false)
}

/// [`encode_batch_request`] with the optional `"trace": true` member
/// that asks the server for per-query phase traces.
pub fn encode_batch_request_traced(
    batch: &[QuerySpec],
    deadline_ms: Option<u64>,
    trace: bool,
) -> String {
    let mut members = vec![(
        "queries".to_owned(),
        Json::Arr(batch.iter().map(|q| Json::Obj(spec_members(q))).collect()),
    )];
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".to_owned(), num(ms as usize)));
    }
    if trace {
        members.push(("trace".to_owned(), Json::Bool(true)));
    }
    Json::Obj(members).to_string()
}

/// Decodes a batch request body.
pub fn decode_batch(body: &str) -> Result<Vec<QuerySpec>, WireError> {
    decode_batch_request(body).map(|(queries, _)| queries)
}

/// Decodes a batch request body together with its optional
/// `"deadline_ms"` member.
pub fn decode_batch_request(body: &str) -> Result<(Vec<QuerySpec>, Option<u64>), WireError> {
    decode_batch_request_traced(body).map(|(queries, deadline_ms, _)| (queries, deadline_ms))
}

/// Decodes a batch request body together with its optional
/// `"deadline_ms"` and `"trace"` members.
pub fn decode_batch_request_traced(
    body: &str,
) -> Result<(Vec<QuerySpec>, Option<u64>, bool), WireError> {
    let json = Json::parse(body)?;
    let queries = json
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError("request must carry a \"queries\" array".to_owned()))?
        .iter()
        .map(decode_spec)
        .collect::<Result<Vec<_>, _>>()?;
    let deadline_ms = match json.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_usize().ok_or_else(|| {
            WireError("request field \"deadline_ms\" must be a non-negative integer".to_owned())
        })? as u64),
    };
    let trace = match json.get("trace") {
        None | Some(Json::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError("request field \"trace\" must be a boolean".to_owned()))?,
    };
    Ok((queries, deadline_ms, trace))
}

fn result_to_json(result: &QueryResult) -> Json {
    let mut members = spec_members(&result.spec);
    members.push(("name".to_owned(), Json::Str(result.name.clone())));
    members.push(("holds".to_owned(), Json::Bool(result.holds)));
    members.push(("states".to_owned(), num(result.states)));
    members.push(("cached".to_owned(), Json::Bool(result.cached)));
    members.push(("rebuilt".to_owned(), Json::Bool(result.rebuilt)));
    match &result.outcome {
        QueryOutcome::Verified => {}
        QueryOutcome::SafetyViolation { word } => {
            members.push(("counterexample".to_owned(), Json::Str(word.clone())));
        }
        QueryOutcome::LivenessViolation {
            prefix,
            cycle,
            notation,
        } => {
            let strings = |labels: &[String]| {
                Json::Arr(labels.iter().map(|l| Json::Str(l.clone())).collect())
            };
            members.push((
                "lasso".to_owned(),
                Json::Obj(vec![
                    ("prefix".to_owned(), strings(prefix)),
                    ("cycle".to_owned(), strings(cycle)),
                    ("notation".to_owned(), Json::Str(notation.clone())),
                ]),
            ));
        }
        QueryOutcome::Aborted { reason } => {
            members.push(("aborted".to_owned(), Json::Str(reason.to_string())));
        }
    }
    if let Some(trace) = &result.trace {
        members.push(("trace".to_owned(), trace_to_json(trace)));
    }
    Json::Obj(members)
}

/// Engine-phase totals as a [`Phase::name`] → nanoseconds object;
/// all-zero phases are omitted to keep the object compact.
pub fn encode_phases(phase_ns: &PhaseNanos) -> Json {
    Json::Obj(
        Phase::ALL
            .into_iter()
            .filter(|&p| phase_ns[p as usize] > 0)
            .map(|p| (p.name().to_owned(), num(phase_ns[p as usize] as usize)))
            .collect(),
    )
}

fn trace_to_json(trace: &TraceRecord) -> Json {
    let phases = encode_phases(&trace.phase_ns);
    let events = trace
        .events
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("phase".to_owned(), Json::Str(e.phase.name().to_owned())),
                ("start_ns".to_owned(), num(e.start_ns as usize)),
                ("dur_ns".to_owned(), num(e.dur_ns as usize)),
                ("value".to_owned(), num(e.value as usize)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("phases".to_owned(), phases),
        ("events".to_owned(), Json::Arr(events)),
        ("dropped_events".to_owned(), num(trace.dropped_events as usize)),
    ])
}

fn decode_trace(value: &Json) -> Result<TraceRecord, WireError> {
    let mut record = TraceRecord::default();
    if let Some(Json::Obj(members)) = value.get("phases") {
        for (name, ns) in members {
            let phase = Phase::from_name(name)
                .ok_or_else(|| WireError(format!("unknown trace phase {name:?}")))?;
            record.phase_ns[phase as usize] = ns
                .as_usize()
                .ok_or_else(|| WireError(format!("trace phase {name:?} must be an integer")))?
                as u64;
        }
    }
    if let Some(events) = value.get("events").and_then(Json::as_arr) {
        let field = |event: &Json, key: &str| {
            event
                .get(key)
                .and_then(Json::as_usize)
                .map(|v| v as u64)
                .ok_or_else(|| WireError(format!("trace event is missing integer {key:?}")))
        };
        for event in events {
            let name = event
                .get("phase")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError("trace event is missing \"phase\"".to_owned()))?;
            record.events.push(TraceEvent {
                phase: Phase::from_name(name)
                    .ok_or_else(|| WireError(format!("unknown trace phase {name:?}")))?,
                start_ns: field(event, "start_ns")?,
                dur_ns: field(event, "dur_ns")?,
                value: field(event, "value")?,
            });
        }
    }
    record.dropped_events = value
        .get("dropped_events")
        .and_then(Json::as_usize)
        .unwrap_or(0) as u64;
    Ok(record)
}

/// Encodes a batch response body (results in request order plus the
/// service counters).
pub fn encode_results(results: &[QueryResult], stats: &ServiceStats) -> String {
    Json::Obj(vec![
        (
            "results".to_owned(),
            Json::Arr(results.iter().map(result_to_json).collect()),
        ),
        ("stats".to_owned(), stats_to_json(stats)),
    ])
    .to_string()
}

fn stats_to_json(stats: &ServiceStats) -> Json {
    Json::Obj(vec![
        ("queries".to_owned(), num(stats.queries as usize)),
        ("cache_hits".to_owned(), num(stats.cache_hits as usize)),
        ("artifact_builds".to_owned(), num(stats.artifact_builds as usize)),
        (
            "artifact_rebuilds".to_owned(),
            num(stats.artifact_rebuilds as usize),
        ),
        (
            "aborted_queries".to_owned(),
            num(stats.aborted_queries as usize),
        ),
        ("evictions".to_owned(), num(stats.evictions as usize)),
        ("tracked_bytes".to_owned(), num(stats.tracked_bytes)),
        (
            "peak_tracked_bytes".to_owned(),
            num(stats.peak_tracked_bytes),
        ),
        (
            "mem_budget".to_owned(),
            stats.mem_budget.map_or(Json::Null, num),
        ),
        ("sessions".to_owned(), num(stats.sessions)),
        ("pool_size".to_owned(), num(stats.pool_size)),
        ("batch_ns".to_owned(), num(stats.batch_ns as usize)),
        ("busy_wall_ns".to_owned(), num(stats.busy_wall_ns as usize)),
        ("uptime_ns".to_owned(), num(stats.uptime_ns as usize)),
        ("store_hits".to_owned(), num(stats.store_hits as usize)),
        ("store_misses".to_owned(), num(stats.store_misses as usize)),
        ("store_promotes".to_owned(), num(stats.store_promotes as usize)),
        ("store_demotes".to_owned(), num(stats.store_demotes as usize)),
        ("store_corrupt".to_owned(), num(stats.store_corrupt as usize)),
        ("store_saves".to_owned(), num(stats.store_saves as usize)),
        ("store_bytes".to_owned(), num(stats.store_bytes as usize)),
        ("store_files".to_owned(), num(stats.store_files as usize)),
    ])
}

/// Encodes the `GET /v1/stats` body: the service counters plus the
/// `"latency"` quantile summary. Decoders that predate the member
/// (`decode_stats`) ignore it.
pub fn encode_stats_full(stats: &ServiceStats, latency: &LatencyQuantiles) -> String {
    let Json::Obj(mut members) = stats_to_json(stats) else {
        unreachable!("stats_to_json returns an object")
    };
    members.push((
        "latency".to_owned(),
        Json::Obj(vec![
            ("count".to_owned(), num(latency.count as usize)),
            ("p50_s".to_owned(), Json::Num(latency.p50_s)),
            ("p95_s".to_owned(), Json::Num(latency.p95_s)),
            ("p99_s".to_owned(), Json::Num(latency.p99_s)),
        ]),
    ));
    Json::Obj(members).to_string()
}

/// Encodes the `GET /v1/sessions` body: one row per `(n, k)` session.
pub fn encode_sessions(sessions: &[SessionInfo]) -> String {
    let rows = sessions
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("threads".to_owned(), num(s.threads)),
                ("vars".to_owned(), num(s.vars)),
                ("resident_artifacts".to_owned(), num(s.resident_artifacts)),
                ("heap_bytes".to_owned(), num(s.heap_bytes)),
                ("builds".to_owned(), num(s.builds as usize)),
                ("rebuilds".to_owned(), num(s.rebuilds as usize)),
                ("store_promotes".to_owned(), num(s.store_promotes as usize)),
                ("lock_waits".to_owned(), num(s.lock_waits as usize)),
                ("lock_wait_ns".to_owned(), num(s.lock_wait_ns as usize)),
            ])
        })
        .collect();
    Json::Obj(vec![("sessions".to_owned(), Json::Arr(rows))]).to_string()
}

/// Encodes the `GET /v1/store` body: the store's `.tmart` files in LRU
/// order (least recently used first), with summed totals.
pub fn encode_store(entries: &[StoreEntry]) -> String {
    let files = entries
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("file".to_owned(), Json::Str(e.file.clone())),
                ("bytes".to_owned(), num(e.bytes as usize)),
                ("age_secs".to_owned(), num(e.age_secs as usize)),
                ("last_used".to_owned(), num(e.last_used as usize)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("count".to_owned(), num(entries.len())),
        (
            "bytes".to_owned(),
            num(entries.iter().map(|e| e.bytes as usize).sum()),
        ),
        ("files".to_owned(), Json::Arr(files)),
    ])
    .to_string()
}

/// Encodes the `GET /v1/events` body: the journal events a cursor read
/// returned, each with its sequence number, plus the cursor to pass to
/// the next read and the count of events the ring overwrote before this
/// reader got to them.
pub fn encode_events(read: &JournalRead) -> String {
    let events = read
        .events
        .iter()
        .map(|(seq, e)| {
            Json::Obj(vec![
                ("seq".to_owned(), num(*seq as usize)),
                ("kind".to_owned(), Json::Str(e.kind.name().to_owned())),
                ("key".to_owned(), Json::Str(e.key.clone())),
                ("request_id".to_owned(), Json::Str(e.request_id.clone())),
                ("bytes".to_owned(), num(e.bytes as usize)),
                ("at_unix_ms".to_owned(), num(e.at_unix_ms as usize)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("next_cursor".to_owned(), num(read.next_cursor as usize)),
        ("dropped".to_owned(), num(read.dropped as usize)),
        ("events".to_owned(), Json::Arr(events)),
    ])
    .to_string()
}

fn decode_result(value: &Json) -> Result<QueryResult, WireError> {
    let spec = decode_spec(value)?;
    let bool_field = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError(format!("result is missing boolean {key:?}")))
    };
    let outcome = if let Some(reason) = value.get("aborted") {
        let code = reason
            .as_str()
            .ok_or_else(|| WireError("aborted must be a string".to_owned()))?;
        QueryOutcome::Aborted {
            reason: EngineError::from_code(code)
                .ok_or_else(|| WireError(format!("unknown abort code {code:?}")))?,
        }
    } else if let Some(word) = value.get("counterexample") {
        QueryOutcome::SafetyViolation {
            word: word
                .as_str()
                .ok_or_else(|| WireError("counterexample must be a string".to_owned()))?
                .to_owned(),
        }
    } else if let Some(lasso) = value.get("lasso") {
        let labels = |key: &str| -> Result<Vec<String>, WireError> {
            lasso
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError(format!("lasso is missing {key:?}")))?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| WireError("lasso labels must be strings".to_owned()))
                })
                .collect()
        };
        QueryOutcome::LivenessViolation {
            prefix: labels("prefix")?,
            cycle: labels("cycle")?,
            notation: lasso
                .get("notation")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError("lasso is missing \"notation\"".to_owned()))?
                .to_owned(),
        }
    } else {
        QueryOutcome::Verified
    };
    Ok(QueryResult {
        spec,
        name: value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError("result is missing \"name\"".to_owned()))?
            .to_owned(),
        holds: bool_field("holds")?,
        states: value
            .get("states")
            .and_then(Json::as_usize)
            .ok_or_else(|| WireError("result is missing \"states\"".to_owned()))?,
        cached: bool_field("cached")?,
        rebuilt: bool_field("rebuilt")?,
        outcome,
        trace: match value.get("trace") {
            None | Some(Json::Null) => None,
            Some(trace) => Some(decode_trace(trace)?),
        },
    })
}

fn decode_stats(value: &Json) -> Result<ServiceStats, WireError> {
    let field = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| WireError(format!("stats are missing {key:?}")))
    };
    Ok(ServiceStats {
        queries: field("queries")? as u64,
        cache_hits: field("cache_hits")? as u64,
        artifact_builds: field("artifact_builds")? as u64,
        artifact_rebuilds: field("artifact_rebuilds")? as u64,
        // Absent in bodies from pre-abort servers: default to zero.
        aborted_queries: value
            .get("aborted_queries")
            .and_then(Json::as_usize)
            .unwrap_or(0) as u64,
        evictions: field("evictions")? as u64,
        tracked_bytes: field("tracked_bytes")?,
        peak_tracked_bytes: field("peak_tracked_bytes")?,
        mem_budget: match value.get("mem_budget") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_usize().ok_or_else(|| {
                WireError("stats field \"mem_budget\" must be an integer or null".to_owned())
            })?),
        },
        sessions: field("sessions")?,
        pool_size: field("pool_size")?,
        // `busy_ns` was renamed `batch_ns` when the overlap-summing bug
        // was documented away; accept bodies from servers of either
        // vintage.
        batch_ns: value
            .get("batch_ns")
            .or_else(|| value.get("busy_ns"))
            .and_then(Json::as_usize)
            .unwrap_or(0) as u64,
        busy_wall_ns: value.get("busy_wall_ns").and_then(Json::as_usize).unwrap_or(0) as u64,
        uptime_ns: value.get("uptime_ns").and_then(Json::as_usize).unwrap_or(0) as u64,
        // Absent in bodies from pre-store servers: default to zero.
        store_hits: optional_u64(value, "store_hits"),
        store_misses: optional_u64(value, "store_misses"),
        store_promotes: optional_u64(value, "store_promotes"),
        store_demotes: optional_u64(value, "store_demotes"),
        store_corrupt: optional_u64(value, "store_corrupt"),
        store_saves: optional_u64(value, "store_saves"),
        store_bytes: optional_u64(value, "store_bytes"),
        store_files: optional_u64(value, "store_files"),
    })
}

/// A stats counter that may be absent in bodies from older servers.
fn optional_u64(value: &Json, key: &str) -> u64 {
    value.get(key).and_then(Json::as_usize).unwrap_or(0) as u64
}

/// Decodes a batch response body back into results and stats — what the
/// `tm-query` client and the over-the-wire conformance tests consume.
pub fn decode_results(body: &str) -> Result<(Vec<QueryResult>, ServiceStats), WireError> {
    let json = Json::parse(body)?;
    let results = json
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError("response must carry a \"results\" array".to_owned()))?
        .iter()
        .map(decode_result)
        .collect::<Result<Vec<_>, _>>()?;
    let stats = decode_stats(
        json.get("stats")
            .ok_or_else(|| WireError("response must carry \"stats\"".to_owned()))?,
    )?;
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_and_prints() {
        let text = r#"{"a": [1, -2.5, true, null], "s": "x\"\\\nA"}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(json.get("s").unwrap().as_str(), Some("x\"\\\nA"));
        assert_eq!(json.get("a").unwrap().as_arr().unwrap().len(), 4);
        let round = Json::parse(&json.to_string()).unwrap();
        assert_eq!(round, json);
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] x").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn batch_round_trips() {
        let batch = vec![
            QuerySpec::parse("dstm+aggressive:of:2:1").unwrap(),
            QuerySpec::parse("modified-TL2+polite:op:2:2").unwrap(),
            QuerySpec::parse("sequential:ss:3:1").unwrap(),
        ];
        let decoded = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(decoded, batch);
        assert!(decode_batch("{}").is_err());
        assert!(decode_batch(r#"{"queries": [{"tm": "dstm"}]}"#).is_err());
    }

    #[test]
    fn results_round_trip_with_every_outcome() {
        let results = vec![
            QueryResult {
                spec: QuerySpec::parse("dstm:op:2:2").unwrap(),
                name: "dstm".to_owned(),
                holds: true,
                states: 2083,
                cached: false,
                rebuilt: false,
                outcome: QueryOutcome::Verified,
                trace: Some(TraceRecord {
                    phase_ns: {
                        let mut ns = [0u64; Phase::COUNT];
                        ns[Phase::BfsLevel as usize] = 120_000;
                        ns[Phase::SessionLockWait as usize] = 450;
                        ns
                    },
                    events: vec![TraceEvent {
                        phase: Phase::BfsLevel,
                        start_ns: 500,
                        dur_ns: 120_000,
                        value: 37,
                    }],
                    dropped_events: 2,
                }),
            },
            QueryResult {
                spec: QuerySpec::parse("modified-TL2+polite:ss:2:2").unwrap(),
                name: "modified-TL2+polite".to_owned(),
                holds: false,
                states: 913,
                cached: true,
                rebuilt: true,
                outcome: QueryOutcome::SafetyViolation {
                    word: "(w,1)1 c1 (r,1)2 (w,1)2 c2".to_owned(),
                },
                trace: None,
            },
            QueryResult {
                spec: QuerySpec::parse("2PL:of:2:1").unwrap(),
                name: "2PL".to_owned(),
                holds: false,
                states: 77,
                cached: false,
                rebuilt: false,
                outcome: QueryOutcome::LivenessViolation {
                    prefix: vec!["(o,1)2".to_owned()],
                    cycle: vec!["a1".to_owned(), "(o,1)1".to_owned()],
                    notation: "a1, (o,1)1".to_owned(),
                },
                trace: None,
            },
        ];
        let stats = ServiceStats {
            queries: 3,
            cache_hits: 1,
            aborted_queries: 1,
            artifact_builds: 2,
            artifact_rebuilds: 1,
            evictions: 4,
            tracked_bytes: 12345,
            peak_tracked_bytes: 23456,
            mem_budget: Some(1 << 20),
            sessions: 2,
            pool_size: 4,
            batch_ns: 987654321,
            busy_wall_ns: 123456789,
            uptime_ns: 222333444,
            store_hits: 5,
            store_misses: 2,
            store_promotes: 3,
            store_demotes: 4,
            store_corrupt: 1,
            store_saves: 6,
            store_bytes: 7777,
            store_files: 3,
        };
        let body = encode_results(&results, &stats);
        let (decoded, decoded_stats) = decode_results(&body).unwrap();
        assert_eq!(decoded, results);
        assert_eq!(decoded_stats, stats);
        // Unbounded budget encodes as null and survives.
        let unbounded = ServiceStats {
            mem_budget: None,
            ..stats
        };
        let (_, decoded_stats) = decode_results(&encode_results(&[], &unbounded)).unwrap();
        assert_eq!(decoded_stats.mem_budget, None);
    }

    #[test]
    fn trace_flag_round_trips_and_defaults_off() {
        let batch = vec![QuerySpec::parse("TL2:ss:2:2").unwrap()];
        let traced = encode_batch_request_traced(&batch, Some(500), true);
        let (queries, deadline_ms, trace) = decode_batch_request_traced(&traced).unwrap();
        assert_eq!(queries, batch);
        assert_eq!(deadline_ms, Some(500));
        assert!(trace);
        // Plain requests (and the untraced encoder) read as trace=false.
        let plain = encode_batch_request(&batch, None);
        let (_, _, trace) = decode_batch_request_traced(&plain).unwrap();
        assert!(!trace);
        assert!(decode_batch_request_traced(r#"{"queries": [], "trace": 1}"#).is_err());
    }

    #[test]
    fn stats_with_latency_carry_quantiles_and_stay_decodable() {
        let stats = ServiceStats {
            queries: 4,
            ..ServiceStats::default()
        };
        let latency = LatencyQuantiles {
            count: 4,
            p50_s: 0.125,
            p95_s: 0.5,
            p99_s: 2.0,
        };
        let body = encode_stats_full(&stats, &latency);
        let json = Json::parse(&body).unwrap();
        let member = json.get("latency").expect("latency member");
        assert_eq!(member.get("count").unwrap().as_usize(), Some(4));
        assert_eq!(member.get("p50_s").unwrap().as_f64(), Some(0.125));
        assert_eq!(member.get("p95_s").unwrap().as_f64(), Some(0.5));
        assert_eq!(member.get("p99_s").unwrap().as_f64(), Some(2.0));
        // Pre-quantile decoders ignore the member.
        let decoded = decode_stats(&json).unwrap();
        assert_eq!(decoded.queries, 4);
    }

    #[test]
    fn sessions_store_and_events_bodies_encode() {
        let sessions = vec![SessionInfo {
            threads: 3,
            vars: 2,
            resident_artifacts: 5,
            heap_bytes: 4096,
            builds: 7,
            rebuilds: 1,
            store_promotes: 2,
            lock_waits: 9,
            lock_wait_ns: 1234,
        }];
        let json = Json::parse(&encode_sessions(&sessions)).unwrap();
        let row = &json.get("sessions").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("threads").unwrap().as_usize(), Some(3));
        assert_eq!(row.get("lock_wait_ns").unwrap().as_usize(), Some(1234));

        let entries = vec![StoreEntry {
            file: "ab12.tmart".to_owned(),
            bytes: 100,
            age_secs: 60,
            last_used: 17,
        }];
        let json = Json::parse(&encode_store(&entries)).unwrap();
        assert_eq!(json.get("count").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("bytes").unwrap().as_usize(), Some(100));
        let file = &json.get("files").unwrap().as_arr().unwrap()[0];
        assert_eq!(file.get("file").unwrap().as_str(), Some("ab12.tmart"));

        let read = tm_obs::JournalRead {
            next_cursor: 12,
            dropped: 2,
            events: vec![(
                11,
                tm_obs::JournalEvent {
                    kind: tm_obs::EventKind::Build,
                    key: "(2,1)/run-graph/dstm".to_owned(),
                    request_id: "req-9".to_owned(),
                    bytes: 512,
                    at_unix_ms: 1_000,
                },
            )],
        };
        let json = Json::parse(&encode_events(&read)).unwrap();
        assert_eq!(json.get("next_cursor").unwrap().as_usize(), Some(12));
        assert_eq!(json.get("dropped").unwrap().as_usize(), Some(2));
        let event = &json.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(event.get("seq").unwrap().as_usize(), Some(11));
        assert_eq!(event.get("kind").unwrap().as_str(), Some("build"));
        assert_eq!(event.get("request_id").unwrap().as_str(), Some("req-9"));
    }

    #[test]
    fn legacy_busy_ns_bodies_still_decode() {
        // A stats body from a server predating the batch_ns rename.
        let body = r#"{"queries": 1, "cache_hits": 0, "artifact_builds": 1,
            "artifact_rebuilds": 0, "evictions": 0, "tracked_bytes": 10,
            "peak_tracked_bytes": 10, "mem_budget": null, "sessions": 1,
            "pool_size": 1, "busy_ns": 42}"#;
        let stats = decode_stats(&Json::parse(body).unwrap()).unwrap();
        assert_eq!(stats.batch_ns, 42, "busy_ns reads as batch_ns");
        assert_eq!(stats.busy_wall_ns, 0);
        assert_eq!(stats.uptime_ns, 0);
    }
}
