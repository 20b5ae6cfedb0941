//! Hand-rolled JSON: a small value type, a strict parser, a renderer, and
//! the serializers for the simulator's report/error structures.
//!
//! The workspace builds offline, so there is no serde. Integers stay exact:
//! numbers without a fraction or exponent parse into [`Json::UInt`] /
//! [`Json::Int`] and render back digit-for-digit. That matters here —
//! response bodies are content-addressed and compared byte-for-byte by the
//! cache-soundness tests and the load generator, so rendering must be a
//! pure function of the simulation result.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer (u64-exact).
    UInt(u64),
    /// Negative integer (i64-exact).
    Int(i64),
    /// Any number written with a fraction or exponent.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Deepest container nesting the parser accepts. The parser is
/// recursive-descent, so without this bound a body of ~1 MiB of `[`
/// characters would overflow the handler thread's stack and abort the
/// process — a malformed request must never cost more than a 400.
pub const MAX_PARSE_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Render compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no NaN/Inf; null is the least-wrong encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Look up a key in an object (error when absent).
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.opt(key)?.ok_or_else(|| format!("missing key `{key}`"))
    }

    /// Look up a key in an object (`None` when absent or null).
    pub fn opt<'a>(&'a self, key: &str) -> Result<Option<&'a Json>, String> {
        match self {
            Json::Obj(o) => Ok(o
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Json::Null))),
            _ => Err(format!("`{key}`: not an object")),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::UInt(n) => Ok(*n),
            Json::Int(n) if *n >= 0 => Ok(*n as u64),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
            _ => Err(format!("{what}: expected non-negative integer")),
        }
    }

    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }

    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected array")),
        }
    }
}

/// Escape a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!("nesting deeper than {MAX_PARSE_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth + 1)?;
        out.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        let s = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let n = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(n).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            c => {
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let mut end = *pos;
                    while end < b.len() && (b[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if !s.contains(['.', 'e', 'E']) {
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{s}` at byte {start}"))
}

// ---------------------------------------------------------------------------
// Serializers for the simulator's structures (shared by the service, the
// load generator, and `bows-run --format json`).
// ---------------------------------------------------------------------------

use simt_core::{HangReport, KernelReport, SimError, SimStats, WarpSnapshot};
use simt_mem::MemStats;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// [`SimStats`] as a JSON object (raw counters plus the derived ratios the
/// paper's figures use).
pub fn sim_stats_json(s: &SimStats) -> Json {
    obj(vec![
        ("cycles", Json::UInt(s.cycles)),
        ("issued_inst", Json::UInt(s.issued_inst)),
        ("thread_inst", Json::UInt(s.thread_inst)),
        ("sync_thread_inst", Json::UInt(s.sync_thread_inst)),
        ("sib_inst", Json::UInt(s.sib_inst)),
        ("barriers", Json::UInt(s.barriers)),
        ("atomic_inst", Json::UInt(s.atomic_inst)),
        ("load_inst", Json::UInt(s.load_inst)),
        ("store_inst", Json::UInt(s.store_inst)),
        ("ctas_completed", Json::UInt(s.ctas_completed)),
        ("simd_efficiency", Json::Num(s.simd_efficiency())),
        ("sync_inst_fraction", Json::Num(s.sync_inst_fraction())),
        ("backed_off_fraction", Json::Num(s.backed_off_fraction())),
    ])
}

/// [`MemStats`] as a JSON object.
pub fn mem_stats_json(m: &MemStats) -> Json {
    obj(vec![
        ("l1_accesses", Json::UInt(m.l1_accesses)),
        ("l1_hits", Json::UInt(m.l1_hits)),
        ("l2_accesses", Json::UInt(m.l2_accesses)),
        ("l2_hits", Json::UInt(m.l2_hits)),
        ("dram_reads", Json::UInt(m.dram_reads)),
        ("dram_writes", Json::UInt(m.dram_writes)),
        ("atomic_transactions", Json::UInt(m.atomic_transactions)),
        ("atomic_lane_ops", Json::UInt(m.atomic_lane_ops)),
        ("total_transactions", Json::UInt(m.total_transactions)),
        ("sync_transactions", Json::UInt(m.sync_transactions)),
        ("lock_success", Json::UInt(m.lock_success)),
        ("lock_intra_fail", Json::UInt(m.lock_intra_fail)),
        ("lock_inter_fail", Json::UInt(m.lock_inter_fail)),
    ])
}

fn warp_snapshot_json(w: &WarpSnapshot) -> Json {
    obj(vec![
        ("sm", Json::UInt(w.sm as u64)),
        ("warp", Json::UInt(w.warp as u64)),
        ("pc", Json::UInt(w.pc as u64)),
        ("stack_depth", Json::UInt(w.stack_depth as u64)),
        ("active_lanes", Json::UInt(w.active_lanes as u64)),
        ("outstanding_mem", Json::UInt(w.outstanding_mem as u64)),
        ("at_barrier", Json::Bool(w.at_barrier)),
        ("waiting_membar", Json::Bool(w.waiting_membar)),
        ("backed_off", Json::Bool(w.backed_off)),
        ("spin_iters", Json::UInt(w.spin_iters)),
        ("idle_cycles", Json::UInt(w.idle_cycles)),
        ("pc_stuck_cycles", Json::UInt(w.pc_stuck_cycles)),
    ])
}

/// [`HangReport`] as a JSON object (class, cycle, and every live warp).
pub fn hang_report_json(r: &HangReport) -> Json {
    obj(vec![
        ("class", Json::Str(r.class.to_string())),
        ("cycle", Json::UInt(r.cycle)),
        ("scheduler", Json::Str(r.scheduler.clone())),
        ("mem_in_flight", Json::UInt(r.mem_in_flight as u64)),
        ("lock_success", Json::UInt(r.lock_success)),
        ("lock_fails", Json::UInt(r.lock_fails)),
        (
            "warps",
            Json::Arr(r.warps.iter().map(warp_snapshot_json).collect()),
        ),
    ])
}

/// [`SimError`] as a structured JSON object: a machine-readable `kind`, the
/// human-readable message, and the hang diagnosis when one exists.
pub fn sim_error_json(e: &SimError) -> Json {
    let kind = match e {
        SimError::Deadlock { .. } => "deadlock",
        SimError::CycleLimit { .. } => "cycle_limit",
        SimError::LaunchTooLarge { .. } => "launch_too_large",
        SimError::InternalInvariant { .. } => "internal_invariant",
        SimError::DeviceFault { .. } => "device_fault",
        SimError::Cancelled { .. } => "cancelled",
        SimError::InvalidConfig { .. } => "invalid_config",
        _ => "sim_error",
    };
    let mut fields = vec![
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(e.to_string())),
    ];
    if let Some(report) = e.hang_report() {
        fields.push(("hang", hang_report_json(report)));
    }
    obj(fields)
}

/// The one error envelope: `{"error":{"kind":..,"message":..}}`, rendered.
/// Every error body the service writes that is not a [`SimError`] — HTTP
/// rejections, admission refusals, worker loss, assembly errors — is this.
pub fn error_body(kind: &str, message: &str) -> String {
    obj(vec![(
        "error",
        obj(vec![
            ("kind", Json::Str(kind.into())),
            ("message", Json::Str(message.into())),
        ]),
    )])
    .render()
}

/// A lint [`Witness`](simt_analyze::Witness) as a tagged JSON object: the
/// machine-readable evidence behind a diagnostic (the racing instruction
/// pair and its locksets, the leaked lock and a path to the exit, the
/// lock cycle, or the spin/acquire structure of a SIMT deadlock).
pub fn witness_json(w: &simt_analyze::Witness) -> Json {
    use simt_analyze::Witness;
    match w {
        Witness::Race {
            a_pc,
            b_pc,
            location,
            lockset_a,
            lockset_b,
            phase_a,
            phase_b,
        } => obj(vec![
            ("type", Json::Str("race".into())),
            ("a_pc", Json::UInt(*a_pc as u64)),
            ("b_pc", Json::UInt(*b_pc as u64)),
            ("location", Json::Str(location.clone())),
            (
                "lockset_a",
                Json::Arr(lockset_a.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
            (
                "lockset_b",
                Json::Arr(lockset_b.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
            ("phase_a", Json::UInt(*phase_a as u64)),
            ("phase_b", Json::UInt(*phase_b as u64)),
        ]),
        Witness::HeldAtExit {
            lock,
            acquire_pc,
            exit_pc,
            path,
        } => obj(vec![
            ("type", Json::Str("held-at-exit".into())),
            ("lock", Json::Str(lock.clone())),
            ("acquire_pc", Json::UInt(*acquire_pc as u64)),
            ("exit_pc", Json::UInt(*exit_pc as u64)),
            (
                "path",
                Json::Arr(path.iter().map(|&pc| Json::UInt(pc as u64)).collect()),
            ),
        ]),
        Witness::LockCycle { cycle } => obj(vec![
            ("type", Json::Str("lock-cycle".into())),
            (
                "cycle",
                Json::Arr(
                    cycle
                        .iter()
                        .map(|(lock, pc)| {
                            obj(vec![
                                ("lock", Json::Str(lock.clone())),
                                ("acquire_pc", Json::UInt(*pc as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Witness::SpinHold {
            loop_branch_pc,
            acquire_pc,
            release_pc,
        } => obj(vec![
            ("type", Json::Str("spin-hold".into())),
            ("loop_branch_pc", Json::UInt(*loop_branch_pc as u64)),
            ("acquire_pc", Json::UInt(*acquire_pc as u64)),
            (
                "release_pc",
                match release_pc {
                    Some(pc) => Json::UInt(*pc as u64),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

/// One lint [`Diagnostic`](simt_analyze::Diagnostic) as a JSON object.
/// `line` is the kernel source line of the flagged instruction (0 when
/// unknown). This is the one wire format for diagnostics: `bows-run
/// --lint --format json`, the service's pre-admission 422 body, and CI all
/// consume it.
pub fn diagnostic_json(d: &simt_analyze::Diagnostic, line: u32) -> Json {
    let mut fields = vec![
        ("severity", Json::Str(d.severity.to_string())),
        ("lint", Json::Str(d.kind.name().to_string())),
        ("pc", Json::UInt(d.pc as u64)),
        ("block", Json::UInt(d.block as u64)),
        ("line", Json::UInt(u64::from(line))),
        ("message", Json::Str(d.message.clone())),
    ];
    if let Some(w) = &d.witness {
        fields.push(("witness", witness_json(w)));
    }
    obj(fields)
}

/// All diagnostics of an analysis, with source lines resolved from the
/// instruction stream. Order is the analyzer's deterministic
/// (severity, pc, lint) order, so the rendered array is byte-stable.
pub fn diagnostics_json(insts: &[simt_isa::Inst], diags: &[simt_analyze::Diagnostic]) -> Json {
    Json::Arr(
        diags
            .iter()
            .map(|d| diagnostic_json(d, insts.get(d.pc).map_or(0, |i| i.line)))
            .collect(),
    )
}

/// A successful [`KernelReport`] as a JSON object. `dumps` carries the
/// requested post-run buffer dumps keyed by parameter slot.
pub fn kernel_report_json(r: &KernelReport, dumps: &[(usize, Vec<u32>)]) -> Json {
    obj(vec![
        ("cycles", Json::UInt(r.cycles)),
        ("scheduler", Json::Str(r.scheduler.clone())),
        ("detector", Json::Str(r.detector.clone())),
        ("time_ms", Json::Num(r.time_ms)),
        ("sim", sim_stats_json(&r.sim)),
        ("mem", mem_stats_json(&r.mem)),
        (
            "confirmed_sibs",
            Json::Arr(
                r.confirmed_sibs
                    .iter()
                    .map(|&(pc, cy)| Json::Arr(vec![Json::UInt(pc as u64), Json::UInt(cy)]))
                    .collect(),
            ),
        ),
        (
            "dumps",
            Json::Obj(
                dumps
                    .iter()
                    .map(|(slot, words)| {
                        (
                            slot.to_string(),
                            Json::Arr(words.iter().map(|&w| Json::UInt(w as u64)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip_exactly() {
        let big = u64::MAX;
        let j = Json::parse(&format!("{{\"a\":{big},\"b\":-7,\"c\":1.5}}")).unwrap();
        assert_eq!(j.get("a").unwrap(), &Json::UInt(big));
        assert_eq!(j.get("b").unwrap(), &Json::Int(-7));
        assert_eq!(j.get("c").unwrap(), &Json::Num(1.5));
        assert_eq!(j.render(), format!("{{\"a\":{big},\"b\":-7,\"c\":1.5}}"));
    }

    #[test]
    fn render_parse_roundtrip() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("n".into(), Json::UInt(42)),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Well past any legitimate request, far under the thread stack.
        let bombs = [
            "[".repeat(500_000),
            "{\"a\":".repeat(500_000),
            format!(
                "{}1{}",
                "[".repeat(MAX_PARSE_DEPTH + 1),
                "]".repeat(MAX_PARSE_DEPTH + 1)
            ),
        ];
        for bomb in &bombs {
            let err = Json::parse(bomb).unwrap_err();
            assert!(err.contains("nesting"), "got: {err}");
        }
        // Nesting at the bound still parses.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn opt_skips_null() {
        let j = Json::parse("{\"a\":null,\"b\":1}").unwrap();
        assert_eq!(j.opt("a").unwrap(), None);
        assert_eq!(j.opt("b").unwrap(), Some(&Json::UInt(1)));
        assert_eq!(j.opt("c").unwrap(), None);
    }

    #[test]
    fn sim_error_json_has_kind_and_hang() {
        let e = SimError::LaunchTooLarge {
            reason: "too big".into(),
        };
        let j = sim_error_json(&e);
        assert_eq!(
            j.get("kind").unwrap().as_str("kind").unwrap(),
            "launch_too_large"
        );
        assert!(j.opt("hang").unwrap().is_none());
    }
}
