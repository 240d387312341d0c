//! Trace export: render [`Event`] timelines as Chrome trace-event JSON.
//!
//! The output is the JSON-object flavour of the [trace-event format]
//! (`{"traceEvents": [...]}`) that both `chrome://tracing` and Perfetto
//! load directly: save the string to a `.json` file, open
//! <https://ui.perfetto.dev>, drag the file in.
//!
//! Mapping — one *track* (trace thread) per device, all under one process:
//!
//! * each [`EventKind::SpanExit`] becomes a `ph:"X"` *complete slice* for
//!   its phase (`queue`/`resolve`/`tune`/`exec`), reconstructed from the
//!   exit stamp and the span's own elapsed time — the one event a span
//!   records, so no begin/end pairing is needed;
//! * each [`EventKind::Launch`] becomes one slice spanning the *simulated*
//!   kernel time of the whole coalesced wave — batched waves appear as
//!   single slices (`wave 3 ×4`), exactly how the executor billed them;
//! * terminal [`EventKind::Complete`] events become instants on their
//!   track.
//!
//! Per-member `Execute`/`Admit`/`Queued` bookkeeping events are deliberately
//! not emitted as slices: the span and wave slices already carry the time,
//! and the whole point of wave coalescing is that members share one launch.
//!
//! Timestamps are microseconds of host wall clock since the owning
//! `Telemetry` epoch (`wall_s * 1e6`), except wave slices whose *duration*
//! is simulated GPU time — the convention the rest of the stack uses
//! (host clock orders, simulated clock sizes).
//!
//! No serde exists in this workspace, so the module hand-writes its JSON
//! and ships [`validate_json`], a small strict syntax checker the tests
//! (and file-writing callers) use as a tripwire.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::{Event, EventKind};

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Shared trailer of every emitted trace event: request/plan/attempt args.
fn common_args(e: &Event) -> String {
    format!(
        "\"request_id\":{},\"plan_key\":\"{:#018x}\",\"attempt\":{}",
        e.request_id, e.plan_key, e.attempt
    )
}

/// Render named per-device event tracks as Chrome trace-event JSON.
///
/// `tracks` pairs a device label with that device's events (a
/// `TraceLog::snapshot()`); track order fixes the `tid` assignment, so
/// pass a deterministic order for reproducible files. Events that do not
/// map to a slice or instant (see module docs) are skipped.
pub fn chrome_trace_json(tracks: &[(String, Vec<Event>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for (tid, (name, events)) in tracks.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ),
            &mut out,
            &mut first,
        );
        for e in events {
            let ts_us = e.wall_s * 1e6;
            let rendered = match e.kind {
                EventKind::SpanExit { phase, elapsed_s } => Some(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                    phase.name(),
                    (e.wall_s - elapsed_s).max(0.0) * 1e6,
                    elapsed_s * 1e6,
                    common_args(e)
                )),
                EventKind::Launch {
                    wave_id,
                    members,
                    launch_share,
                } => Some(format!(
                    "{{\"name\":\"wave {wave_id} \u{d7}{members}\",\"cat\":\"wave\",\
                     \"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts_us:.3},\
                     \"dur\":{:.3},\"args\":{{\"wave_id\":{wave_id},\
                     \"members\":{members},\"launch_share\":{launch_share:.6},{}}}}}",
                    e.sim_s * 1e6,
                    common_args(e)
                )),
                EventKind::Complete { terminal } => Some(format!(
                    "{{\"name\":\"complete: {terminal}\",\"cat\":\"lifecycle\",\
                     \"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
                     \"ts\":{ts_us:.3},\"args\":{{{}}}}}",
                    common_args(e)
                )),
                _ => None,
            };
            if let Some(r) = rendered {
                push(r, &mut out, &mut first);
            }
        }
    }
    out.push_str("]}");
    out
}

/// Strict JSON *syntax* check (RFC 8259 grammar, no semantic schema): `Ok`
/// when `s` is exactly one valid JSON value, `Err` with a byte offset and
/// reason otherwise. The trace tests use it as a tripwire on the
/// hand-written exporter; callers writing files may too.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, i),
        Some(c) => Err(format!("unexpected byte {c:?} at offset {i}", i = *i)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], i: &mut usize, word: &[u8]) -> Result<(), String> {
    if b.len() >= *i + word.len() && &b[*i..*i + word.len()] == word {
        *i += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {i}", i = *i))
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // opening quote
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at offset {i}", i = *i));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at offset {i}", i = *i)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte at offset {i}", i = *i)),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_digits = eat_digits(b, i);
    if int_digits == 0 {
        return Err(format!("bad number at offset {start}"));
    }
    // Leading zeros are invalid JSON ("01"), a lone zero fine.
    if int_digits > 1 && b[if b[start] == b'-' { start + 1 } else { start }] == b'0' {
        return Err(format!("leading zero at offset {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if eat_digits(b, i) == 0 {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if eat_digits(b, i) == 0 {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

fn eat_digits(b: &[u8], i: &mut usize) -> usize {
    let start = *i;
    while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
        *i += 1;
    }
    *i - start
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at offset {i}", i = *i));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at offset {i}", i = *i));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {i}", i = *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {i}", i = *i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, Terminal};

    fn ev(request_id: u64, wall_s: f64, kind: EventKind) -> Event {
        Event {
            seq: 0,
            request_id,
            plan_key: 0xabc,
            wall_s,
            sim_s: 0.0,
            attempt: 0,
            kind,
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("{}").is_ok());
        assert!(validate_json("[1, 2.5, -3e2, \"a\\nb\", true, null, {\"k\":[]}]").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("01").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} {}").is_err());
        assert!(validate_json("{\"a\"}").is_err());
    }

    #[test]
    fn export_is_valid_json_with_one_track_per_device() {
        let mut launch = ev(
            1,
            0.002,
            EventKind::Launch {
                wave_id: 3,
                members: 4,
                launch_share: 0.25,
            },
        );
        launch.sim_s = 50e-6;
        let tracks = vec![
            (
                "dev0".to_string(),
                vec![
                    ev(
                        1,
                        0.001,
                        EventKind::SpanExit {
                            phase: Phase::Queue,
                            elapsed_s: 0.0005,
                        },
                    ),
                    launch,
                    ev(
                        1,
                        0.003,
                        EventKind::Complete {
                            terminal: Terminal::Done,
                        },
                    ),
                ],
            ),
            (
                "dev\"1\"".to_string(), // exercises escaping
                vec![ev(
                    2,
                    0.004,
                    EventKind::Complete {
                        terminal: Terminal::Failed,
                    },
                )],
            ),
        ];
        let json = chrome_trace_json(&tracks);
        validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
        // One thread_name metadata record per track, with escaped names.
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(json.contains("\"args\":{\"name\":\"dev0\"}"), "{json}");
        assert!(json.contains("dev\\\"1\\\""), "{json}");
        // The coalesced wave is one slice carrying its member count.
        assert_eq!(json.matches("\"cat\":\"wave\"").count(), 1);
        assert!(json.contains("\"name\":\"wave 3 \u{d7}4\""), "{json}");
        assert!(json.contains("\"dur\":50.000"), "{json}");
        // The queue span became a complete slice starting at exit−elapsed.
        assert!(json.contains("\"name\":\"queue\""), "{json}");
        assert!(json.contains("\"ts\":500.000,\"dur\":500.000"), "{json}");
        // Tracks get distinct tids; each terminal is an instant on its own
        // track.
        assert!(json.contains("\"tid\":1"), "{json}");
        assert_eq!(
            json.matches("\"ph\":\"i\",\"s\":\"t\"").count(),
            2,
            "{json}"
        );
        assert!(json.contains("\"name\":\"complete: failed\""), "{json}");
    }

    #[test]
    fn bookkeeping_events_are_not_slices() {
        let tracks = vec![(
            "dev0".to_string(),
            vec![
                ev(1, 0.0, EventKind::Admit),
                ev(1, 0.0, EventKind::Queued),
                ev(
                    1,
                    0.001,
                    EventKind::Execute {
                        wave_id: 0,
                        coalesced: true,
                        launch_share: 0.5,
                    },
                ),
            ],
        )];
        let json = chrome_trace_json(&tracks);
        validate_json(&json).unwrap();
        // Only the thread_name metadata record survives.
        assert_eq!(json.matches("\"ph\":").count(), 1);
    }
}
