//! Wire framing: one compact JSON value per `\n`-terminated line.
//!
//! [`Json::to_string`](splash4_parmacs::Json::to_string) is single-line by
//! construction, so a newline is an unambiguous frame boundary and the
//! framing layer stays trivial — no length prefixes, no escaping beyond
//! JSON's own.

use splash4_harness::JobEvent;
use splash4_parmacs::Json;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Write one value as a frame and flush, so a waiting peer sees it
/// immediately (submit streams are consumed event by event).
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, v: &Json) -> io::Result<()> {
    let mut line = v.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Append one event's frame — the text of `ev.to_json()`, then the newline —
/// to `out`, so a burst of events can go out in one write. A `Done` event is
/// written around its result in place; `to_json` would deep-clone it first.
pub fn push_event_frame(out: &mut String, ev: &JobEvent) {
    let _ = match ev {
        JobEvent::Done {
            job,
            cached,
            result,
        } => write!(
            out,
            r#"{{"event":"done","job":{job},"cached":{cached},"result":{result}}}"#
        ),
        small => write!(out, "{}", small.to_json()),
    };
    out.push('\n');
}

/// Read the next frame. `Ok(None)` is a clean end-of-stream; blank lines are
/// skipped so interactive use (`nc`, test scripts) can be sloppy.
///
/// # Errors
/// `Err(e)` carries either the I/O failure or the JSON parse failure as a
/// message; framing errors are not recoverable mid-connection.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Json>, String> {
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                return Json::parse(text)
                    .map(Some)
                    .map_err(|e| format!("bad frame: {e}"));
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::json;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip_including_blank_lines() {
        let mut buf = Vec::new();
        let a = json!({ "op": "ping" });
        let b = json!({ "event": "done", "job": 3u64, "cached": true });
        write_frame(&mut buf, &a).unwrap();
        buf.extend_from_slice(b"\n   \n");
        write_frame(&mut buf, &b).unwrap();

        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(a));
        assert_eq!(read_frame(&mut r).unwrap(), Some(b));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn event_frames_are_the_text_of_to_json() {
        let events = [
            JobEvent::Queued { job: 1 },
            JobEvent::Running { job: 2 },
            JobEvent::Progress { job: 3, pct: 40 },
            JobEvent::Done {
                job: (1 << 53) - 1,
                cached: true,
                result: json!({ "text": "q\"uote\n☃", "n": 0.5, "list": json!([1, json!(null)]) }),
            },
            JobEvent::Error {
                job: 5,
                message: "a \"quoted\" cause".into(),
            },
        ];
        let mut out = String::new();
        for ev in &events {
            push_event_frame(&mut out, ev);
        }
        let want: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn bad_frame_reports_parse_error() {
        let mut r = BufReader::new(&b"{not json}\n"[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.starts_with("bad frame:"), "got: {err}");
    }
}
