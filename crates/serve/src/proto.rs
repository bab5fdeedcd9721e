//! Wire framing: one compact JSON value per `\n`-terminated line.
//!
//! A [`Json`] value's `to_string` (its `Display`) is single-line by
//! construction, so a newline is an unambiguous frame boundary and the
//! framing layer stays trivial — no length prefixes, no escaping beyond
//! JSON's own. Server and client read with the same [`read_frame`], so the
//! frame bound, [`MAX_FRAME_BYTES`], holds on both sides.

use splash4_harness::JobEvent;
use splash4_parmacs::Json;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};

/// Write one value as a frame and flush, so a waiting peer sees it
/// immediately (submit streams are consumed event by event).
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, v: &Json) -> io::Result<()> {
    let mut line = String::new();
    v.write_compact(&mut line);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Append one event's frame — the text of `ev.to_json()`, then the newline —
/// to `out`, so a burst of events can go out in one write. A `Done` event is
/// written around its result in place; `to_json` would deep-clone it first,
/// and `Display` would render it into a temporary `String`.
pub fn push_event_frame(out: &mut String, ev: &JobEvent) {
    match ev {
        JobEvent::Done {
            job,
            cached,
            result,
        } => {
            let _ = write!(
                out,
                r#"{{"event":"done","job":{job},"cached":{cached},"result":"#
            );
            result.write_compact(out);
            out.push('}');
        }
        small => small.to_json().write_compact(out),
    }
    out.push('\n');
}

/// Longest frame either side reads (a submit frame is well under 1 KiB, the
/// largest reply tens of KiB). A longer one is an error, so a peer that never
/// sends a newline cannot make the reader buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Read the next frame, blocking until it is complete. `Ok(None)` is a clean
/// end-of-stream; a final frame without its newline still counts, and blank
/// lines are skipped so interactive use (`nc`, test scripts) can be sloppy.
///
/// # Errors
/// `Err(e)` carries the I/O failure, the JSON parse failure, or a frame past
/// [`MAX_FRAME_BYTES`] as a message; framing errors are not recoverable
/// mid-connection.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Json>, String> {
    let (mut line, limit) = (Vec::new(), MAX_FRAME_BYTES as u64 + 1);
    loop {
        line.clear();
        match r.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(None),
            Ok(n) if n > MAX_FRAME_BYTES && !line.ends_with(b"\n") => {
                return Err(format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
            }
            Ok(_) => {
                let text = std::str::from_utf8(&line)
                    .map_err(|e| format!("bad frame: {e}"))?
                    .trim();
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
    fn event_frame_bytes_are_pinned() {
        let mut out = String::new();
        push_event_frame(
            &mut out,
            &JobEvent::Done {
                job: 9,
                cached: false,
                result: json!({ "total_ns": 9_194_433u64, "f": 0.25, "s": "a\"b\tc", "xs": json!([1, json!(null), true]), "o": json!({}) }),
            },
        );
        push_event_frame(&mut out, &JobEvent::Progress { job: 3, pct: 40 });
        assert_eq!(
            out,
            concat!(
                r#"{"event":"done","job":9,"cached":false,"result":{"total_ns":9194433,"f":0.25,"s":"a\"b\tc","xs":[1,null,true],"o":{}}}"#,
                "\n",
                r#"{"event":"progress","job":3,"pct":40}"#,
                "\n"
            )
        );
    }

    #[test]
    fn frames_are_bounded_and_a_final_frame_needs_no_newline() {
        let at_bound = format!("\"{}\"", "x".repeat(MAX_FRAME_BYTES - 2));
        let mut input = format!("{at_bound}\n{{\"op\":\"ping\"}}").into_bytes();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_frame(&mut r)
                .unwrap()
                .and_then(|v| v.as_str().map(str::len)),
            Some(MAX_FRAME_BYTES - 2)
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some(json!({ "op": "ping" })));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        input.insert(0, b' ');
        let err = read_frame(&mut BufReader::new(&input[..])).unwrap_err();
        assert_eq!(err, "frame exceeds 1048576 bytes");
    }

    #[test]
    fn bad_frame_reports_parse_error() {
        let mut r = BufReader::new(&b"{not json}\n"[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.starts_with("bad frame:"), "got: {err}");
    }
}
