//! Trace serialization: a compact binary format.
//!
//! Binary layout (all integers little-endian):
//!
//! ```text
//! magic  b"S4TR"
//! u32    format version (1)
//! u32    name length, followed by that many UTF-8 bytes
//! u32    nthreads
//! u64    dropped-event count
//! per thread:
//!   u64  event count
//!   24-byte records: ts_ns u64 | payload u64 | kind u8 | class u8
//!                    | flag u8 | pad u8 | n u32
//! ```
//!
//! `payload` carries the 64-bit field of `Compute`/`LockAcq`; `n` carries
//! counts and barrier ids; `class` indexes
//! [`ConstructClass::ALL`](splash4_parmacs::ConstructClass::ALL) (0xFF when
//! unused). The round trip is lossless.

use crate::{Stamped, Trace};
use splash4_parmacs::{ConstructClass, TraceEvent};

/// Binary format magic.
pub const MAGIC: &[u8; 4] = b"S4TR";
/// Binary format version.
pub const VERSION: u32 = 1;
const RECORD_BYTES: usize = 24;

/// A malformed input to [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

fn class_index(class: ConstructClass) -> u8 {
    ConstructClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("class present in ALL") as u8
}

fn class_from_index(i: u8) -> Result<ConstructClass, CodecError> {
    ConstructClass::ALL
        .get(usize::from(i))
        .copied()
        .ok_or_else(|| CodecError(format!("bad class index {i}")))
}

/// (kind, payload, class, flag, n) quintet for one event.
fn fields(event: TraceEvent) -> (u8, u64, u8, u8, u32) {
    match event {
        TraceEvent::Compute { ns } => (0, ns, 0xFF, 0, 0),
        TraceEvent::Rmw { class, n } => (1, 0, class_index(class), 0, n),
        TraceEvent::LockAcq { contended, hold_ns } => (2, hold_ns, 0xFF, u8::from(contended), 0),
        TraceEvent::BarrierEnter { id } => (3, 0, 0xFF, 0, id),
        TraceEvent::BarrierExit { id } => (4, 0, 0xFF, 0, id),
        TraceEvent::Getsub { n } => (5, 0, 0xFF, 0, n),
        TraceEvent::Enqueue => (6, 0, 0xFF, 0, 0),
        TraceEvent::Dequeue => (7, 0, 0xFF, 0, 0),
    }
}

fn event_from_fields(
    kind: u8,
    payload: u64,
    class: u8,
    flag: u8,
    n: u32,
) -> Result<TraceEvent, CodecError> {
    Ok(match kind {
        0 => TraceEvent::Compute { ns: payload },
        1 => TraceEvent::Rmw {
            class: class_from_index(class)?,
            n,
        },
        2 => TraceEvent::LockAcq {
            contended: flag != 0,
            hold_ns: payload,
        },
        3 => TraceEvent::BarrierEnter { id: n },
        4 => TraceEvent::BarrierExit { id: n },
        5 => TraceEvent::Getsub { n },
        6 => TraceEvent::Enqueue,
        7 => TraceEvent::Dequeue,
        k => return err(format!("bad event kind {k}")),
    })
}

/// Serialize `trace` to the binary format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let total: usize = trace.len();
    let mut out = Vec::with_capacity(28 + trace.name().len() + total * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.name().len() as u32).to_le_bytes());
    out.extend_from_slice(trace.name().as_bytes());
    out.extend_from_slice(&(trace.nthreads() as u32).to_le_bytes());
    out.extend_from_slice(&trace.dropped().to_le_bytes());
    for evs in trace.threads() {
        out.extend_from_slice(&(evs.len() as u64).to_le_bytes());
        for s in evs {
            let (kind, payload, class, flag, n) = fields(s.event);
            out.extend_from_slice(&s.ts_ns.to_le_bytes());
            out.extend_from_slice(&payload.to_le_bytes());
            out.push(kind);
            out.push(class);
            out.push(flag);
            out.push(0);
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => err("truncated input"),
        }
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Deserialize a trace from the binary format.
pub fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return err("bad magic");
    }
    let version = r.u32()?;
    if version != VERSION {
        return err(format!("unsupported version {version}"));
    }
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CodecError("name is not UTF-8".into()))?
        .to_owned();
    let nthreads = r.u32()? as usize;
    let dropped = r.u64()?;
    let mut threads = Vec::with_capacity(nthreads.min(1024));
    for _ in 0..nthreads {
        let count = r.u64()? as usize;
        if count * RECORD_BYTES > bytes.len() - r.pos {
            return err("event count exceeds input size");
        }
        let mut evs = Vec::with_capacity(count);
        for _ in 0..count {
            let ts_ns = r.u64()?;
            let payload = r.u64()?;
            let tail = r.take(8)?;
            let (kind, class, flag) = (tail[0], tail[1], tail[2]);
            let n = u32::from_le_bytes(tail[4..8].try_into().unwrap());
            evs.push(Stamped {
                ts_ns,
                event: event_from_fields(kind, payload, class, flag, n)?,
            });
        }
        threads.push(evs);
    }
    if r.pos != bytes.len() {
        return err("trailing bytes after trace");
    }
    Ok(Trace::from_parts(name, threads, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let every = vec![
            Stamped {
                ts_ns: 10,
                event: TraceEvent::Compute { ns: 1 << 40 },
            },
            Stamped {
                ts_ns: 20,
                event: TraceEvent::Rmw {
                    class: ConstructClass::Reduction,
                    n: 3,
                },
            },
            Stamped {
                ts_ns: 30,
                event: TraceEvent::LockAcq {
                    contended: true,
                    hold_ns: 77,
                },
            },
            Stamped {
                ts_ns: 40,
                event: TraceEvent::BarrierEnter { id: 2 },
            },
            Stamped {
                ts_ns: 50,
                event: TraceEvent::BarrierExit { id: 2 },
            },
            Stamped {
                ts_ns: 60,
                event: TraceEvent::Getsub { n: 16 },
            },
            Stamped {
                ts_ns: 70,
                event: TraceEvent::Enqueue,
            },
            Stamped {
                ts_ns: 80,
                event: TraceEvent::Dequeue,
            },
        ];
        Trace::from_parts("sample", vec![every, Vec::new()], 5)
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let t = sample();
        let decoded = decode(&encode(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn malformed_binary_is_rejected() {
        assert!(decode(b"").is_err());
        assert!(decode(b"NOPE").is_err());
        let mut good = encode(&sample());
        good.push(0); // trailing byte
        assert!(decode(&good).is_err());
        let mut bad_version = encode(&sample());
        bad_version[4] = 99;
        assert!(decode(&bad_version).is_err());
        // Event count far beyond the buffer must fail fast, not OOM.
        let truncated = &encode(&sample())[..30];
        assert!(decode(truncated).is_err());
    }
}
