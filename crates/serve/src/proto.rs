//! The `escalate-serve/v1` wire protocol: line-delimited JSON over TCP.
//!
//! One connection carries one request — a single JSON object on one line —
//! and receives a stream of response frames, one JSON object per line,
//! until the server closes the connection. Control verbs (`ping`,
//! `metrics`, `shutdown`) answer with exactly one frame; job verbs
//! (`simulate`, `compress`, `report`) answer with an `accepted` (or
//! `rejected`/`error`) frame, then stream one `unit` frame per completed
//! work unit — each embedding an `escalate-run-manifest/v1` record — and
//! finish with a `done` frame carrying the rendered output, byte-identical
//! to the one-shot CLI's. Frames and requests are hand-rendered/scanned
//! (no external JSON dependency), mirroring the rest of the workspace.

use escalate_obs::jsonl::{json_bool_field, json_has_field, json_string_field, json_u64_field};
use escalate_obs::JsonWriter;
use std::io::{BufRead, Read, Write};

/// Protocol schema identifier (the `"schema"` field of `accepted` frames).
pub const PROTOCOL_SCHEMA: &str = "escalate-serve/v1";

pub use escalate_bench::jobs::MANIFEST_SCHEMA;

/// Upper bound on one frame line, request or response. A request larger
/// than this is rejected before parsing (the daemon never buffers an
/// unbounded line from an untrusted client).
pub const MAX_FRAME: usize = 64 * 1024;

/// How long a rejected client should wait before retrying, in the
/// `retry_after_ms` field of `rejected` frames.
pub const RETRY_AFTER_MS: u64 = 250;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Four-accelerator comparison (the `escalate simulate` table).
    Simulate {
        /// Model spec: a zoo name, `@FILE` network description, or
        /// `gen:NAME[:key=value,...]` generator (see `escalate_models::resolve`).
        model: String,
        /// Basis kernels M.
        m: usize,
        /// Input seeds averaged.
        seeds: u64,
        /// Schedule spelling (`"serial"` or `"pipelined"`); the wire
        /// default is `"serial"`, which keeps old clients byte-identical.
        schedule: String,
    },
    /// Compression pipeline (the `escalate compress` report).
    Compress {
        /// Model name.
        model: String,
        /// Basis kernels M.
        m: usize,
        /// QAT epochs.
        qat: usize,
        /// Compression RNG seed.
        seed: u64,
        /// Include the per-layer table.
        layers: bool,
    },
    /// One registered experiment (the `escalate report <NAME>` text).
    Report {
        /// Registry name of the experiment.
        experiment: String,
    },
    /// Render the daemon's metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Graceful drain: finish queued jobs, then exit.
    Shutdown,
}

impl Request {
    /// The verb string this request parses from / renders to.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Simulate { .. } => "simulate",
            Request::Compress { .. } => "compress",
            Request::Report { .. } => "report",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether this request enqueues a job (as opposed to a control verb
    /// the accept loop answers inline).
    pub fn is_job(&self) -> bool {
        matches!(
            self,
            Request::Simulate { .. } | Request::Compress { .. } | Request::Report { .. }
        )
    }

    /// Renders the request as its one-line JSON wire form.
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("verb", self.verb());
        match self {
            Request::Simulate {
                model,
                m,
                seeds,
                schedule,
            } => {
                w.field_str("model", model);
                w.field_u64("m", *m as u64);
                w.field_u64("seeds", *seeds);
                w.field_str("schedule", schedule);
            }
            Request::Compress {
                model,
                m,
                qat,
                seed,
                layers,
            } => {
                w.field_str("model", model);
                w.field_u64("m", *m as u64);
                w.field_u64("qat", *qat as u64);
                w.field_u64("seed", *seed);
                w.field_bool("layers", *layers);
            }
            Request::Report { experiment } => {
                w.field_str("experiment", experiment);
            }
            Request::Metrics | Request::Ping | Request::Shutdown => {}
        }
        w.end_object();
        w.finish()
    }
}

/// Reads an optional field of a request line: `None` when absent,
/// `scan`'s value when present, and an error naming the field when its
/// value does not parse.
fn optional<T>(
    line: &str,
    key: &str,
    scan: fn(&str, &str) -> Option<T>,
) -> Result<Option<T>, String> {
    if !json_has_field(line, key) {
        return Ok(None);
    }
    scan(line, key)
        .map(Some)
        .ok_or_else(|| format!("malformed {key:?} field"))
}

/// Parses one request line.
///
/// An absent optional field takes its default; a present one whose value
/// does not parse (`"m": -3`, `"seeds": "six"`, `"layers": 1`) is an
/// error, never a silent default.
///
/// # Errors
///
/// Returns a user-facing message naming the missing/invalid field; the
/// server sends it back verbatim in an `error` frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let verb = json_string_field(line, "verb")
        .ok_or_else(|| "request has no \"verb\" field".to_string())?;
    let model = |l: &str| {
        json_string_field(l, "model")
            .ok_or_else(|| format!("{verb:?} request has no \"model\" field"))
    };
    match verb.as_str() {
        "simulate" => Ok(Request::Simulate {
            model: model(line)?,
            m: optional(line, "m", json_u64_field)?.unwrap_or(6) as usize,
            seeds: optional(line, "seeds", json_u64_field)?.unwrap_or(1),
            schedule: optional(line, "schedule", json_string_field)?
                .unwrap_or_else(|| "serial".to_string()),
        }),
        "compress" => Ok(Request::Compress {
            model: model(line)?,
            m: optional(line, "m", json_u64_field)?.unwrap_or(6) as usize,
            qat: optional(line, "qat", json_u64_field)?.unwrap_or(0) as usize,
            seed: optional(line, "seed", json_u64_field)?.unwrap_or(42),
            layers: optional(line, "layers", json_bool_field)?.unwrap_or(false),
        }),
        "report" => Ok(Request::Report {
            experiment: json_string_field(line, "experiment")
                .ok_or_else(|| "\"report\" request has no \"experiment\" field".to_string())?,
        }),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown verb {other:?} (expected simulate|compress|report|metrics|ping|shutdown)"
        )),
    }
}

/// Reads one frame line, bounded by [`MAX_FRAME`]. `Ok(None)` on a clean
/// EOF before any byte of a new frame.
///
/// # Errors
///
/// An oversized frame returns `InvalidData` (the caller reports it and
/// drops the connection); other I/O failures propagate.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.by_ref().take(MAX_FRAME as u64 + 1).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame exceeds {MAX_FRAME} bytes"),
        ));
    }
    Ok(Some(line.trim_end_matches(['\n', '\r']).to_string()))
}

/// Writes one frame line and flushes it (streamed frames must not sit in
/// a buffer while later units run).
///
/// # Errors
///
/// Propagates write failures (a disconnected client).
pub fn write_frame(w: &mut dyn Write, frame: &str) -> std::io::Result<()> {
    w.write_all(frame.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn frame(kind: &str, fill: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("type", kind);
    fill(&mut w);
    w.end_object();
    w.finish()
}

/// `accepted`: the job is queued; `unit`/`done` frames follow.
pub fn frame_accepted(job: u64, queue_depth: usize) -> String {
    frame("accepted", |w| {
        w.field_str("schema", PROTOCOL_SCHEMA);
        w.field_u64("job", job);
        w.field_u64("queue_depth", queue_depth as u64);
    })
}

/// `rejected`: backpressure — the queue is full (or draining); retry
/// after `retry_after_ms`.
pub fn frame_rejected(reason: &str, retry_after_ms: u64) -> String {
    frame("rejected", |w| {
        w.field_str("reason", reason);
        w.field_u64("retry_after_ms", retry_after_ms);
    })
}

/// `error`: the request or job failed; the connection closes after this.
pub fn frame_error(job: Option<u64>, message: &str) -> String {
    frame("error", |w| {
        if let Some(id) = job {
            w.field_u64("job", id);
        }
        w.field_str("message", message);
    })
}

/// `unit`: one completed work unit, embedding its pre-rendered
/// [`MANIFEST_SCHEMA`] record verbatim.
pub fn frame_unit(job: u64, record: &str) -> String {
    frame("unit", |w| {
        w.field_u64("job", job);
        w.key("record");
        w.raw(record);
    })
}

/// `done`: the job finished; `output` is the rendered text the one-shot
/// CLI would have printed.
pub fn frame_done(job: u64, units: u64, ms: f64, output: &str) -> String {
    frame("done", |w| {
        w.field_u64("job", job);
        w.field_u64("units", units);
        w.field_f64("ms", ms);
        w.field_str("output", output);
    })
}

/// `pong`: liveness reply.
pub fn frame_pong() -> String {
    frame("pong", |w| {
        w.field_str("schema", PROTOCOL_SCHEMA);
    })
}

/// `metrics`: the registry snapshot, embedded as rendered JSON.
pub fn frame_metrics(registry_json: &str) -> String {
    frame("metrics", |w| {
        w.key("registry");
        w.raw(registry_json);
    })
}

/// `shutdown`: sent to the requester after the queue drained.
pub fn frame_shutdown(jobs_done: u64) -> String {
    frame("shutdown", |w| {
        w.field_bool("drained", true);
        w.field_u64("jobs_done", jobs_done);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_round_trip_through_their_wire_form() {
        let reqs = [
            Request::Simulate {
                model: "MobileNet".into(),
                m: 6,
                seeds: 2,
                schedule: "pipelined".into(),
            },
            Request::Compress {
                model: "VGG16".into(),
                m: 5,
                qat: 1,
                seed: 7,
                layers: true,
            },
            Request::Report {
                experiment: "table4".into(),
            },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert_eq!(parse_request(&line).as_ref(), Ok(&req), "{line}");
            // Compact JSON (no space after `:` or `,`) is the same request.
            let compact = line.replace(": ", ":").replace(", ", ",");
            assert_eq!(parse_request(&compact).as_ref(), Ok(&req), "{compact}");
        }
    }

    #[test]
    fn request_defaults_apply_when_fields_are_omitted() {
        let req = parse_request("{\"verb\": \"simulate\", \"model\": \"MobileNet\"}").unwrap();
        assert_eq!(
            req,
            Request::Simulate {
                model: "MobileNet".into(),
                m: 6,
                seeds: 1,
                schedule: "serial".into(),
            }
        );
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(parse_request("{}").unwrap_err().contains("verb"));
        assert!(parse_request("{\"verb\": \"simulate\"}")
            .unwrap_err()
            .contains("model"));
        assert!(parse_request("{\"verb\": \"report\"}")
            .unwrap_err()
            .contains("experiment"));
        assert!(parse_request("{\"verb\": \"frobnicate\"}")
            .unwrap_err()
            .contains("frobnicate"));
        // A present field whose value does not parse is an error naming
        // the field, never its default.
        for (verb, field, value) in [
            ("simulate", "m", "-3"),
            ("simulate", "m", "\"six\""),
            ("simulate", "m", "1.5"),
            ("simulate", "m", "18446744073709551616"),
            ("simulate", "seeds", "-3"),
            ("simulate", "schedule", "7"),
            ("compress", "qat", "\"six\""),
            ("compress", "seed", "1.5"),
            ("compress", "seed", "18446744073709551616"),
            ("compress", "layers", "1"),
            ("compress", "layers", "\"true\""),
        ] {
            let line =
                format!("{{\"verb\": \"{verb}\", \"model\": \"MobileNet\", \"{field}\": {value}}}");
            let err = parse_request(&line).expect_err(&line);
            assert!(err.contains(&format!("\"{field}\"")), "{line}: {err}");
        }
    }

    #[test]
    fn read_frame_bounds_line_length() {
        let huge = format!("{}\n", "x".repeat(MAX_FRAME + 10));
        let err = read_frame(&mut BufReader::new(huge.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let ok = "{\"verb\": \"ping\"}\nrest";
        let mut r = BufReader::new(ok.as_bytes());
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"verb\": \"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("rest"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frames_are_one_line_json_objects() {
        for f in [
            frame_accepted(1, 2),
            frame_rejected("queue full", RETRY_AFTER_MS),
            frame_error(Some(3), "boom"),
            frame_unit(1, "{\"key\": \"k\"}"),
            frame_done(1, 4, 12.5, "table\ntext"),
            frame_pong(),
            frame_metrics("{\"counters\": {}}"),
            frame_shutdown(9),
        ] {
            assert!(!f.contains('\n'), "frames must be single lines: {f}");
            assert!(f.starts_with("{\"type\": \""), "{f}");
        }
        let done = frame_done(1, 4, 12.5, "table\ntext");
        assert_eq!(
            json_string_field(&done, "output").as_deref(),
            Some("table\ntext"),
            "the rendered output survives the JSON round trip"
        );
        let unit = frame_unit(7, "{\"key\": \"simulate/m/ESCALATE\"}");
        assert!(unit.contains("\"record\": {\"key\": \"simulate/m/ESCALATE\"}"));
    }
}
