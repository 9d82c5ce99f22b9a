//! A minimal blocking client: submit one request, collect the response
//! frames — what `escalate submit` and the load generator are built on.

use crate::proto::{read_frame, write_frame, Request};
use std::io::BufReader;
use std::net::TcpStream;

/// Submits `req` to the daemon at `127.0.0.1:port` and collects every
/// response frame until the terminal one for that verb (`done`, `pong`,
/// `metrics`, `shutdown`, `rejected`, or `error`) or EOF.
///
/// # Errors
///
/// Propagates connect/read/write failures.
pub fn submit(port: u16, req: &Request) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    write_frame(&mut stream, &req.to_line())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut reader)? {
        let terminal = is_terminal(&frame);
        frames.push(frame);
        if terminal {
            break;
        }
    }
    Ok(frames)
}

/// Whether a response frame ends the exchange for a single request.
fn is_terminal(frame: &str) -> bool {
    matches!(
        escalate_obs::json_string_field(frame, "type").as_deref(),
        Some("done" | "pong" | "metrics" | "shutdown" | "rejected" | "error")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{frame_accepted, frame_done, frame_pong, frame_unit};

    #[test]
    fn terminal_frames_end_an_exchange_and_streamed_ones_do_not() {
        assert!(is_terminal(&frame_pong()));
        assert!(is_terminal(&frame_done(1, 4, 1.0, "out")));
        assert!(!is_terminal(&frame_accepted(1, 1)));
        assert!(!is_terminal(&frame_unit(1, "{\"key\": \"k\"}")));
    }
}
