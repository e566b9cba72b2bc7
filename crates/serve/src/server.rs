//! The TCP front-end: line-delimited JSON over a plain socket.
//!
//! `nc`-friendly by construction — one request per line, one response
//! line back — because the vendored HTTP-adjacent dependencies are stubs
//! and a framing protocol this small needs none of them. Each accepted
//! connection gets a thread; handlers share the [`QueryService`] (whose
//! lock covers only cache bookkeeping, so concurrent cold queries
//! overlap). A `shutdown` request flips an atomic flag and the handler
//! then pokes the listener with a loopback connect so the blocking
//! `accept` wakes up and observes the flag.
//!
//! A request line may hold at most [`MAX_LINE_BYTES`] bytes, newline
//! included: a longer one gets an `{"ok":false,...}` line and the
//! connection is closed, so a client that never sends a newline cannot
//! grow the server's memory without bound.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::protocol::error_response;
use crate::service::QueryService;

/// The longest request line the server reads, newline included (1 MiB;
/// the largest registry source, `grid_6x6`, is under 6 KiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7464"`, port `0` for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, service: QueryService) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared query service (for in-process inspection in tests).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Accepts and serves connections until a client sends `shutdown`.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (per-connection I/O errors only end
    /// that connection).
    pub fn run(&self) -> std::io::Result<()> {
        let local = self.local_addr()?;
        std::thread::scope(|scope| {
            for connection in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = connection?;
                let service = Arc::clone(&self.service);
                let shutdown = Arc::clone(&self.shutdown);
                scope.spawn(move || handle_connection(stream, &service, &shutdown, local));
            }
            Ok(())
        })
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &QueryService,
    shutdown: &AtomicBool,
    local: SocketAddr,
) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    // One buffer for every line of the connection. It holds bytes, not a
    // `String`: the cap may cut a multi-byte character, and an over-long
    // line must still get its error line.
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        match (&mut reader)
            .take(MAX_LINE_BYTES as u64)
            .read_until(b'\n', &mut buffer)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let over_cap = !buffer.ends_with(b"\n") && buffer.len() == MAX_LINE_BYTES;
        let (response, stop) = if over_cap {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            (error_response(&message), false)
        } else {
            if buffer.ends_with(b"\n") {
                buffer.pop();
                if buffer.ends_with(b"\r") {
                    buffer.pop();
                }
            }
            let Ok(line) = std::str::from_utf8(&buffer) else {
                break;
            };
            if line.trim().is_empty() {
                continue;
            }
            service.handle_line(line)
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
            || over_cap
        {
            break;
        }
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking accept so `run` observes the flag.
            let _ = TcpStream::connect(local);
            break;
        }
    }
}

/// One-shot client: sends `line` to `addr` and returns the response line.
///
/// # Errors
///
/// Propagates connection and I/O failures; an empty response (server
/// closed early) is reported as [`std::io::ErrorKind::UnexpectedEof`].
pub fn query_line(addr: &str, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let read = reader.read_line(&mut response)?;
    if read == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        ));
    }
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceOptions;
    use mfu_core::hull::HullOptions;
    use mfu_core::json::{parse, Json};

    fn test_server() -> (std::thread::JoinHandle<std::io::Result<()>>, String) {
        let options = ServiceOptions {
            artifact_cap: 8,
            hull: HullOptions {
                step: 1e-2,
                time_intervals: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", QueryService::new(options)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());
        (handle, addr)
    }

    #[test]
    fn round_trip_over_tcp_hits_on_the_second_query() {
        let (handle, addr) = test_server();
        let request = r#"{"op":"bound","model":"sir","method":"hull","horizon":0.5}"#;
        let first = parse(&query_line(&addr, request).unwrap()).unwrap();
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
        let second = parse(&query_line(&addr, request).unwrap()).unwrap();
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(second.get("cache_hit").and_then(Json::as_f64), Some(1.0));

        let stats = parse(&query_line(&addr, r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("artifact_len"))
                .and_then(Json::as_f64),
            Some(1.0)
        );

        let bye = parse(&query_line(&addr, r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn an_over_long_request_line_is_refused_and_the_server_stays_up() {
        use std::time::Duration;

        let (handle, addr) = test_server();
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut flood = stream.try_clone().unwrap();
        // 2 MiB and no newline. The server stops reading at the cap and
        // closes the connection, so this write may fail part-way.
        let writer = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 2 * MAX_LINE_BYTES]);
        });
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        writer.join().unwrap();
        let parsed = parse(response.trim_end()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert!(parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("exceeds"));

        // the server still answers a new connection
        let stats = parse(&query_line(&addr, r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        query_line(&addr, r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn blank_lines_are_skipped_and_crlf_is_stripped() {
        let (handle, addr) = test_server();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer
            .write_all(b"\r\n  \n{\"op\":\"stats\"}\r\n{\"op\":\"stats\"}")
            .unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream)
            .lines()
            .map(|line| line.unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "one response per non-blank line: {lines:?}");
        for line in &lines {
            let parsed = parse(line).unwrap();
            assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        }
        query_line(&addr, r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn errors_come_back_as_json_lines() {
        let (handle, addr) = test_server();
        let response =
            query_line(&addr, r#"{"op":"bound","model":"sri","method":"hull"}"#).unwrap();
        let parsed = parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert!(parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("sri"));
        query_line(&addr, r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }
}
