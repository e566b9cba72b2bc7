//! An in-process `mfu_serve::Server` on an ephemeral port, and the
//! load generator's persistent connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

use mfu_obs::Metrics;
use mfu_serve::{query_line, QueryService, Server, ServiceOptions};

/// A running server and the thread that accepts for it.
pub struct Served {
    addr: String,
    accept: JoinHandle<std::io::Result<()>>,
}

impl Served {
    /// Binds `127.0.0.1:0` and starts accepting. `metrics`, when given, is
    /// attached to the service (the existing `with_metrics` hook).
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn start(options: ServiceOptions, metrics: Option<Metrics>) -> Result<Served, String> {
        let mut service = QueryService::new(options);
        if let Some(metrics) = metrics {
            service = service.with_metrics(metrics);
        }
        let server =
            Server::bind("127.0.0.1:0", service).map_err(|e| format!("cannot bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?
            .to_string();
        let accept = std::thread::spawn(move || server.run());
        Ok(Served { addr, accept })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends `shutdown` and waits for the accept loop and every connection
    /// handler to end. Close every [`Connection`] first: the server joins
    /// its handlers, which run until their client hangs up.
    ///
    /// # Errors
    ///
    /// Returns a message when the server cannot be reached or failed.
    pub fn stop(self) -> Result<(), String> {
        query_line(&self.addr, r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        match self.accept.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// A persistent client connection. Every request goes out in a single
/// `write` with `TCP_NODELAY` set: a request written in two pieces stalls
/// on delayed ACK.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    response: String,
}

impl Connection {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect failure.
    pub fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the stream: {e}"))?;
        Ok(Connection {
            writer: stream,
            reader: BufReader::new(reader),
            out: Vec::with_capacity(4096),
            response: String::with_capacity(4096),
        })
    }

    /// Sends one request line and returns the response line (without its
    /// newline).
    ///
    /// # Errors
    ///
    /// Returns the I/O failure, or a message when the server hung up.
    pub fn round_trip(&mut self, request: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write failed: {e}"))?;
        self.response.clear();
        let read = self
            .reader
            .read_line(&mut self.response)
            .map_err(|e| format!("read failed: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(self.response.trim_end_matches(['\n', '\r']))
    }
}
