//! The TCP side of the serve workloads: an in-process `fsr-serve`
//! daemon, the client connection, and the echo server behind
//! `bench.client_floor_ms`.
//!
//! The client never adds stalls of its own: `TCP_NODELAY` is set and
//! every request leaves in one `write_all` of the whole line, so the
//! round trip it measures is the daemon's (plus the kernel's loopback).

use crate::stats;
use fsr_serve::json::{self, Value};
use fsr_serve::{serve_tcp_on, Server};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A daemon serving one fresh `World` on a loopback port.
pub struct Daemon {
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn boot() -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || serve_tcp_on(Arc::new(Server::new()), listener));
        Ok(Daemon { addr, thread })
    }

    /// Stop the daemon through `last`, its only remaining connection
    /// (the daemon joins every connection thread, so all other clients
    /// must be dropped first), and wait for it to exit.
    pub fn shutdown(self, mut last: Client) -> Result<(), String> {
        let id = last.next_id();
        last.call(&request_line(id, "shutdown", "{}"))?;
        drop(last);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// One request line (without the newline). Ids only need to be unique
/// per connection.
pub fn request_line(id: u64, method: &str, params: &str) -> String {
    format!("{{\"id\": {id}, \"method\": \"{method}\", \"params\": {params}}}")
}

/// A response: its round trip and its `result` payload.
pub struct Reply {
    pub rtt_s: f64,
    pub result: Value,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    ids: u64,
    buf: String,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: conn,
            ids: 0,
            buf: String::new(),
            line: String::new(),
        })
    }

    pub fn next_id(&mut self) -> u64 {
        self.ids += 1;
        self.ids
    }

    /// Send one request line and read up to its response, skipping
    /// streamed notifications. The round trip runs from the write to
    /// the arrival of the response line; parsing comes after.
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        let start = Instant::now();
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let rtt_s = loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("daemon hung up mid-request".to_string());
            }
            if self.line.starts_with("{\"id\"") {
                break start.elapsed().as_secs_f64();
            }
        };
        let v = json::parse(self.line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
        if let Some(e) = v.get("error") {
            return Err(format!("daemon error {e} for {line}"));
        }
        let result = v
            .get("result")
            .cloned()
            .ok_or_else(|| format!("response without result: {}", self.line.trim()))?;
        Ok(Reply { rtt_s, result })
    }
}

/// Median round trip, in ms, to an echo server that answers each line
/// with a single write: the floor this client and the loopback add to
/// every measured request.
pub fn client_floor_ms(rounds: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = conn;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            writer.write_all(line.as_bytes())?;
        }
    });
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect echo: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = conn;
    let mut line = String::new();
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        writer
            .write_all(b"{\"id\": 0, \"method\": \"ping\"}\n")
            .map_err(|e| format!("echo send: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("echo receive: {e}"))?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(writer);
    drop(reader);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(|e| format!("echo: {e}"))?;
    Ok(stats::median(&samples))
}
