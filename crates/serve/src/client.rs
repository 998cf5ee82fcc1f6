//! A minimal blocking client for the length-prefixed protocol — used by
//! the load-generator bench, the equivalence tests, and the CI smoke job.

use crate::proto::{
    parse_response, read_frame, render_search_request, write_frame, Response, SearchCall,
};
use std::io;
use std::net::{SocketAddr, TcpStream};

/// A blocking connection to a LAN server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, payload: &str) -> io::Result<Response> {
        write_frame(&mut self.stream, payload.as_bytes())?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let text = String::from_utf8(frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        parse_response(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One k-ANN query; returns the typed response (ok / overloaded /
    /// error).
    pub fn search(&mut self, call: &SearchCall<'_>) -> io::Result<Response> {
        self.round_trip(&render_search_request(call))
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.round_trip("{\"op\":\"ping\"}")? {
            Response::Ok(_) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected ping response: {other:?}"),
            )),
        }
    }

    /// Asks the server to stop (acknowledged before it exits).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip("{\"op\":\"shutdown\"}")? {
            Response::Ok(_) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected shutdown response: {other:?}"),
            )),
        }
    }

    /// Scrapes `GET /metrics` from `addr` (separate connection — the
    /// server closes metrics connections after one response) and returns
    /// the Prometheus body.
    pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: lan\r\nConnection: close\r\n\r\n")?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        match raw.split_once("\r\n\r\n") {
            Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "metrics scrape failed",
            )),
        }
    }
}
