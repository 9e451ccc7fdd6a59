//! A minimal HTTP/1.1 client for the daemon workloads: kept-alive
//! connections, and one-shot requests on a fresh connection each.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status and body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A kept-alive connection: requests go one at a time on the same socket,
/// which is reopened only after the daemon closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.exchange(method, path, body, "")
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra_headers: &str,
    ) -> std::io::Result<Response> {
        let stream = match &mut self.stream {
            Some(s) => s,
            empty => {
                let s = TcpStream::connect(self.addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_secs(30)))?;
                empty.insert(BufReader::with_capacity(64 << 10, s))
            }
        };
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\n{extra_headers}\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let result = stream
            .get_mut()
            .write_all(req.as_bytes())
            .and_then(|()| read_response(stream));
        match result {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Sends one request on a fresh connection with `Connection: close`.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    Conn::new(addr).exchange(method, path, body, "Connection: close\r\n")
}

/// Reads one response framed by `Content-Length`, and whether the daemon
/// keeps the connection open after it.
fn read_response(stream: &mut BufReader<TcpStream>) -> std::io::Result<(Response, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    stream.read_line(&mut line)?;
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("malformed status line {line:?}")))?;
    let (mut len, mut keep_alive) = (0, true);
    loop {
        line.clear();
        if stream.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside a response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .parse()
                    .map_err(|_| bad(&format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0; len];
    stream.read_exact(&mut body)?;
    Ok((Response { status, body }, keep_alive))
}
