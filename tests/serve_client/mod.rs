//! The HTTP test client the daemon's integration tests share: one-shot
//! round trips over fresh connections, response reads off a kept-alive
//! stream, header and `/metrics` scanners, chaos injection, and the
//! catalog fixtures. Requests go out as raw bytes, so a test can send a
//! malformed one as easily as a good one.

// each test crate that includes this module uses a subset of it
#![allow(dead_code)]

use pinpoint::core::{profile, ProfileConfig};
use pinpoint::store::write_store_file;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Keeps `cargo test` output readable: chaos panics (`panic` / `kill`
/// injection) are deliberate, so their reports are swallowed; every
/// other panic still reaches the default hook.
pub fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !msg.starts_with("chaos:") {
                default(info);
            }
        }));
    });
}

/// A fresh, empty catalog directory for the test named `tag`.
pub fn tmp_catalog(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pinpoint-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but real trace: the paper's Fig. 1 MLP case study, written
/// as `{name}.ptrc` in `dir`.
pub fn mlp_store(dir: &Path, name: &str) -> PathBuf {
    let report = profile(&ProfileConfig::mlp_case_study(3)).unwrap();
    let path = dir.join(format!("{name}.ptrc"));
    write_store_file(&report.trace, &path).unwrap();
    path
}

/// One request/response round trip over a fresh connection. The request
/// must carry `Connection: close` (the helpers below do) or be one the
/// daemon closes on, so reading to EOF terminates.
pub fn roundtrip(addr: SocketAddr, request: &[u8]) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(request).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("full response");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    post_with(addr, path, body, "")
}

/// POST with extra raw header lines (each ending in `\r\n`).
pub fn post_with(addr: SocketAddr, path: &str, body: &str, extra: &str) -> (u16, String, String) {
    roundtrip(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n{extra}\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Token-gated fault injection (`panic`, `kill` or `stall`), for a
/// daemon started with `chaos_token: Some("chaos")`.
pub fn chaos(addr: SocketAddr, mode: &str) -> (u16, String, String) {
    post_with(
        addr,
        "/debug/chaos",
        &format!("{{\"mode\":\"{mode}\"}}"),
        "X-Pinpoint-Token: chaos\r\n",
    )
}

pub fn header<'a>(head: &'a str, name: &str) -> &'a str {
    head.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}: ")))
        .unwrap_or_else(|| panic!("missing header {name} in:\n{head}"))
        .trim()
}

/// First occurrence of a flat `/metrics` counter.
pub fn metric(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Reads one `Content-Length`-framed response off a kept-alive stream
/// without waiting for EOF.
pub fn read_one_response(s: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let len: usize = header(&head, "Content-Length").parse().unwrap();
    while buf.len() < head_end + 4 + len {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before response body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end + 4..head_end + 4 + len].to_vec()).unwrap();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head, body)
}
