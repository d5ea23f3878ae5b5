//! A minimal keep-alive HTTP/1.1 client for the benchmark's own
//! requests: write pre-encoded request bytes, read one
//! `content-length`-framed response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array};
use mfdfp_tensor::Tensor;

/// One keep-alive connection.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status and body.
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Connection {
    /// Connects with `TCP_NODELAY` and a read timeout, so a hung server
    /// fails the run instead of hanging it.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Connection { stream, buf: Vec::with_capacity(4096) })
    }

    /// Writes one request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads one response.
    pub fn receive(&mut self) -> std::io::Result<HttpResponse> {
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(HttpResponse { status, body })
    }
}

/// The bytes of `POST /v1/infer/<model>` carrying `image`.
pub fn infer_request(model: &str, image: &Tensor) -> Vec<u8> {
    let body = format_f32_array(image.as_slice());
    encode_request("POST", &format!("/v1/infer/{model}"), &[], body.as_bytes())
}

/// The `logits` array of an infer response body, through the server's
/// own wire parser.
pub fn response_logits(body: &[u8]) -> Option<Vec<f32>> {
    field_slice(body, b"\"logits\":", b']').and_then(|s| parse_f32_array(s).ok())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The bytes after `key` up to and including the first `last`.
fn field_slice<'a>(body: &'a [u8], key: &[u8], last: u8) -> Option<&'a [u8]> {
    let start = find(body, key)? + key.len();
    let end = start + body[start..].iter().position(|&b| b == last)? + 1;
    Some(&body[start..end])
}
