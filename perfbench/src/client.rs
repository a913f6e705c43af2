//! The benchmark's HTTP/1.1 client: one keep-alive connection that
//! reports when each request was sent, when the first response byte
//! arrived and when the response was complete, plus the few JSON
//! readers the correctness checks need.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side socket deadline; a response slower than this fails.
const TIMEOUT: Duration = Duration::from_secs(30);

pub struct HttpConn {
    reader: BufReader<TcpStream>,
}

/// One completed exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

/// The bytes of one request, as this client sends them.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: charles\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpConn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(HttpConn {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and read its response.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Exchange> {
        let sent = Instant::now();
        self.reader.get_mut().write_all(request)?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(invalid("connection closed before a response".into()));
        }
        let first_byte = Instant::now();
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("response head cut short".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body".into()))?;
        Ok(Exchange {
            status,
            body,
            sent,
            first_byte,
            done: Instant::now(),
        })
    }

    /// One-shot GET of a JSON endpoint; the body on a 200.
    pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
        let mut conn = HttpConn::connect(addr).map_err(|e| format!("GET {path}: {e}"))?;
        let ex = conn
            .exchange(&request_bytes("GET", path, ""))
            .map_err(|e| format!("GET {path}: {e}"))?;
        match ex.status {
            200 => Ok(ex.body),
            s => Err(format!("GET {path}: status {s}")),
        }
    }
}

/// Split a session envelope `{"session":"<id>","advice":<advice>}` into
/// its id and advice JSON.
pub fn split_envelope(body: &str) -> Option<(&str, &str)> {
    let rest = body.strip_prefix("{\"session\":\"")?;
    let (id, rest) = rest.split_once('"')?;
    let advice = rest.strip_prefix(",\"advice\":")?.strip_suffix('}')?;
    Some((id, advice))
}

/// The unsigned integer value of `"key":` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The segment queries of each ranked answer in an advice JSON document
/// (`"ranked":[{"segmentation":["…",…],…},…]`), found by a scan that
/// respects string literals, with each string unescaped.
pub fn segmentations(advice: &str) -> Vec<Vec<String>> {
    let Some(start) = advice.find("\"ranked\":[") else {
        return Vec::new();
    };
    let text = &advice[start + "\"ranked\":[".len()..];
    let key = "\"segmentation\":[";
    let mut ranked = Vec::new();
    let mut depth = 1i32; // inside the ranked array
    let mut chars = text.char_indices().peekable();
    // Inside a segmentation array: the depth at which it opened and the
    // strings read so far.
    let mut seg: Option<(i32, Vec<String>)> = None;
    while let Some((i, c)) = chars.next() {
        if depth == 0 {
            break;
        }
        if seg.is_none() && text[i..].starts_with(key) {
            depth += 1;
            seg = Some((depth, Vec::new()));
            // Skip the rest of the key.
            for _ in 1..key.len() {
                chars.next();
            }
            continue;
        }
        match c {
            '"' => {
                let s = read_string(&mut chars);
                if let Some((d, v)) = seg.as_mut() {
                    if *d == depth {
                        v.push(s);
                    }
                }
            }
            '[' | '{' => depth += 1,
            ']' | '}' => {
                if seg.as_ref().is_some_and(|(d, _)| *d == depth) {
                    ranked.push(seg.take().map(|(_, v)| v).unwrap_or_default());
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    ranked
}

/// The rest of a JSON string literal whose opening quote was consumed,
/// unescaped; the closing quote is consumed too.
fn read_string(chars: &mut impl Iterator<Item = (usize, char)>) -> String {
    let mut out = String::new();
    while let Some((_, c)) = chars.next() {
        match c {
            '"' => break,
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    if let Some(ch) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                        out.push(ch);
                    }
                }
                Some(e) => out.push(e),
                None => break,
            },
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_splits_into_id_and_advice() {
        let body = r#"{"session":"s12","advice":{"context":"(a: )"}}"#;
        assert_eq!(
            split_envelope(body),
            Some(("s12", r#"{"context":"(a: )"}"#))
        );
        assert_eq!(split_envelope("{\"error\":{}}"), None);
    }

    #[test]
    fn flat_counters_read_by_key() {
        let body = r#"{"hits":12,"misses":3,"runs":0,"capacity":null}"#;
        assert_eq!(json_u64(body, "hits"), Some(12));
        assert_eq!(json_u64(body, "runs"), Some(0));
        assert_eq!(json_u64(body, "capacity"), None);
    }

    #[test]
    fn segmentations_ignore_brackets_inside_strings_and_unescape() {
        let advice = r#"{"context":"(a: )","ranked":[{"segmentation":["(a: [1, 5])","(a: ]5, 9], b: {'x]'})"],"score":{"entropy":1}},{"segmentation":["(b: {x})","(b: {y})","(b: {\"z\\\u0001\"})"],"score":{}}],"trace":{"steps":[]}}"#;
        assert_eq!(
            segmentations(advice),
            vec![
                vec!["(a: [1, 5])", "(a: ]5, 9], b: {'x]'})"],
                vec!["(b: {x})", "(b: {y})", "(b: {\"z\\\u{1}\"})"],
            ]
        );
        assert_eq!(segmentations(r#"{"ranked":[]}"#), Vec::<Vec<String>>::new());
    }
}
