//! The `sraa query` client: one connection, framed request/reply, and
//! streamed `pairs` consumption.

use crate::protocol::{self, FrameError, Json, JsonError};
use crate::stream::Stream;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client-side failure: transport, framing, or a server that stopped
/// mid-stream. A *typed error reply* from the server is not a
/// `ClientError` — it comes back as an ordinary [`Json`] with
/// `"ok": false`, so callers can read the code and detail.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-reply).
    Io(std::io::Error),
    /// The server sent a malformed frame.
    Frame(FrameError),
    /// The server sent a frame whose payload is not valid JSON.
    Json(JsonError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Frame(e) => write!(f, "malformed reply frame: {e}"),
            ClientError::Json(e) => write!(f, "malformed reply payload: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client. One request/reply (or request/stream) at a time.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

/// Replies longer than this are refused client-side (an `eval` report is
/// the largest legitimate reply; this cap matches the server's).
const MAX_REPLY: usize = protocol::MAX_FRAME;

impl Client {
    /// Connects over a Unix socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::over(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::over(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// A client on a connected stream: a reply may take up to a minute to
    /// arrive, and writes have no timeout.
    fn over(stream: Stream) -> Result<Client, ClientError> {
        stream.set_timeouts(Some(Duration::from_secs(60)), None)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one request and reads one reply frame. The reply may be a
    /// typed error object (`"ok": false`) — that is a successful round
    /// trip at this layer.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        self.writer.write_frame(req)?;
        self.read_reply()
    }

    /// Sends one request and consumes a reply *stream*: every frame is
    /// handed to `on_frame` until a frame carries a `done` field (the
    /// final frame, also passed to `on_frame`) or is a typed error.
    /// Returns the final frame.
    pub fn request_streamed(
        &mut self,
        req: &Json,
        mut on_frame: impl FnMut(&Json),
    ) -> Result<Json, ClientError> {
        self.writer.write_frame(req)?;
        loop {
            let frame = self.read_reply()?;
            on_frame(&frame);
            if frame.get("done").is_some() || !frame.is_ok() {
                return Ok(frame);
            }
        }
    }

    fn read_reply(&mut self) -> Result<Json, ClientError> {
        let mut line = Vec::new();
        loop {
            let before = line.len();
            match self.reader.read_until(b'\n', &mut line) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-reply",
                    )))
                }
                Ok(_) if line.last() == Some(&b'\n') => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if line.len() == before {
                        return Err(ClientError::Io(e));
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
            if line.len() > MAX_REPLY + 64 {
                return Err(ClientError::Frame(FrameError::Oversized));
            }
        }
        let text =
            std::str::from_utf8(&line).map_err(|_| ClientError::Frame(FrameError::BadHeader))?;
        let payload = protocol::decode_frame(text, MAX_REPLY).map_err(ClientError::Frame)?;
        protocol::parse(payload).map_err(ClientError::Json)
    }
}
