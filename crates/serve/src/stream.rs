//! The one connected socket of the daemon and its client: a Unix or a TCP
//! stream, read and written through the same handle.

use crate::protocol::{self, Json};
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// Evaluates `$body` with `$s` bound to the inner socket, whichever kind
/// it is: both kinds have the same inherent and `Read`/`Write` methods.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            #[cfg(unix)]
            Stream::Unix($s) => $body,
            Stream::Tcp($s) => $body,
        }
    };
}

impl Stream {
    /// Puts the socket in blocking mode with the given read and write
    /// timeouts (`None` waits forever).
    pub(crate) fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        on_socket!(self, s => {
            s.set_nonblocking(false)?;
            s.set_read_timeout(read)?;
            s.set_write_timeout(write)
        })
    }

    /// Sends `frame` as one encoded line and flushes it.
    pub(crate) fn write_frame(&mut self, frame: &Json) -> io::Result<()> {
        self.write_all(protocol::encode_frame(&frame.render()).as_bytes())?;
        self.flush()
    }

    /// A second handle on the same socket, so that one half can be
    /// buffered for reading while the other writes.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}
