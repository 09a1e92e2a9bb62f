//! An in-process daemon (`sraa_serve::Server` on its own thread) and the
//! request/reply plumbing both daemon workloads share.

use sraa_serve::{encode_frame, obj, Client, Json, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a daemon listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// TCP address.
    Tcp(std::net::SocketAddr),
    /// Unix socket path.
    Unix(PathBuf),
}

/// A running daemon. [`Daemon::stop`] drains it and joins its thread;
/// dropping it does the same, ignoring errors.
pub struct Daemon {
    endpoint: Endpoint,
    flag: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// The daemon's configuration: defaults (engine included, so the
/// engine keeps its default jobs), with an idle timeout long enough that
/// the harness's checks between ops never close the connection.
pub fn server_config() -> ServerConfig {
    ServerConfig { read_timeout: Duration::from_secs(120), ..ServerConfig::default() }
}

impl Daemon {
    /// Starts a bound server on a thread of its own.
    pub fn start(server: Server, endpoint: Endpoint) -> Daemon {
        let flag = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        Daemon { endpoint, flag, thread: Some(thread) }
    }

    /// A TCP-loopback daemon on an ephemeral port.
    pub fn tcp() -> Result<Daemon, String> {
        let server = Server::bind_tcp("127.0.0.1:0", server_config()).map_err(|e| e.to_string())?;
        let addr = server.tcp_addr().ok_or("TCP server without an address")?;
        Ok(Daemon::start(server, Endpoint::Tcp(addr)))
    }

    /// Opens the one client connection of a workload.
    pub fn connect(&self) -> Result<Client, String> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => Client::connect_tcp(addr),
            Endpoint::Unix(path) => Client::connect_unix(path),
        }
        .map_err(|e| format!("connect: {e}"))
    }

    /// Drains the daemon and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.flag.store(true, Ordering::SeqCst);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

/// An `upload` request.
pub fn upload_request(name: &str, source: &str) -> Json {
    obj([
        ("cmd", Json::Str("upload".into())),
        ("name", Json::Str(name.into())),
        ("source", Json::Str(source.into())),
    ])
}

/// Uploads `source` as `name` and insists on an `ok` reply.
pub fn upload(client: &mut Client, name: &str, source: &str) -> Result<Json, String> {
    let reply = client.request(&upload_request(name, source)).map_err(|e| e.to_string())?;
    if reply.is_ok() {
        Ok(reply)
    } else {
        Err(format!("upload of {name} refused: {}", reply.render()))
    }
}

/// Bytes of `v` as one frame on the wire.
pub fn frame_len(v: &Json) -> usize {
    encode_frame(&v.render()).len()
}
