//! Minimal synchronous client for the query server — one request frame in,
//! one response frame out. Used by the integration tests, the benchmark,
//! and any harness that wants to drive a server without hand-rolling the
//! codec.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use tvq_common::{Error, Result};

use crate::protocol::{read_frame, write_frame};

/// A connected client. Requests are strictly sequential: [`request`]
/// blocks until the server's response frame arrives.
///
/// [`request`]: Self::request
pub struct ServerClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServerClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServerClient {
            reader,
            writer: stream,
        })
    }

    /// Sends one command and returns the raw response payload (starting
    /// with `OK` or `ERR`).
    pub fn request(&mut self, command: &str) -> Result<String> {
        write_frame(&mut self.writer, command)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })
    }

    /// Like [`request`](Self::request) but fails on an `ERR` response,
    /// returning the payload with the `OK ` prefix intact.
    pub fn expect_ok(&mut self, command: &str) -> Result<String> {
        let response = self.request(command)?;
        if response.starts_with("OK") {
            Ok(response)
        } else {
            Err(Error::InvalidConfig(format!(
                "server rejected {command:?}: {response}"
            )))
        }
    }

    /// Sends `QUIT` and discards the farewell.
    pub fn quit(mut self) -> Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}
