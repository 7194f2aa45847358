//! A minimal blocking client: one connection, one request in flight.
//!
//! Used by the integration tests and by the `servebench` load
//! generator. The client is intentionally dumb — it frames, sends, and
//! waits — so that load-generator concurrency comes from running many
//! clients on many threads, mirroring how real callers would drive the
//! service.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use carbon_json::{Json, ParseError};

use crate::protocol::{read_frame, write_frame, FrameError};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing failure.
    Frame(FrameError),
    /// The server closed the connection instead of responding.
    Closed,
    /// The response body was not valid JSON — a protocol violation.
    BadResponse(ParseError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "client frame error: {e}"),
            Self::Closed => write!(f, "server closed the connection before responding"),
            Self::BadResponse(e) => write!(f, "malformed response body: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Frame(FrameError::Io(e))
    }
}

/// A blocking connection to a job server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends raw request bytes and returns the raw response bytes —
    /// the primitive the determinism tests compare byte for byte.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] if the server hangs up before
    /// responding; framing errors otherwise.
    pub fn call_raw(&mut self, body: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_frame(&mut self.stream, body).map_err(FrameError::Io)?;
        read_frame(&mut self.stream)?.ok_or(ClientError::Closed)
    }

    /// Sends a request envelope and parses the response.
    ///
    /// # Errors
    ///
    /// As [`Client::call_raw`], plus [`ClientError::BadResponse`] if
    /// the response is not valid JSON.
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        let response = self.call_raw(request.render().as_bytes())?;
        let text = std::str::from_utf8(&response).map_err(|_| {
            ClientError::BadResponse(ParseError {
                offset: 0,
                reason: "response is not UTF-8".to_owned(),
            })
        })?;
        Json::parse(text).map_err(ClientError::BadResponse)
    }
}
