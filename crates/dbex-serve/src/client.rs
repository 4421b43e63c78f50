//! Minimal blocking client for the wire protocol — used by the
//! `--connect` REPL, the smoke/determinism tests, and the bench harness.

use crate::protocol::{write_frame, ProtocolError};
use crate::wire::{WireParseError, WireResponse};
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The server rejected the connection with a typed `BUSY` response
    /// (connection cap reached). The payload is the server's message.
    Busy(String),
    /// Framing or transport failure.
    Protocol(ProtocolError),
    /// The server closed the connection where a response line was due.
    ServerClosed,
    /// The server sent a line that does not parse as a wire response.
    Wire(WireParseError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy(msg) => write!(f, "server busy: {msg}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Wire(e) => write!(f, "bad response line: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// A connected wire client. One request in flight at a time:
/// [`Client::request`] writes a frame and blocks for the response line.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    hello: WireResponse,
}

impl Client {
    /// Connects and consumes the server's hello line. A server at its
    /// connection cap answers with `BUSY` and closes; that surfaces here
    /// as [`ClientError::Busy`] — callers can back off and retry.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            writer,
            reader,
            hello: WireResponse::ok("hello", ""),
        };
        let hello = client.read_line()?;
        let hello = WireResponse::parse(&hello).map_err(ClientError::Wire)?;
        if hello.code.as_deref() == Some("BUSY") {
            return Err(ClientError::Busy(hello.text));
        }
        client.hello = hello;
        Ok(client)
    }

    /// Like [`Self::connect`], but bounds the TCP connect **and** the
    /// hello read by `timeout`, so a SYN dropped by an overflowing
    /// listen backlog (or a server too loaded to greet) surfaces as a
    /// timeout error instead of stranding the caller in the kernel's
    /// minutes-long retransmit cycle. The exploration simulator drives
    /// thousands of concurrent connects through this. The read timeout
    /// is cleared again before returning; callers set their own.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let mut last_err =
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to");
        let mut stream = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let Some(writer) = stream else {
            return Err(last_err.into());
        };
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(Some(timeout)).ok();
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            writer,
            reader,
            hello: WireResponse::ok("hello", ""),
        };
        let hello = client.read_line()?;
        let hello = WireResponse::parse(&hello).map_err(ClientError::Wire)?;
        if hello.code.as_deref() == Some("BUSY") {
            return Err(ClientError::Busy(hello.text));
        }
        client.hello = hello;
        client.set_read_timeout(None)?;
        Ok(client)
    }

    /// The hello response the server sent on accept.
    pub fn hello(&self) -> &WireResponse {
        &self.hello
    }

    /// Sets a read timeout so a wedged server cannot hang the client
    /// forever (used by the soak test's watchdog clients).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and returns the **raw response line** (no
    /// trailing newline) — the byte-comparison primitive the determinism
    /// tests diff against the oracle transcript.
    pub fn request_line(&mut self, request: &str) -> Result<String, ClientError> {
        write_frame(&mut self.writer, request)?;
        self.read_line()
    }

    /// Writes one request frame **without** waiting for the response.
    /// This is the abandon primitive of the exploration simulator: a
    /// session that drops the connection with a request still in flight
    /// exercises the server's executor-drain path, which a paired
    /// `request` call never does. The next [`Client::request_line`] on
    /// this client would read the orphaned response, so abandoning
    /// callers must drop the client afterwards.
    pub fn send_only(&mut self, request: &str) -> Result<(), ClientError> {
        write_frame(&mut self.writer, request)?;
        Ok(())
    }

    /// Sends one request and parses the response.
    pub fn request(&mut self, request: &str) -> Result<WireResponse, ClientError> {
        let line = self.request_line(request)?;
        WireResponse::parse(&line).map_err(ClientError::Wire)
    }

    /// Sends one request and reads **every frame** of the response: on a
    /// connection in `.stream on` mode an expensive statement answers
    /// with a preview frame (`final:false`) before the exact final frame,
    /// and this keeps reading until a final one arrives. Untagged frames
    /// are final (the entire pre-streaming protocol), so this is safe to
    /// use against any server. Returns the raw lines, last one final.
    pub fn request_stream_lines(&mut self, request: &str) -> Result<Vec<String>, ClientError> {
        self.stream_frames(request, |line, _| line)
    }

    /// [`Client::request_stream_lines`], parsed. The last response is the
    /// final frame; any before it are previews.
    pub fn request_stream(&mut self, request: &str) -> Result<Vec<WireResponse>, ClientError> {
        self.stream_frames(request, |_, response| response)
    }

    /// Sends `request` and reads frames up to the final one, decoding
    /// each once and keeping what `keep` makes of the raw line and its
    /// parse.
    fn stream_frames<T>(
        &mut self,
        request: &str,
        keep: impl Fn(String, WireResponse) -> T,
    ) -> Result<Vec<T>, ClientError> {
        write_frame(&mut self.writer, request)?;
        let mut frames = Vec::new();
        loop {
            let line = self.read_line()?;
            let response = WireResponse::parse(&line).map_err(ClientError::Wire)?;
            let done = response.is_final();
            frames.push(keep(line, response));
            if done {
                return Ok(frames);
            }
        }
    }

    /// Reads and parses **one** response frame. Paired with
    /// [`Client::send_only`], this is the incremental primitive for
    /// callers that want to timestamp streamed frames as each arrives
    /// (the exploration simulator's time-to-first-frame measurement);
    /// keep reading until [`WireResponse::is_final`].
    pub fn read_response(&mut self) -> Result<WireResponse, ClientError> {
        let line = self.read_line()?;
        WireResponse::parse(&line).map_err(ClientError::Wire)
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::ServerClosed);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
