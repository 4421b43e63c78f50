//! A blocking wire connection that timestamps each response frame as it
//! arrives (`dbex_serve::Client` returns whole responses).

use dbex_serve::{write_frame, WireResponse};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One request's response: when it was sent, and each frame's arrival
/// time and raw line. The last frame is final.
pub struct Exchange {
    pub sent: Instant,
    pub frames: Vec<(Instant, String)>,
}

impl Exchange {
    pub fn final_frame(&self) -> &str {
        self.frames.last().map_or("", |(_, line)| line.as_str())
    }

    pub fn first_ms(&self) -> f64 {
        self.frames
            .first()
            .map_or(0.0, |(at, _)| ms_between(self.sent, *at))
    }

    pub fn final_ms(&self) -> f64 {
        self.frames
            .last()
            .map_or(0.0, |(at, _)| ms_between(self.sent, *at))
    }
}

pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

impl Conn {
    /// Connects and consumes the hello line; a `BUSY` hello is an error.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn { writer, reader };
        let hello = conn.read_line()?;
        match WireResponse::parse(&hello) {
            Ok(r) if r.ok => Ok(conn),
            _ => Err(format!("server refused the connection: {hello}")),
        }
    }

    /// Sends `request` and reads frames up to and including the final one.
    pub fn exchange(&mut self, request: &str) -> Result<Exchange, String> {
        self.exchange_with(request, || {})
    }

    /// [`Conn::exchange`], calling `on_first` as soon as the first frame
    /// (a preview, when one is streamed) has arrived.
    pub fn exchange_with(
        &mut self,
        request: &str,
        mut on_first: impl FnMut(),
    ) -> Result<Exchange, String> {
        let sent = Instant::now();
        write_frame(&mut self.writer, request).map_err(|e| format!("send: {e}"))?;
        let mut frames = Vec::with_capacity(2);
        loop {
            let line = self.read_line()?;
            let at = Instant::now();
            if frames.is_empty() {
                on_first();
            }
            let response =
                WireResponse::parse(&line).map_err(|e| format!("bad response line: {e}"))?;
            frames.push((at, line));
            if response.is_final() {
                return Ok(Exchange { sent, frames });
            }
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
