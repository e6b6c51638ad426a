//! Blocking protocol client — the library behind `qperturb submit` /
//! `wait` / `stats` / `shutdown` and the benchmark's `serve_mix` tenants.

use crate::json::{obj, parse, Json};
use crate::result::JobResultData;
use crate::ServeError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a qp-serve instance. Each call sends one request line
/// and reads replies until the operation's final line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Outcome of a submit/wait: job id plus the result (when completed).
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// Whether the result came from the content-addressed cache.
    pub cached: bool,
    /// The result — `None` when submitted without waiting.
    pub result: Option<JobResultData>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Internal(format!("connect {addr}: {e}")))?;
        // One-line request/reply traffic: Nagle + delayed ACK would add
        // ~40ms to every cache hit, swamping the O(1) lookup it reports.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ServeError::Internal(format!("clone stream: {e}")))?,
        );
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, v: &Json) -> Result<(), ServeError> {
        writeln!(self.writer, "{}", v).map_err(ServeError::Io)
    }

    fn recv(&mut self) -> Result<Json, ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(ServeError::Io)?;
        if n == 0 {
            return Err(ServeError::Unavailable("connection closed".into()));
        }
        parse(line.trim()).map_err(|e| ServeError::Internal(format!("bad reply: {e}")))
    }

    /// Read replies, forwarding `{"event":"progress"}` lines to
    /// `on_progress`, until the final (non-event) reply arrives.
    fn recv_final(&mut self, mut on_progress: impl FnMut(&str)) -> Result<Json, ServeError> {
        loop {
            let v = self.recv()?;
            if v.get("event").and_then(|e| e.as_str()) == Some("progress") {
                if let Some(line) = v.get("line").and_then(|l| l.as_str()) {
                    on_progress(line);
                }
                continue;
            }
            return Ok(v);
        }
    }

    /// Submit a request. With `wait`, blocks until the job completes (or is
    /// served from cache); with `stream` also set, forwards progress lines.
    pub fn submit(
        &mut self,
        request: Json,
        wait: bool,
        stream: bool,
        on_progress: impl FnMut(&str),
    ) -> Result<SubmitOutcome, ServeError> {
        self.send(&obj(vec![
            ("op", Json::Str("submit".to_string())),
            ("request", request),
            ("wait", Json::Bool(wait)),
            ("stream", Json::Bool(stream)),
        ]))?;
        let v = self.recv_final(on_progress)?;
        Self::outcome(&v)
    }

    /// Block until `job` completes; forwards progress when `stream`.
    pub fn wait(
        &mut self,
        job: u64,
        stream: bool,
        on_progress: impl FnMut(&str),
    ) -> Result<SubmitOutcome, ServeError> {
        self.send(&obj(vec![
            ("op", Json::Str("wait".to_string())),
            ("job", Json::Num(job as f64)),
            ("stream", Json::Bool(stream)),
        ]))?;
        let v = self.recv_final(on_progress)?;
        Self::outcome(&v)
    }

    /// One status snapshot for `job` (raw reply object).
    pub fn status(&mut self, job: u64) -> Result<Json, ServeError> {
        self.send(&obj(vec![
            ("op", Json::Str("status".to_string())),
            ("job", Json::Num(job as f64)),
        ]))?;
        self.checked()
    }

    /// Server counters (raw reply object).
    pub fn stats(&mut self) -> Result<Json, ServeError> {
        self.send(&obj(vec![("op", Json::Str("stats".to_string()))]))?;
        self.checked()
    }

    /// Ask the server to checkpoint-and-requeue `job`.
    pub fn preempt(&mut self, job: u64) -> Result<(), ServeError> {
        self.send(&obj(vec![
            ("op", Json::Str("preempt".to_string())),
            ("job", Json::Num(job as f64)),
        ]))?;
        self.checked().map(|_| ())
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.send(&obj(vec![("op", Json::Str("shutdown".to_string()))]))?;
        self.checked().map(|_| ())
    }

    fn checked(&mut self) -> Result<Json, ServeError> {
        let v = self.recv()?;
        Self::check_ok(&v)?;
        Ok(v)
    }

    fn check_ok(v: &Json) -> Result<(), ServeError> {
        if v.get("ok").and_then(|b| b.as_bool()) == Some(true) {
            Ok(())
        } else {
            let msg = v
                .get("error")
                .and_then(|e| e.as_str())
                .unwrap_or("unknown server error")
                .to_string();
            Err(ServeError::Remote(msg))
        }
    }

    fn outcome(v: &Json) -> Result<SubmitOutcome, ServeError> {
        Self::check_ok(v)?;
        let job = v
            .get("job")
            .and_then(|j| j.as_usize())
            .ok_or_else(|| ServeError::Internal("reply missing job id".into()))?
            as u64;
        let cached = v.get("cached").and_then(|b| b.as_bool()).unwrap_or(false);
        let result = v.get("result").and_then(JobResultData::from_json);
        Ok(SubmitOutcome {
            job,
            cached,
            result,
        })
    }
}
