//! Clients for the digitization service.
//!
//! [`Client`] owns one connection and exposes the protocol as plain
//! blocking calls: [`Client::ping`], [`Client::digitize`] (reassembles
//! the streamed batches and verifies the stream CRC),
//! [`Client::metrics`], and [`Client::shutdown`]. Requests on one
//! `Client` are sequential: a digitization is a `Submit` under a fixed
//! correlation id whose tagged frames are read until the request ends.
//!
//! [`PipelinedClient`] keeps many requests in flight on one connection:
//! each [`PipelinedClient::submit`] assigns a correlation id and
//! returns immediately; [`PipelinedClient::next_completion`] yields
//! finished requests in whatever order the server completes them.
//!
//! Both clients feed stream frames through one reassembly that checks
//! batch ordering, the element count, and the server's stream CRC.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    self, encode_request, CacheFillRequest, CacheQueryRequest, DigitizeDone, DigitizeRequest,
    ErrorCode, FrameAssembler, FrameReadError, GangedDone, GangedRequest, JobBatchRequest,
    JobResultBatch, MetricsSnapshot, Request, Response, SubmitBody, SubmitRequest, WireError,
};

/// Correlation id the blocking [`Client`] submits under: it has one
/// request in flight at a time, so one fixed id suffices.
const BLOCKING_CORR: u64 = 1;
use crate::server::{stream_crc, value_stream_crc};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent a frame this client could not decode.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request in flight.
    UnexpectedResponse(&'static str),
    /// The reassembled stream failed a local consistency check.
    StreamCorrupt(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Server { code, detail } => write!(f, "server error ({code:?}): {detail}"),
            Self::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
            Self::StreamCorrupt(detail) => write!(f, "stream corrupt: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(io) => Self::Io(io),
            FrameReadError::Wire(w) => Self::Wire(w),
        }
    }
}

/// A completed digitization: the full reassembled record plus the
/// server's completion summary.
#[derive(Debug, Clone)]
pub struct DigitizeResult {
    /// The converted codes, in order.
    pub samples: Vec<u16>,
    /// The server's end-of-stream summary (exact stimulus frequency,
    /// batch count, stream CRC).
    pub done: DigitizeDone,
}

/// A completed ganged digitization: the reassembled interleaved record
/// (reconstructed volts, bit-exact) plus the server's summary.
#[derive(Debug, Clone)]
pub struct GangedResult {
    /// The interleaved record values, in order.
    pub values: Vec<f64>,
    /// The server's end-of-stream summary (stimulus frequency,
    /// calibration epochs, convergence, stream CRC).
    pub done: GangedDone,
}

/// One blocking connection to an `adc-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_payload: u32,
}

impl Client {
    /// Connects with the protocol's default payload ceiling.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            max_payload: protocol::MAX_PAYLOAD,
        })
    }

    /// Sets a read timeout on the underlying socket (`None` blocks
    /// forever). Useful around [`Client::digitize`] with server-side
    /// deadlines.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let frame = encode_request(request);
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        Ok(protocol::read_response(&mut self.stream, self.max_payload)?)
    }

    /// Round-trips a liveness probe, returning the echoed token.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn ping(&mut self, token: u64) -> Result<u64, ClientError> {
        self.send(&Request::Ping { token })?;
        match self.recv()? {
            Response::Pong { token } => Ok(token),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected pong")),
        }
    }

    /// Submits `body` and reads its tagged frames until the request
    /// ends. A typed error frame ends it as [`ClientError::Server`].
    fn run(&mut self, body: SubmitBody) -> Result<PipelinedOutcome, ClientError> {
        let mut accum = Accum::for_body(&body);
        self.send(&Request::Submit(SubmitRequest {
            corr_id: BLOCKING_CORR,
            body,
        }))?;
        loop {
            let frame = match self.recv()? {
                Response::Tagged {
                    corr_id: BLOCKING_CORR,
                    inner,
                } => *inner,
                // An untagged error is connection-level (protocol fault).
                Response::Error { code, detail } => {
                    return Err(ClientError::Server { code, detail })
                }
                _ => {
                    return Err(ClientError::UnexpectedResponse(
                        "expected a frame of the submitted request",
                    ))
                }
            };
            match accum.feed(frame)? {
                None => {}
                Some(PipelinedOutcome::ServerError { code, detail }) => {
                    return Err(ClientError::Server { code, detail })
                }
                Some(outcome) => return Ok(outcome),
            }
        }
    }

    /// Runs one digitization, blocking until the full record has
    /// streamed back. Verifies batch ordering, the sample count, and
    /// the server's stream CRC before returning.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors (including mid-stream typed
    /// errors like `TimedOut`), and [`ClientError::StreamCorrupt`] if
    /// reassembly fails a consistency check.
    pub fn digitize(&mut self, request: &DigitizeRequest) -> Result<DigitizeResult, ClientError> {
        match self.run(SubmitBody::Digitize(request.clone()))? {
            PipelinedOutcome::Digitize(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse(
                "expected a digitize record",
            )),
        }
    }

    /// Runs one ganged digitization through a server-side interleaved
    /// array, blocking until the full record has streamed back. Verifies
    /// batch ordering, the value count, and the server's stream CRC
    /// before returning; values are bit-identical to an in-process
    /// `adc_calib::GangedScenario` capture of the same request.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors, and
    /// [`ClientError::StreamCorrupt`] if reassembly fails a consistency
    /// check.
    pub fn digitize_ganged(
        &mut self,
        request: &GangedRequest,
    ) -> Result<GangedResult, ClientError> {
        match self.run(SubmitBody::Ganged(request.clone()))? {
            PipelinedOutcome::Ganged(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse("expected a ganged record")),
        }
    }

    /// Submits a batch of campaign jobs and blocks for the outcomes.
    ///
    /// The response carries one [`protocol::JobOutcome`] per submitted
    /// job, in submission order; the caller (normally the
    /// `adc-cluster` executor) decides what to resubmit based on each
    /// outcome's typed status.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors (notably
    /// [`ErrorCode::Unsupported`] from a host with no job runner), and
    /// [`ClientError::StreamCorrupt`] if the response does not answer
    /// the submitted batch.
    pub fn job_batch(&mut self, request: &JobBatchRequest) -> Result<JobResultBatch, ClientError> {
        self.send(&Request::JobBatch(request.clone()))?;
        match self.recv()? {
            Response::JobResult(result) => {
                if result.batch_id != request.batch_id {
                    return Err(ClientError::StreamCorrupt(format!(
                        "job result for batch {}, expected {}",
                        result.batch_id, request.batch_id
                    )));
                }
                if result.outcomes.len() != request.jobs.len() {
                    return Err(ClientError::StreamCorrupt(format!(
                        "{} outcomes for {} jobs",
                        result.outcomes.len(),
                        request.jobs.len()
                    )));
                }
                Ok(result)
            }
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected job result")),
        }
    }

    /// Probes the host's warm cache for `keys` in `campaign`'s
    /// namespace, returning the `(key, encoded line)` hits.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn cache_query(
        &mut self,
        campaign: &str,
        keys: &[u64],
    ) -> Result<Vec<(u64, String)>, ClientError> {
        self.send(&Request::CacheQuery(CacheQueryRequest {
            campaign: campaign.to_string(),
            keys: keys.to_vec(),
        }))?;
        match self.recv()? {
            Response::CacheHits { entries } => Ok(entries),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected cache hits")),
        }
    }

    /// Merges `(key, encoded line)` entries into the host's warm cache
    /// for `campaign`, returning how many were newly inserted.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn cache_fill(
        &mut self,
        campaign: &str,
        entries: &[(u64, String)],
    ) -> Result<u32, ClientError> {
        self.send(&Request::CacheFill(CacheFillRequest {
            campaign: campaign.to_string(),
            entries: entries.to_vec(),
        }))?;
        match self.recv()? {
            Response::CacheFillAck { accepted } => Ok(accepted),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected cache fill ack")),
        }
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.send(&Request::Metrics)?;
        match self.recv()? {
            Response::Metrics(snapshot) => Ok(snapshot),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected metrics")),
        }
    }

    /// Asks the server to begin a graceful drain. Returns once the
    /// server acknowledges.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShutdownAck => Ok(()),
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse("expected shutdown ack")),
        }
    }
}

/// How one pipelined request ended.
#[derive(Debug, Clone)]
pub enum PipelinedOutcome {
    /// The digitization completed and passed reassembly checks.
    Digitize(DigitizeResult),
    /// The ganged digitization completed and passed reassembly checks.
    Ganged(GangedResult),
    /// The server answered this request with a typed error frame
    /// (validation, overload shed, deadline, ...). Per-request — the
    /// connection and the other in-flight requests are unaffected.
    ServerError {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// In-progress reassembly of one streamed record: codes (`u16`) for
/// single-die digitizations, bit-exact volts (`f64`) for ganged ones.
#[derive(Debug)]
struct Reassembly<T> {
    items: Vec<T>,
    next_seq: u32,
}

impl<T: Copy> Reassembly<T> {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            next_seq: 0,
        }
    }

    /// Appends batch `seq`, which must be the next in order.
    fn push(&mut self, seq: u32, chunk: &[T]) -> Result<(), ClientError> {
        if seq != self.next_seq {
            return Err(ClientError::StreamCorrupt(format!(
                "batch {seq} arrived, expected {}",
                self.next_seq
            )));
        }
        self.next_seq += 1;
        self.items.extend_from_slice(chunk);
        Ok(())
    }

    /// Checks the reassembled record against the server's summary
    /// (`crc_of` is the element type's stream CRC) and hands it over.
    fn finish(
        &mut self,
        total: u32,
        batches: u32,
        crc: u32,
        crc_of: fn(&[T]) -> u32,
    ) -> Result<Vec<T>, ClientError> {
        let corrupt = |detail: String| Err(ClientError::StreamCorrupt(detail));
        if total as usize != self.items.len() {
            return corrupt(format!(
                "done claims {total} samples, reassembled {}",
                self.items.len()
            ));
        }
        if batches != self.next_seq {
            return corrupt(format!(
                "done claims {batches} batches, received {}",
                self.next_seq
            ));
        }
        let got = crc_of(&self.items);
        if got != crc {
            return corrupt(format!("stream CRC {got:08x} != server's {crc:08x}"));
        }
        Ok(std::mem::take(&mut self.items))
    }
}

/// In-progress reassembly of one submitted request, by body kind.
#[derive(Debug)]
enum Accum {
    Digitize(Reassembly<u16>),
    Ganged(Reassembly<f64>),
}

impl Accum {
    fn for_body(body: &SubmitBody) -> Self {
        match body {
            SubmitBody::Digitize(_) => Self::Digitize(Reassembly::new()),
            SubmitBody::Ganged(_) => Self::Ganged(Reassembly::new()),
        }
    }

    /// Feeds one frame of this request's stream (the inner frame of a
    /// [`Response::Tagged`]). Returns the outcome once the request is
    /// over: its record passed every check, or a typed error ended it.
    fn feed(&mut self, frame: Response) -> Result<Option<PipelinedOutcome>, ClientError> {
        let outcome = match (self, frame) {
            (Self::Digitize(r), Response::Batch { seq, samples }) => {
                r.push(seq, &samples)?;
                return Ok(None);
            }
            (Self::Ganged(r), Response::GangedBatch { seq, values }) => {
                r.push(seq, &values)?;
                return Ok(None);
            }
            (Self::Digitize(r), Response::Done(done)) => {
                let samples = r.finish(
                    done.total_samples,
                    done.batches,
                    done.stream_crc32,
                    stream_crc,
                )?;
                PipelinedOutcome::Digitize(DigitizeResult { samples, done })
            }
            (Self::Ganged(r), Response::GangedDone(done)) => {
                let values = r.finish(
                    done.total_samples,
                    done.batches,
                    done.stream_crc32,
                    value_stream_crc,
                )?;
                PipelinedOutcome::Ganged(GangedResult { values, done })
            }
            // Typed per-request failure (validation, overload shed,
            // deadline): the request is over, the connection fine.
            (_, Response::Error { code, detail }) => PipelinedOutcome::ServerError { code, detail },
            (
                _,
                Response::Batch { .. }
                | Response::Done(_)
                | Response::GangedBatch { .. }
                | Response::GangedDone(_),
            ) => {
                return Err(ClientError::StreamCorrupt(
                    "record frame of the other body kind".to_string(),
                ))
            }
            _ => {
                return Err(ClientError::UnexpectedResponse(
                    "unexpected tagged frame kind",
                ))
            }
        };
        Ok(Some(outcome))
    }
}

/// A pipelined connection: many requests in flight at once, completed
/// out of order.
///
/// Every submission gets a nonzero correlation id (assigned here,
/// counting up from 1); the server tags each response frame with it,
/// so interleaved streams demultiplex unambiguously. Completions are
/// yielded in **server finish order**, each verified exactly like the
/// blocking [`Client`] path: batch ordering, sample count, and stream
/// CRC.
///
/// ```
/// use adc_server::{DigitizeRequest, PipelinedClient, PipelinedOutcome, Server, ServerConfig};
///
/// let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = PipelinedClient::connect(handle.addr()).unwrap();
/// let a = client.submit(&DigitizeRequest::tone(7, 10e6, 1024)).unwrap();
/// let b = client.submit(&DigitizeRequest::tone(8, 10e6, 1024)).unwrap();
/// let mut seen = Vec::new();
/// while client.in_flight() > 0 {
///     let (corr, outcome) = client.next_completion().unwrap();
///     assert!(matches!(outcome, PipelinedOutcome::Digitize(_)));
///     seen.push(corr);
/// }
/// seen.sort_unstable();
/// assert_eq!(seen, vec![a, b]);
/// handle.shutdown();
/// join.join().unwrap().unwrap();
/// ```
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
    assembler: FrameAssembler,
    max_payload: u32,
    next_corr: u64,
    pending: BTreeMap<u64, Accum>,
    ready: VecDeque<(u64, PipelinedOutcome)>,
}

impl PipelinedClient {
    /// Connects with the protocol's default payload ceiling.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            max_payload: protocol::MAX_PAYLOAD,
            next_corr: 1,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
        })
    }

    /// Sets a read timeout on the underlying socket (`None` blocks
    /// forever). With a timeout set, [`Self::try_next_completion`]
    /// returns `Ok(None)` when it expires with nothing decoded.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Switches the underlying socket between blocking and non-blocking
    /// mode. Non-blocking makes [`Self::try_next_completion`] return
    /// immediately instead of waiting out the read timeout — kernels
    /// round `SO_RCVTIMEO` up to scheduler-tick granularity, so a
    /// "1 ms" timeout can block for several milliseconds, which matters
    /// to open-loop load generators pacing precise arrival schedules.
    /// Partial frames are preserved across calls either way. Callers
    /// must restore blocking mode before using the blocking APIs
    /// ([`Self::next_completion`], [`Self::submit`] under a full send
    /// buffer).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Requests submitted but not yet yielded by a completion call.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Submits a digitization without waiting, returning its
    /// correlation id.
    ///
    /// # Errors
    ///
    /// Transport failures writing the request frame.
    pub fn submit(&mut self, request: &DigitizeRequest) -> Result<u64, ClientError> {
        self.submit_body(SubmitBody::Digitize(request.clone()))
    }

    /// Submits a ganged digitization without waiting, returning its
    /// correlation id.
    ///
    /// # Errors
    ///
    /// Transport failures writing the request frame.
    pub fn submit_ganged(&mut self, request: &GangedRequest) -> Result<u64, ClientError> {
        self.submit_body(SubmitBody::Ganged(request.clone()))
    }

    fn submit_body(&mut self, body: SubmitBody) -> Result<u64, ClientError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let accum = Accum::for_body(&body);
        let frame = encode_request(&Request::Submit(SubmitRequest {
            corr_id: corr,
            body,
        }));
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        self.pending.insert(corr, accum);
        Ok(corr)
    }

    /// Blocks for the next finished request, in server completion
    /// order.
    ///
    /// # Errors
    ///
    /// Transport or wire errors, connection-level server errors (e.g. a
    /// protocol fault, which poisons the whole stream), and
    /// [`ClientError::StreamCorrupt`] if any in-flight reassembly fails
    /// a consistency check. Per-request server errors are **not**
    /// errors here — they arrive as [`PipelinedOutcome::ServerError`].
    pub fn next_completion(&mut self) -> Result<(u64, PipelinedOutcome), ClientError> {
        loop {
            if let Some(done) = self.ready.pop_front() {
                return Ok(done);
            }
            self.pump()?;
        }
    }

    /// Like [`Self::next_completion`] but yields `Ok(None)` instead of
    /// blocking past the socket's read timeout (see
    /// [`Self::set_read_timeout`]).
    ///
    /// # Errors
    ///
    /// As [`Self::next_completion`].
    pub fn try_next_completion(&mut self) -> Result<Option<(u64, PipelinedOutcome)>, ClientError> {
        if let Some(done) = self.ready.pop_front() {
            return Ok(Some(done));
        }
        match self.pump() {
            Ok(()) => Ok(self.ready.pop_front()),
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads once from the socket and decodes every completed frame
    /// into `ready`.
    fn pump(&mut self) -> Result<(), ClientError> {
        let mut buf = [0u8; 64 * 1024];
        let n = self.stream.read(&mut buf)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        self.assembler.extend(&buf[..n]);
        loop {
            let frame = self
                .assembler
                .next_frame(self.max_payload)
                .map_err(ClientError::Wire)?;
            let Some((kind, payload)) = frame else {
                return Ok(());
            };
            let response = Response::decode(kind, &payload).map_err(ClientError::Wire)?;
            self.accept_frame(response)?;
        }
    }

    /// Routes one decoded frame to its request's reassembly state.
    fn accept_frame(&mut self, response: Response) -> Result<(), ClientError> {
        let (corr, inner) = match response {
            Response::Tagged { corr_id, inner } => (corr_id, *inner),
            // An untagged error is connection-level (protocol fault):
            // the stream is poisoned, surface it as a hard error.
            Response::Error { code, detail } => return Err(ClientError::Server { code, detail }),
            _ => {
                return Err(ClientError::UnexpectedResponse(
                    "untagged frame on a pipelined connection",
                ))
            }
        };
        let Some(accum) = self.pending.get_mut(&corr) else {
            return Err(ClientError::StreamCorrupt(format!(
                "frame for unknown request {corr}"
            )));
        };
        match accum.feed(inner) {
            Ok(None) => Ok(()),
            Ok(Some(outcome)) => {
                self.pending.remove(&corr);
                self.ready.push_back((corr, outcome));
                Ok(())
            }
            Err(ClientError::StreamCorrupt(detail)) => Err(ClientError::StreamCorrupt(format!(
                "request {corr}: {detail}"
            ))),
            Err(e) => Err(e),
        }
    }
}
