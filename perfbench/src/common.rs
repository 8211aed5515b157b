//! Shared plumbing: the seeded generator, statistics, the keep-alive
//! wire client, event-stream collection and the result record.

use cadel::api::EventStream;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and not on any generator inside the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile of `samples` by linear interpolation between the
/// closest ranks. Zero when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The actuation tail, printed but not a bounded metric: on a shared host
/// it moves with steal time and disk flush stalls more than any bound
/// allows (see the README).
pub fn tail_note(what: &str, samples_us: &[f64]) -> String {
    format!(
        "{what} tail (not a bounded metric): p90 {:.1} us, p99 {:.1} us over {} samples",
        quantile(samples_us, 0.90),
        quantile(samples_us, 0.99),
        samples_us.len()
    )
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One request, serialized once before it is timed.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: cadel\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The one keep-alive request connection of the load generator.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Every request sent, for the traced run's direct parse timing.
    pub sent: u64,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(Wire {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            sent: 0,
        })
    }

    /// Sends pre-serialized request bytes and reads the whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.sent += 1;
        self.stream.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())
                    .flatten()
            })
            .unwrap_or(0);
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        Ok(Reply {
            status,
            body: self.buf[body_start..body_start + length].to_vec(),
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Matches `NOTIFY` frames against the reference model's predictions and
/// records the actuation latency of each: from the send of the POST that
/// carried the tenant's readings for that wave to the frame's arrival.
pub struct Notifications {
    pub stream: EventStream,
    /// Predicted frame → index of the request whose send time starts its
    /// latency.
    expected: HashMap<String, usize>,
    pub latencies_us: Vec<f64>,
    pub matched: u64,
}

impl Notifications {
    pub fn new(stream: EventStream) -> Notifications {
        Notifications {
            stream,
            expected: HashMap::new(),
            latencies_us: Vec::new(),
            matched: 0,
        }
    }

    pub fn expect(&mut self, frame: String, sender: usize) {
        self.expected.insert(frame, sender);
    }

    /// Reads frames until every expected frame has arrived. A frame the
    /// model did not predict, an `ALERT`, or a missing frame is an error.
    ///
    /// Every frame of a wave is queued before the wave's reply is written,
    /// so a frame still missing after a few seconds (heartbeats keep
    /// arriving meanwhile) never comes.
    pub fn collect(&mut self, sent: &[Instant], errors: &mut Vec<String>) {
        let started = Instant::now();
        while !self.expected.is_empty() {
            let failure = match self.stream.next_frame() {
                Ok(Some(frame)) => {
                    self.match_frame(frame, sent, errors);
                    let late = started.elapsed() > Duration::from_secs(3);
                    (late && !self.expected.is_empty()).then(|| "timed out".to_owned())
                }
                Ok(None) => Some("event stream closed".to_owned()),
                Err(error) => Some(error.to_string()),
            };
            if let Some(failure) = failure {
                let mut missing: Vec<&String> = self.expected.keys().collect();
                missing.sort();
                errors.push(format!(
                    "{} predicted frames never arrived ({failure}), e.g. {:?}",
                    missing.len(),
                    missing.first()
                ));
                self.expected.clear();
            }
        }
    }

    fn match_frame(&mut self, frame: String, sent: &[Instant], errors: &mut Vec<String>) {
        if frame == "PING" {
            return;
        }
        match self.expected.remove(&frame) {
            Some(sender) => {
                self.matched += 1;
                self.latencies_us.push(micros(sent[sender].elapsed()));
            }
            None => errors.push(format!("unpredicted frame: {frame}")),
        }
    }

    /// Reads until the stream idles long enough for a heartbeat: every
    /// frame still queued must have been predicted (none are).
    pub fn drain(&mut self, errors: &mut Vec<String>) {
        loop {
            match self.stream.next_frame() {
                Ok(Some(frame)) if frame == "PING" => return,
                Ok(Some(frame)) => errors.push(format!("unpredicted frame: {frame}")),
                Ok(None) => return,
                Err(error) => {
                    errors.push(format!("event stream failed while draining: {error}"));
                    return;
                }
            }
        }
    }
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one run hands back to `main`.
#[derive(Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Counts one wire operation and checks its status.
    pub fn check_status(&mut self, what: &str, reply: &io::Result<Reply>, want: &[u16]) -> bool {
        self.attempted += 1;
        match reply {
            Ok(reply) if want.contains(&reply.status) => true,
            Ok(reply) => {
                self.failed += 1;
                self.errors.push(format!(
                    "{what}: status {} ({})",
                    reply.status,
                    reply.text()
                ));
                false
            }
            Err(error) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {error}"));
                false
            }
        }
    }
}
