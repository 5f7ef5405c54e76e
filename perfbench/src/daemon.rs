//! The load generator and registry scrape shared by the daemon workloads.
//!
//! One generator thread drives two connections to the in-process daemon.
//! In the **open loop** request `i` is due at `start + i / rate`, whatever
//! the daemon is doing; requests are pipelined and each is timed from its
//! due time, so a stall is charged to every request queued behind it. In
//! the **closed loop** each connection has one request in flight and sends
//! the next when the answer arrives; it gives throughput only. Both
//! phases send a fixed request list, so the work (and the windows an
//! ingest schedule creates) is set by the schedule, not by speed.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use sas_obs::MetricsReport;
use sas_store::wire::{decode_response, encode_request, Request, Response};

use crate::stats::{percentile, process_cpu_s, report_pair, Chunked, Fnv, Report};
use crate::trace::Tracer;

/// Request classes, in report order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Ingest,
    Estimate,
    Query,
    Ping,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Ingest, Class::Estimate, Class::Query, Class::Ping];

    /// The daemon's tag label for this class.
    pub fn tag(self) -> &'static str {
        match self {
            Class::Ingest => "ingest",
            Class::Estimate => "estimate",
            Class::Query => "query",
            Class::Ping => "ping",
        }
    }

    pub fn of(req: &Request) -> Class {
        match req {
            Request::Ingest { .. } => Class::Ingest,
            Request::Estimate { .. } => Class::Estimate,
            Request::Query { .. } => Class::Query,
            Request::Ping => Class::Ping,
            other => panic!("the workloads send no {other:?}"),
        }
    }

    fn wire_tag(self) -> u16 {
        use sas_codec::proto;
        match self {
            Class::Ingest => proto::REQ_INGEST,
            Class::Estimate => proto::REQ_ESTIMATE,
            Class::Query => proto::REQ_QUERY,
            Class::Ping => proto::REQ_PING,
        }
    }
}

/// A request list with its length-prefixed wire messages.
pub struct Schedule {
    pub requests: Vec<Request>,
    messages: Vec<Vec<u8>>,
}

impl Schedule {
    pub fn new(requests: Vec<Request>) -> Schedule {
        let messages = requests
            .iter()
            .map(|r| {
                let frame = encode_request(r);
                let mut m = Vec::with_capacity(frame.len() + 4);
                m.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                m.extend_from_slice(&frame);
                m
            })
            .collect();
        Schedule { requests, messages }
    }

    /// Fingerprint of the byte stream the generator sends.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for m in &self.messages {
            h.update(m);
        }
        h.0
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }
}

/// How one request went.
#[derive(Clone, Copy, Default)]
pub struct Outcome {
    /// Seconds from phase start to the request's due time.
    pub due_s: f64,
    /// Due time to decoded answer, ms (infinite when not answered).
    pub latency_ms: f64,
    /// Due time to send, ms.
    pub late_ms: f64,
    pub ok: bool,
    pub stale: bool,
    pub bound_violation: bool,
}

/// A phase's outcomes plus what its generator spans measured.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    pub classes: Vec<Class>,
    pub elapsed_s: f64,
    /// Offered rate of an open-loop phase.
    pub rate: Option<f64>,
    /// CPU seconds the whole process (daemon threads and generator) ran
    /// during the phase.
    pub cpu_s: f64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<usize>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until a connection is readable (or writable, where bytes are
/// queued) or `timeout` passes. `ppoll` takes a nanosecond timeout, so an
/// open loop wakes at the due time rather than at the next millisecond.
fn wait(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.out_pos < c.out.len() { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries; `ts` is a valid `struct timespec`
    // that outlives the call; a null signal mask leaves the mask unchanged.
    // The result (ready count, 0 on timeout, -1 on EINTR) needs no
    // handling: the caller re-checks every socket either way.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

fn connect(addr: SocketAddr) -> Conn {
    let stream = TcpStream::connect(addr).expect("connect to the in-process daemon");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    Conn {
        stream,
        out: Vec::new(),
        out_pos: 0,
        inbuf: Vec::new(),
        pending: VecDeque::new(),
    }
}

fn flush(c: &mut Conn) {
    while c.out_pos < c.out.len() {
        match c.stream.write(&c.out[c.out_pos..]) {
            Ok(0) => break,
            Ok(n) => c.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("generator write: {e}"),
        }
    }
    if c.out_pos == c.out.len() {
        c.out.clear();
        c.out_pos = 0;
    }
}

/// How late (p99, ms) the generator may send in an open loop before the
/// run is invalid. The same generator thread drives every open loop, so
/// one bound serves them all.
pub const LATE_BOUND_MS: f64 = 25.0;

/// Sends `schedule` over two connections: open loop at `rate` requests/s,
/// or closed loop (one in flight per connection) when `rate` is `None`.
/// Requests still unanswered `grace` after the last one was due count as
/// failed.
pub fn drive(
    addr: SocketAddr,
    schedule: &Schedule,
    rate: Option<f64>,
    grace: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let n = schedule.len();
    let classes: Vec<Class> = schedule.requests.iter().map(Class::of).collect();
    let mut conns = [connect(addr), connect(addr)];
    let mut outcomes = vec![
        Outcome {
            latency_ms: f64::INFINITY,
            ..Outcome::default()
        };
        n
    ];
    let mut sent_at = vec![Instant::now(); n];
    let mut due_at = vec![Instant::now(); n];
    let cpu_start = process_cpu_s();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| match rate {
        Some(r) => start + Duration::from_secs_f64(i as f64 / r),
        None => start,
    };
    let deadline = due(n) + grace;
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    while answered < n {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        // Send everything that is due.
        loop {
            if next >= n {
                break;
            }
            let c = match rate {
                Some(_) if due(next) <= now => next % 2,
                Some(_) => break,
                None => match conns.iter().position(|c| c.pending.is_empty()) {
                    Some(c) => c,
                    None => break,
                },
            };
            let sent = Instant::now();
            due_at[next] = if rate.is_some() { due(next) } else { sent };
            sent_at[next] = sent;
            if let Some(t) = tracer.as_deref_mut() {
                let id = t.begin("wire.encode_request", next as u64, None);
                std::hint::black_box(encode_request(&schedule.requests[next]));
                t.end(id);
            }
            conns[c].out.extend_from_slice(&schedule.messages[next]);
            conns[c].pending.push_back(next);
            flush(&mut conns[c]);
            next += 1;
        }
        let timeout = match rate {
            Some(_) if next < n => due(next).saturating_duration_since(Instant::now()),
            _ => Duration::from_millis(20),
        };
        if !timeout.is_zero() {
            wait(&conns, timeout.min(Duration::from_millis(20)));
        }
        for conn in conns.iter_mut() {
            flush(conn);
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => panic!("daemon closed a generator connection"),
                    Ok(k) => conn.inbuf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("generator read: {e}"),
                }
            }
            let mut consumed = 0;
            while conn.inbuf.len() - consumed >= 4 {
                let len = u32::from_le_bytes(
                    conn.inbuf[consumed..consumed + 4]
                        .try_into()
                        .expect("four bytes"),
                ) as usize;
                if conn.inbuf.len() - consumed < 4 + len {
                    break;
                }
                let frame = &conn.inbuf[consumed + 4..consumed + 4 + len];
                let i = conn
                    .pending
                    .pop_front()
                    .expect("an answer without a request");
                let t_dec = tracer.as_deref_mut().map(|t| t.now_ns());
                let resp = decode_response(frame, classes[i].wire_tag());
                let done = Instant::now();
                if let Some(t) = tracer.as_deref_mut() {
                    let dec_start = t_dec.expect("set with the tracer");
                    t.record("wire.decode_response", i as u64, dec_start, t.at(done));
                    let id = t.record("gen.request", i as u64, t.at(due_at[i]), t.at(done));
                    let sent = t.record(
                        "gen.due_to_sent",
                        i as u64,
                        t.at(due_at[i]),
                        t.at(sent_at[i]),
                    );
                    t.spans[sent as usize].parent = Some(id);
                }
                let o = &mut outcomes[i];
                o.due_s = due_at[i].saturating_duration_since(start).as_secs_f64();
                o.late_ms = sent_at[i]
                    .saturating_duration_since(due_at[i])
                    .as_secs_f64()
                    * 1e3;
                match resp {
                    Ok(Response::Err(msg)) => o.stale = msg.contains("already compacted"),
                    Ok(Response::Busy(_)) | Err(_) => {}
                    Ok(r) => {
                        o.ok = true;
                        o.latency_ms =
                            done.saturating_duration_since(due_at[i]).as_secs_f64() * 1e3;
                        if let Response::Estimate { estimate: e, .. } = r {
                            o.bound_violation = !(e.lower <= e.value && e.value <= e.upper);
                        }
                    }
                }
                answered += 1;
                consumed += 4 + len;
            }
            conn.inbuf.drain(..consumed);
        }
    }
    Phase {
        outcomes,
        classes,
        elapsed_s: start.elapsed().as_secs_f64(),
        rate,
        cpu_s: process_cpu_s() - cpu_start,
    }
}

impl Phase {
    /// `(due position, latency)` samples of one class; failed requests
    /// keep an infinite latency, so they miss every limit.
    pub fn samples(&self, class: Class) -> Vec<(f64, f64)> {
        self.outcomes
            .iter()
            .zip(&self.classes)
            .filter(|(_, c)| **c == class)
            .map(|(o, _)| (o.due_s, o.latency_ms))
            .collect()
    }

    /// One class's latencies, ascending.
    pub fn sorted(&self, class: Class) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples(class).into_iter().map(|s| s.1).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn span_s(&self) -> f64 {
        match self.rate {
            Some(r) => self.outcomes.len() as f64 / r,
            None => self.elapsed_s,
        }
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    /// Requests completed per CPU second of the whole process (daemon and
    /// generator). Unlike requests per wall second it does not fall when
    /// the hypervisor gives the CPUs to other guests; time spent waiting
    /// on the disk shows in the latencies instead.
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.outcomes.len() as f64 / self.cpu_s
    }

    /// Checks that apply to every phase. An open loop is valid only if the
    /// generator kept to its schedule.
    pub fn check(&self, name: &str, report: &mut Report) {
        if self.rate.is_some() {
            let late = self.late_p99_ms();
            report.check(late <= LATE_BOUND_MS, || {
                format!(
                    "{name}: generator ran late, p99 {late:.3} ms beyond its {LATE_BOUND_MS} ms bound; run invalid"
                )
            });
        }
        let stale = self.outcomes.iter().filter(|o| o.stale).count();
        report.check(stale == 0, || {
            format!("{name}: {stale} ingests refused as stale")
        });
        let bad = self.outcomes.iter().filter(|o| o.bound_violation).count();
        report.check(bad == 0, || {
            format!("{name}: {bad} estimates outside their own [lower, upper]")
        });
        let failed = self.failed();
        report.check(failed == 0, || {
            format!(
                "{name}: {failed} of {} requests failed, were shed or went unanswered",
                self.outcomes.len()
            )
        });
    }

    pub fn late_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self.outcomes.iter().map(|o| o.late_ms).collect();
        late.sort_by(f64::total_cmp);
        percentile(&late, 99.0)
    }

    /// Per-class counts and percentiles, for the human-readable lines.
    pub fn describe(&self, name: &str, report: &mut Report) {
        for class in Class::ALL {
            let v = self.sorted(class);
            if v.is_empty() {
                continue;
            }
            let tail = crate::stats::supported_tail(v.len());
            report.note(format!(
                "{name} {:<8} n={:<6} p50={:.4} ms p{tail}={:.4} ms max={:.4} ms",
                class.tag(),
                v.len(),
                percentile(&v, 50.0),
                percentile(&v, tail),
                v[v.len() - 1]
            ));
        }
    }
}

/// Slices a phase is cut into for its reported figures.
pub const SLICES: usize = 10;

/// The latency metric pair of one class in an open-loop phase, over
/// `SLICES` time slices (see `report_pair`).
pub fn latency_metrics(
    report: &mut Report,
    prefix: &str,
    phase: &Phase,
    class: Class,
    tail: f64,
    what: &str,
) {
    let chunks = Chunked::new(&phase.samples(class), phase.span_s(), SLICES);
    let slices: Vec<String> = chunks
        .per_slice(50.0)
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect();
    report.note(format!("{prefix} per-slice p50 ms: {}", slices.join(" ")));
    let rate = phase.rate.unwrap_or(0.0);
    report_pair(
        report,
        prefix,
        &chunks,
        tail,
        &format!("{what}, from due time, open loop at {rate} req/s"),
    );
}

fn counter(m: &MetricsReport, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn counter_sum(m: &MetricsReport, prefix: &str) -> u64 {
    m.counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

fn hist_us(m: &MetricsReport, name: &str, p: f64) -> f64 {
    m.histograms
        .iter()
        .find(|(n, _)| n == name)
        .filter(|(_, h)| h.count > 0)
        .map(|(_, h)| h.percentile(p) as f64 / 1e3)
        .unwrap_or(0.0)
}

/// Reads the daemon registry (`Store::obs()`) into the per-layer names:
/// stage histograms per tag, loop wake-ups, sheds, cache counters and
/// compaction. `client_p50_ms` gives each tag's generator-side median, from
/// which the part no stage covers is derived.
pub fn scrape(report: &mut Report, m: &MetricsReport, client_p50_ms: &[(Class, f64)]) {
    const STAGES: [&str; 6] = ["read", "parse", "queue", "work", "queued", "flush"];
    for class in Class::ALL {
        let tag = class.tag();
        let mut stage_sum_us = 0.0;
        for stage in STAGES {
            let v = hist_us(
                m,
                &format!("sas_stage_ns{{tag=\"{tag}\",stage=\"{stage}\"}}"),
                50.0,
            );
            stage_sum_us += v;
            report.set(&format!("server.{tag}.{stage}_p50_us"), v);
        }
        if let Some((_, p50)) = client_p50_ms.iter().find(|(c, _)| *c == class) {
            if stage_sum_us > 0.0 {
                report.set(
                    &format!("gen.uncovered.{tag}_p50_ms"),
                    p50 - stage_sum_us / 1e3,
                );
            }
        }
    }
    for tag in ["ingest", "estimate"] {
        for stage in ["queue", "work"] {
            let v = hist_us(
                m,
                &format!("sas_stage_ns{{tag=\"{tag}\",stage=\"{stage}\"}}"),
                99.0,
            );
            report.set(&format!("server.{tag}.{stage}_p99_us"), v);
        }
    }
    let requests = counter_sum(m, "sas_requests_total{") as f64;
    let wakeups = counter(m, "sas_loop_wakeups_total") as f64;
    report.set("server.wakeups_per_request", wakeups / requests.max(1.0));
    report.set(
        "server.spurious_wakeup_ratio",
        counter(m, "sas_loop_spurious_wakeups_total") as f64 / wakeups.max(1.0),
    );
    report.set(
        "server.busy_shed",
        (counter(m, "sas_requests_shed_total") + counter(m, "sas_conns_shed_total")) as f64,
    );
    report.set(
        "server.backpressure_stalls",
        counter(m, "sas_read_backpressure_stalls_total") as f64,
    );
    let hits = counter_sum(m, "sas_store_cache_hits_total") as f64;
    let misses = counter_sum(m, "sas_store_cache_misses_total") as f64;
    report.set("store.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.set(
        "store.compaction_ms_p50",
        hist_us(m, "sas_store_compaction_ns", 50.0) / 1e3,
    );
    report.set(
        "store.compaction_ms_max",
        hist_us(m, "sas_store_compaction_ns", 100.0) / 1e3,
    );
    report.note(format!(
        "registry: {requests} requests, {wakeups} loop wake-ups, cache {hits} hits / {misses} misses"
    ));
}

/// What an in-process replay of a request list measured.
#[derive(Default)]
pub struct Replay {
    pub estimates: usize,
    pub uncached: usize,
    pub windows_consulted: u64,
    pub ingests: usize,
    pub user_bytes: u64,
    pub written_bytes: u64,
    pub manifest_bytes: u64,
    pub decoded_bytes: u64,
    pub encoded_bytes: u64,
}

/// Replays `requests` against `store` in-process, in order, with spans
/// around `Store::ingest`, `Store::estimate` and `Store::query`. An
/// uncached estimate is followed by its decomposition on the same
/// snapshot: `Store::snapshot`, `Snapshot::matching` and each window's
/// `Summary::answer`, under one `store.estimate_path` span. An ingest into
/// an existing window is preceded by a side measurement of the merge
/// (`merge_in_place` on a copy), and followed by reads of the frame and
/// manifest sizes it wrote.
pub fn replay(store: &sas_store::Store, requests: &[Request], t: &mut Tracer) -> Replay {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sas_summaries::{decode_summary, encode_summary};

    let mut r = Replay::default();
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64;
        match req {
            Request::Estimate {
                dataset,
                kind,
                query,
                confidence,
                time,
            } => {
                let answer = t
                    .span("store.estimate", id, None, || {
                        store.estimate(dataset, *kind, query, *confidence, *time)
                    })
                    .expect("replayed estimate");
                r.estimates += 1;
                r.windows_consulted += answer.windows;
                if !answer.cached {
                    r.uncached += 1;
                    let path = t.begin("store.estimate_path", id, None);
                    let snap = t.span("store.snapshot", id, Some(path), || store.snapshot());
                    let windows = t.span("snapshot.matching", id, Some(path), || {
                        snap.matching(dataset, *kind, *time)
                    });
                    let per_window = 1.0 - (1.0 - confidence) / windows.len().max(1) as f64;
                    for w in &windows {
                        let e = t.span("summary.answer", id, Some(path), || {
                            w.summary.answer(query, per_window)
                        });
                        std::hint::black_box(e.expect("window answer"));
                    }
                    t.end(path);
                }
            }
            Request::Query {
                dataset,
                kind,
                range,
                time,
            } => {
                let a = t.span("store.query", id, None, || {
                    store.query(dataset, *kind, range, *time)
                });
                std::hint::black_box(a);
            }
            Request::Ingest { dataset, ts, frame } => {
                let batch = t.span("codec.decode_summary", id, None, || decode_summary(frame));
                let batch = batch.expect("replayed batch frame");
                r.decoded_bytes += frame.len() as u64;
                let key = sas_store::window::WindowKey::minute(dataset, batch.kind(), *ts);
                if let Some(existing) = store.snapshot().windows.get(&key) {
                    let mut copy = sas_store::hydrate_clone(existing.summary.as_ref());
                    let mut rng = StdRng::seed_from_u64(id);
                    let other = batch.clone();
                    t.span("summaries.merge_in_place", id, None, || {
                        copy.merge_in_place(other, None, &mut rng)
                    })
                    .expect("side merge");
                }
                let state = t
                    .span("store.ingest", id, None, || {
                        store.ingest(dataset, *ts, batch)
                    })
                    .expect("replayed ingest");
                let bytes = t.span("codec.encode_summary", id, None, || {
                    encode_summary(state.summary.as_ref())
                });
                r.encoded_bytes += bytes.len() as u64;
                let frame_path = sas_store::frame_path(store.dir(), &state.key);
                let manifest = store.dir().join(sas_store::MANIFEST_FILE);
                let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                let manifest_bytes = size(&manifest);
                r.ingests += 1;
                r.user_bytes += frame.len() as u64;
                r.manifest_bytes += manifest_bytes;
                r.written_bytes += size(&frame_path) + manifest_bytes;
            }
            Request::Ping => {}
            other => panic!("the workloads send no {other:?}"),
        }
    }
    r
}

/// Per-layer metrics from a replay's spans.
pub fn replay_metrics(report: &mut Report, r: &Replay, t: &Tracer) {
    let p = |name: &str, q: f64| {
        let d = t.durations(name);
        if d.is_empty() {
            0.0
        } else {
            percentile(&d, q) / 1e3
        }
    };
    report.set("store.estimate_us_p50", p("store.estimate", 50.0));
    report.set("store.matching_us_p50", p("snapshot.matching", 50.0));
    report.set("store.window_answer_us_p50", p("summary.answer", 50.0));
    report.set("store.ingest_us_p50", p("store.ingest", 50.0));
    report.set("store.ingest_us_p99", p("store.ingest", 99.0));
    report.set(
        "summaries.merge_us_p50",
        p("summaries.merge_in_place", 50.0),
    );
    if r.estimates > 0 {
        report.set(
            "store.windows_per_estimate",
            r.windows_consulted as f64 / r.estimates as f64,
        );
    }
    if r.ingests > 0 {
        report.set(
            "store.manifest_bytes_per_ingest",
            r.manifest_bytes as f64 / r.ingests as f64,
        );
        report.set(
            "store.bytes_written_per_user_byte",
            r.written_bytes as f64 / r.user_bytes as f64,
        );
    }
    let (enc_ns, _) = t.total("codec.encode_summary");
    let (dec_ns, _) = t.total("codec.decode_summary");
    if enc_ns > 0.0 {
        report.set("codec.encode_mb_s", r.encoded_bytes as f64 / enc_ns * 1e3);
    }
    if dec_ns > 0.0 {
        report.set("codec.decode_mb_s", r.decoded_bytes as f64 / dec_ns * 1e3);
    }
    let w = |name: &str| {
        let d = t.durations(name);
        if d.is_empty() {
            0.0
        } else {
            percentile(&d, 50.0)
        }
    };
    report.set("wire.encode_ns_p50", w("wire.encode_request"));
    report.set("wire.decode_ns_p50", w("wire.decode_response"));
    report.note(format!(
        "replay: {} estimates ({} uncached), {} ingests",
        r.estimates, r.uncached, r.ingests
    ));
}
