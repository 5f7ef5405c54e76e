//! `daemon-read`: estimates and legacy queries over one dataset of 2-D
//! windows served from mapped v2 segments, with no ingest.
//!
//! Set-up ingests `WINDOWS` structure-aware 2-D samples, converts the store
//! to `SegmentV2` and reopens it, so reads run on mapped segments. The mix
//! is estimates over distinct boxes (far more than the query cache holds,
//! so they miss), a stated share drawn from a small hot set (which fits the
//! cache), legacy `REQ_QUERY` and ping.
//!
//! No recorded production mix exists for this store, so the shares are
//! arbitrary; each follows from a stated rule about the samples the
//! metrics need (see `EST_SHARE`, `PING_SHARE` and `HOT_SHARE`).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_sampling::product::SpatialData;
use sas_store::client::Client;
use sas_store::server::{Server, ServerConfig};
use sas_store::wire::Request;
use sas_store::{Snapshot, StorageFormat, Store, StoreConfig};
use sas_summaries::{encode_summary, Query, StoredSample, Summary, SummaryKind};

use crate::daemon::{drive, latency_metrics, replay, replay_metrics, scrape, Class, Schedule};
use crate::stats::{median, percentile, Report};
use crate::trace::Tracer;
use crate::{mix, Args};

/// 2-D windows in the dataset (one per minute).
const WINDOWS: u64 = 36;
/// Rows per window and the structure-aware sample size kept per window.
const ROWS: usize = 4000;
const BUDGET: usize = 500;
/// Side of the square key domain.
const SIDE: u64 = 1 << 12;
/// Query-cache capacity (the store default).
const CACHE: usize = 1024;
/// Hot boxes, and the share of estimates and queries drawn from them.
/// Rule: the largest share, in steps of 0.05, whose slice hit share stays
/// at least 4 binomial s.d. below one half, so every slice's median lies
/// among cache misses. A slice holds about 640 requests of each class
/// (14,000 open-loop requests at `--seconds 20`, 10 slices, 46%), so the
/// s.d. is about 0.02: 0.4 keeps 5 s.d., 0.45 only 2.5. The p50s thus
/// measure the per-window answer path, and the cache carries as much as
/// it can without the p50s measuring cache hits instead.
const HOT: usize = 32;
const HOT_SHARE: f64 = 0.4;
/// Ping share. Rule: the smallest share, in whole percent, whose expected
/// count in the open loop at `--seconds 20` (14,000 requests) stays
/// at least 1000 three binomial s.d. below its mean, so the ping p99
/// (`server.ping_p99_ms`) has ten samples beyond it: 8% (mean 1120,
/// s.d. 32).
const PING_SHARE: f64 = 0.08;
/// Estimate share. Rule: estimates and legacy queries are the two gated
/// latency classes, so they split the rest equally and both tails rest
/// on the same sample count: 46% each.
const EST_SHARE: f64 = (1.0 - PING_SHARE) / 2.0;
/// Offered open-loop rate, requests/s; below the knee on two cores.
const RATE: f64 = 1000.0;
/// Share of the run spent in the open loop; the closed loop sends a fixed
/// request count.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_S: f64 = 1200.0;
/// The catalog's data is fixed, like a real data set; `--seed` drives the
/// request stream and the accuracy battery.
const DATA_SEED: u64 = 0x2D_DA7A;
const SETUPS: usize = 3;
const DATASET: &str = "net";
/// Schedule reads whose daemon answers are compared with in-process ones,
/// and the size of the accuracy battery checked against exact truth.
const COMPARED: usize = 300;
const ACCURACY: usize = 1500;

struct Inputs {
    /// Raw rows `(x, y, w)` of every window, for exact truth.
    rows: Vec<(u64, u64, f64)>,
    /// The catalog as ingested, before conversion: the windows' summaries
    /// decoded on the heap rather than mapped segments, outside any query
    /// cache. The daemon's answers are checked against it.
    reference: Arc<Snapshot>,
    /// Encoded batch frames (the user bytes).
    user_bytes: u64,
}

fn window_rows(rng: &mut StdRng) -> Vec<(u64, u64, f64)> {
    // Clustered points with heavy-tailed weights: a few dense regions per
    // window, like the paper's network data.
    let centers: Vec<(u64, u64, u64)> = (0..6)
        .map(|_| {
            (
                rng.gen_range(0..SIDE),
                rng.gen_range(0..SIDE),
                rng.gen_range(16..512u64),
            )
        })
        .collect();
    (0..ROWS)
        .map(|_| {
            let (cx, cy, r) = centers[rng.gen_range(0..centers.len())];
            let x = (cx + rng.gen_range(0..r)).min(SIDE - 1);
            let y = (cy + rng.gen_range(0..r)).min(SIDE - 1);
            let w = 1.0 / (1.0 - rng.gen::<f64>() * 0.999).powf(0.9);
            (x, y, w)
        })
        .collect()
}

/// Builds the store under `dir`: ingest, convert to v2 segments, reopen.
fn setup(dir: &Path) -> (Arc<Store>, Inputs) {
    let _ = std::fs::remove_dir_all(dir);
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let config = || StoreConfig {
        budget: None,
        cache_capacity: CACHE,
    };
    let store = Store::open(dir, config()).expect("open store");
    let mut rows_all = Vec::with_capacity(WINDOWS as usize * ROWS);
    let mut user_bytes = 0u64;
    for w in 0..WINDOWS {
        let rows = window_rows(&mut rng);
        let data = SpatialData::from_xyw(&rows);
        let sample = sas_sampling::two_pass::sample_product(&data, BUDGET, 5, &mut rng);
        let points = sample
            .iter()
            .map(|e| (e.key, data.points[e.key as usize].clone()))
            .collect();
        let summary = StoredSample::two_dim(sample, points).expect("located sample");
        user_bytes += encode_summary(&summary).len() as u64;
        store
            .ingest(DATASET, 60 * w + 1, Box::new(summary))
            .expect("set-up ingest");
        rows_all.extend(rows);
    }
    let reference = store.snapshot();
    store.convert(StorageFormat::SegmentV2).expect("convert");
    drop(store);
    let store = Store::open(dir, config()).expect("reopen store");
    (
        Arc::new(store),
        Inputs {
            rows: rows_all,
            reference,
            user_bytes,
        },
    )
}

fn random_box(rng: &mut StdRng) -> Vec<(u64, u64)> {
    let side = |rng: &mut StdRng| {
        let w = rng.gen_range(64..SIDE / 2);
        let lo = rng.gen_range(0..SIDE - w);
        (lo, lo + w - 1)
    };
    vec![side(rng), side(rng)]
}

/// The request list: `EST_SHARE` estimates, as many legacy queries,
/// `PING_SHARE` pings; a `HOT_SHARE` of estimates and queries repeat one
/// of `HOT` boxes.
pub fn schedule(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5EAD));
    let hot: Vec<Vec<(u64, u64)>> = (0..HOT).map(|_| random_box(&mut rng)).collect();
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let range = if rng.gen_bool(HOT_SHARE) {
                hot[rng.gen_range(0..HOT)].clone()
            } else {
                random_box(&mut rng)
            };
            if u < EST_SHARE {
                Request::Estimate {
                    dataset: DATASET.into(),
                    kind: SummaryKind::Sample,
                    query: Query::BoxRange(range),
                    confidence: 0.95,
                    time: None,
                }
            } else if u < 2.0 * EST_SHARE {
                Request::Query {
                    dataset: DATASET.into(),
                    kind: SummaryKind::Sample,
                    range,
                    time: None,
                }
            } else {
                Request::Ping
            }
        })
        .collect()
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

pub fn run(args: &Args) -> Report {
    let _spinners = crate::spin::Spinners::start();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        let dir = args.work.join(format!("setup{i}"));
        let t0 = Instant::now();
        let s = setup(&dir);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((s, dir));
    }
    let ((store, inputs), dir) = built.expect("at least one set-up");
    let open_n = (RATE * args.seconds * OPEN_SHARE) as usize;
    // A traced run sends a third list, the traced closed loop, after the
    // two an untraced run sends; the shared prefix is identical.
    let closed_n = (CLOSED_PER_S * args.seconds) as usize;
    let total = open_n + closed_n * if args.trace { 2 } else { 1 };
    let all = schedule(args.seed, total);
    let open = Schedule::new(all[..open_n].to_vec());
    let closed = Schedule::new(all[open_n..open_n + closed_n].to_vec());
    let closed_trace = Schedule::new(all[open_n + closed_n..].to_vec());
    report.note(format!(
        "daemon-read: {WINDOWS} windows x {BUDGET} items (mapped v2 segments), cache capacity {CACHE}, hot set {HOT} boxes at share {HOT_SHARE}; open loop {open_n} requests at {RATE} req/s, closed loop {closed_n} requests; stream fingerprint {:016x}",
        open.fingerprint() ^ closed.fingerprint().rotate_left(1)
    ));

    let server = Server::start_with(
        store.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.local_addr();
    let grace = Duration::from_secs(20);
    let mut tracer = args.trace.then(Tracer::new);
    let open_phase = drive(addr, &open, Some(RATE), grace, tracer.as_mut());
    let closed_plain = drive(addr, &closed, None, grace, None);
    let closed_traced = args
        .trace
        .then(|| drive(addr, &closed_trace, None, grace, tracer.as_mut()));
    open_phase.check("open loop", &mut report);
    closed_plain.check("closed loop", &mut report);
    open_phase.describe("open", &mut report);
    report.attempted = (open_phase.outcomes.len() + closed_plain.outcomes.len()) as u64;
    report.failed = (open_phase.failed() + closed_plain.failed()) as u64;

    // The registry is read before the checks below add their own queries.
    let registry = store.obs().snapshot();
    // Daemon answers (wire, query cache, mapped segments) must equal, bit
    // for bit, the answers of the catalog as ingested, computed directly
    // on its heap summaries with no cache in between.
    let reference = &inputs.reference;
    let mut client = Client::connect(addr).expect("checker connection");
    let reads = open
        .requests
        .iter()
        .chain(&closed.requests)
        .filter(|r| !matches!(r, Request::Ping));
    for req in reads.take(COMPARED) {
        match req {
            Request::Estimate {
                dataset,
                kind,
                query,
                confidence,
                time,
            } => {
                let remote = client.estimate(dataset, *kind, query, *confidence, *time);
                let local = reference.estimate(dataset, *kind, query, *confidence, *time);
                match (remote, local) {
                    (Ok(r), Ok((b, _))) => {
                        let a = r.estimate;
                        report.check(
                            same_bits(a.value, b.value)
                                && same_bits(a.lower, b.lower)
                                && same_bits(a.upper, b.upper),
                            || format!("daemon estimate {a:?} differs from in-process {b:?}"),
                        );
                    }
                    (r, l) => {
                        report.check(false, || format!("check estimate failed: {r:?} / {l:?}"))
                    }
                }
            }
            Request::Query {
                dataset,
                kind,
                range,
                time,
            } => {
                let remote = client.query(dataset, *kind, range, *time);
                let (local, _) = reference.query(dataset, *kind, range, *time);
                match remote {
                    Ok(r) => report.check(same_bits(r.value, local), || {
                        format!("daemon query {} differs from in-process {local}", r.value)
                    }),
                    Err(e) => report.check(false, || format!("check query failed: {e}")),
                }
            }
            _ => {}
        }
    }
    drop(client);
    // Accuracy: a seeded battery of boxes, answered in-process on the
    // same snapshot, against exact sums over every raw row.
    let mut rng = StdRng::seed_from_u64(mix(args.seed ^ 0xACC));
    let (mut abs_err, mut truth_sum) = (0.0, 0.0);
    for _ in 0..ACCURACY {
        let range = random_box(&mut rng);
        let e = store
            .estimate(
                DATASET,
                SummaryKind::Sample,
                &Query::BoxRange(range.clone()),
                0.95,
                None,
            )
            .expect("accuracy estimate");
        let truth: f64 = inputs
            .rows
            .iter()
            .filter(|(x, y, _)| {
                (range[0].0..=range[0].1).contains(x) && (range[1].0..=range[1].1).contains(y)
            })
            .map(|r| r.2)
            .sum();
        abs_err += (e.estimate.value - truth).abs();
        truth_sum += truth;
    }
    let stats = store.stats();
    server.shutdown();
    server.wait();

    if args.trace {
        let mut t = tracer.expect("traced");
        report.layer_defaults();
        let est = open_phase.sorted(Class::Estimate);
        let qry = open_phase.sorted(Class::Query);
        let ping = open_phase.sorted(Class::Ping);
        scrape(
            &mut report,
            &registry,
            &[
                (Class::Estimate, percentile(&est, 50.0)),
                (Class::Query, percentile(&qry, 50.0)),
                (Class::Ping, percentile(&ping, 50.0)),
            ],
        );
        let traced = closed_traced.expect("traced closed loop");
        report.set(
            "trace.overhead_ratio",
            closed_plain.ops_per_cpu_s() / traced.ops_per_cpu_s() - 1.0,
        );
        report.set(
            "server.ping_p99_ms",
            percentile(&ping, crate::stats::supported_tail(ping.len())),
        );
        report.set("gen.late_p99_ms", open_phase.late_p99_ms());
        let failed_frac = report.failed as f64 / report.attempted as f64;
        report.set("gen.failed_frac", failed_frac);
        let stat = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        report.set("store.cache_entries", stat("cache_entries") as f64);
        report.set("store.windows_end", stat("windows") as f64);
        report.set("store.rollups", stat("rollups") as f64);
        report.set(
            "summaries.items_per_window",
            stat("items") as f64 / stat("windows").max(1) as f64,
        );
        drop(store);
        layer_store_files(&mut report, &dir, inputs.user_bytes, &mut t);
        // Replay a prefix of the open-loop list against a fresh store built
        // by the same set-up.
        let fresh = args.work.join("replay");
        let (fresh_store, _) = setup(&fresh);
        let r = replay(&fresh_store, &open.requests[..open.len().min(6000)], &mut t);
        replay_metrics(&mut report, &r, &t);
        crate::finish_trace(args, "", &t, &mut report);
        // The write side, on a catalog of its own (see `write`).
        let (write, write_spans) = crate::write::write_phase(args);
        keep_write_side(&mut report, write);
        crate::finish_trace(args, "-write", &write_spans, &mut report);
        return report;
    }
    drop(store);
    let t0 = Instant::now();
    let reopened = Store::open(&dir, StoreConfig::default()).expect("reopen");
    let reopen_s = t0.elapsed().as_secs_f64();
    drop(reopened);
    report.note(format!("reopen of the run's store: {reopen_s:.4} s"));

    report.metric(
        "setup_s",
        median(&setups),
        "s",
        Some(SETUPS),
        "median of: generate rows, structure-aware samples, ingest, convert to v2, reopen",
    );
    report.metric("ops_per_cpu_s", closed_plain.ops_per_cpu_s(), "1/s", Some(closed_plain.outcomes.len()), "closed loop, 2 connections x 1 in flight, workload mix: requests per CPU second of the process");
    report.note(format!(
        "closed loop {:.0} requests per wall second",
        closed_plain.outcomes.len() as f64 / closed_plain.elapsed_s
    ));
    latency_metrics(
        &mut report,
        "primary",
        &open_phase,
        Class::Estimate,
        90.0,
        "REQ_ESTIMATE",
    );
    latency_metrics(
        &mut report,
        "secondary",
        &open_phase,
        Class::Query,
        90.0,
        "legacy REQ_QUERY",
    );
    report.metric(
        "range_rel_err",
        abs_err / truth_sum,
        "ratio",
        Some(ACCURACY),
        "sum|err|/sum truth of box estimates vs exact sums over all raw rows",
    );
    report.metric(
        "peak_rss_mb",
        crate::stats::peak_rss_mb(),
        "MB",
        None,
        "VmHWM of the workload process",
    );
    report.note(format!(
        "generator late p99 {:.4} ms",
        open_phase.late_p99_ms()
    ));
    report
}

/// Per-layer metrics the write phase measures and this workload's read
/// phase leaves idle, kept under their own names.
const WRITE_SIDE: [&str; 18] = [
    "store.ingest_us_p50",
    "store.ingest_us_p99",
    "store.manifest_bytes_per_ingest",
    "store.bytes_written_per_user_byte",
    "store.compaction_ms_p50",
    "store.compaction_ms_max",
    "store.rollups",
    "summaries.merge_us_p50",
    "codec.encode_mb_s",
    "codec.decode_mb_s",
    "server.ingest.read_p50_us",
    "server.ingest.parse_p50_us",
    "server.ingest.queue_p50_us",
    "server.ingest.work_p50_us",
    "server.ingest.queued_p50_us",
    "server.ingest.flush_p50_us",
    "server.ingest.queue_p99_us",
    "server.ingest.work_p99_us",
];

/// Write-phase metrics whose names the read phase also reports, kept
/// under a `write_` name: the catalog-size figures.
const WRITE_RENAMED: [(&str, &str); 4] = [
    ("store.matching_us_p50", "store.write_matching_us_p50"),
    ("store.estimate_us_p50", "store.write_estimate_us_p50"),
    ("store.cache_hit_ratio", "store.write_cache_hit_ratio"),
    ("store.windows_end", "store.write_windows_end"),
];

/// Moves the write phase's figures, checks and notes into this report.
fn keep_write_side(report: &mut Report, write: Report) {
    let value = |name: &str| {
        write
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    for name in WRITE_SIDE {
        report.set(name, value(name));
    }
    for (from, to) in WRITE_RENAMED {
        report.set(to, value(from));
    }
    report.set(
        "gen.uncovered.ingest_p50_ms",
        value("gen.uncovered.ingest_p50_ms"),
    );
    report.attempted += write.attempted;
    report.failed += write.failed;
    report.failures.extend(
        write
            .failures
            .into_iter()
            .map(|f| format!("write phase: {f}")),
    );
    report
        .notes
        .extend(write.notes.into_iter().map(|n| format!("write phase: {n}")));
}

/// Per-layer numbers read from the store directory after the run: on-disk
/// bytes per user byte, a timed reopen (and the recovery counters it
/// records), and `SegmentSummary::open` over each segment file.
pub fn layer_store_files(report: &mut Report, dir: &Path, user_bytes: u64, t: &mut Tracer) {
    let mut disk = 0u64;
    let mut segments = Vec::new();
    for entry in walk(dir) {
        let bytes = std::fs::read(&entry).unwrap_or_default();
        disk += bytes.len() as u64;
        if sas_codec::segment::is_segment(&bytes) {
            segments.push(bytes);
        }
    }
    report.set(
        "store.disk_bytes_per_user_byte",
        disk as f64 / user_bytes.max(1) as f64,
    );
    let start = Instant::now();
    let store = t.span("store.open", 0, None, || {
        Store::open(dir, StoreConfig::default())
    });
    let reopen_s = start.elapsed().as_secs_f64();
    let store = store.expect("reopen");
    let m = store.obs().snapshot();
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    report.set("store.reopen_s", reopen_s);
    report.set(
        "store.recovery_ms",
        counter("sas_store_recovery_ns") as f64 / 1e6,
    );
    report.set(
        "store.recovered_mapped_windows",
        counter("sas_store_recovered_windows_mapped") as f64,
    );
    drop(store);
    for (i, bytes) in segments.into_iter().enumerate() {
        let shared: sas_summaries::view::SharedBytes = Arc::new(bytes);
        let seg = t.span("codec.segment_open", i as u64, None, || {
            sas_summaries::SegmentSummary::open(shared)
        });
        std::hint::black_box(seg.expect("segment opens").item_count());
    }
    let d = t.durations("codec.segment_open");
    if !d.is_empty() {
        report.set("codec.segment_open_us", percentile(&d, 50.0) / 1e3);
    }
}

pub fn walk(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out
}
