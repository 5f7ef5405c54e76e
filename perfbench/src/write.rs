//! The write phase of a traced `daemon-read` run: the writer path under
//! ingests on a deterministic timestamp schedule beside one-window,
//! time-filtered estimates, over a catalog of ~900 1-D windows across 20
//! datasets.
//!
//! Set-up ingests, through `Store::ingest`, every dataset's history (one
//! batch in each of a few hours) and an open hour partly filled with
//! minute windows; one lifecycle tick then seals the history into hour
//! windows. Half the ingests merge into a dataset's open minute and half
//! open the next one; as open hours fill, their minutes seal into an hour,
//! so the daemon's `lifecycle_every` compaction does real work. A dataset never merges into the last minute
//! of an hour (that minute seals the hour), so no ingest is ever scheduled
//! behind a sealed hour and none may be refused as stale. Every ingest
//! fsyncs its frame and rewrites and fsyncs the full manifest.
//!
//! This phase feeds only per-layer metrics. As a gated workload it could
//! not be made steady on a shared virtual disk: ingest latency from due
//! time, and even ingest CPU time (the kernel's file-system work), drifted
//! by a quarter to a half between runs minutes apart.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_core::WeightedKey;
use sas_store::client::Client;
use sas_store::server::{Server, ServerConfig};
use sas_store::wire::Request;
use sas_store::{Store, StoreConfig};
use sas_summaries::{decode_summary, encode_summary, Query, StoredSample, SummaryKind};

use crate::daemon::{drive, replay, replay_metrics, scrape, Class, Schedule};
use crate::read::{layer_store_files, walk};
use crate::stats::{percentile, Report};
use crate::trace::Tracer;
use crate::{mix, Args};

/// Datasets in the catalog.
const DATASETS: usize = 20;
/// Rows per ingested batch, the sample each batch keeps, and the store's
/// merge budget.
const ROWS: usize = 160;
const BATCH_SAMPLE: usize = 80;
const BUDGET: usize = 160;
/// 1-D key domain.
const SPAN: u64 = 1 << 16;
/// Offered open-loop rate, requests/s; ingest is 45% of it.
const RATE: f64 = 100.0;
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_S: f64 = 200.0;
/// The set-up catalog is fixed, like a real store; `--seed` drives the
/// request stream (its batches' contents, offsets inside a minute and
/// queries).
const DATA_SEED: u64 = 0x1D_DA7A;
/// Lifecycle (retention, then compaction) cadence of the daemon.
const LIFECYCLE: Duration = Duration::from_millis(500);
/// Schedule estimates whose daemon answers are compared with in-process
/// ones.
const COMPARED: usize = 300;
const KIND: SummaryKind = SummaryKind::Sample;

fn dataset(d: usize) -> String {
    format!("ds{d:02}")
}

/// Sealed history hours and open-hour minutes of dataset `d` at set-up.
fn shape(d: usize) -> (u64, u64) {
    (4 + (d as u64 * 5) % 7, 20 + (d as u64 * 17) % 36)
}

/// One ingested batch.
#[derive(Clone)]
pub struct Batch {
    pub dataset: usize,
    pub ts: u64,
    pub frame: Vec<u8>,
}

fn make_batch(rng: &mut StdRng, dataset: usize, ts: u64) -> Batch {
    // Keys cluster around a per-batch centre; weights are heavy-tailed.
    let centre = rng.gen_range(0..SPAN);
    let mut rows: Vec<(u64, f64)> = (0..ROWS)
        .map(|_| {
            let off = rng.gen_range(0..SPAN / 4);
            let key = (centre + off) % SPAN;
            (key, 1.0 / (1.0 - rng.gen::<f64>() * 0.999).powf(0.9))
        })
        .collect();
    rows.sort_by_key(|r| r.0);
    rows.dedup_by_key(|r| r.0);
    let keys: Vec<WeightedKey> = rows.iter().map(|&(k, w)| WeightedKey::new(k, w)).collect();
    let sample = sas_sampling::order::sample(&keys, BATCH_SAMPLE, rng);
    let frame = encode_summary(&StoredSample::one_dim(sample));
    Batch { dataset, ts, frame }
}

/// Per-dataset ingest position: the open minute's start tick.
#[derive(Clone)]
pub struct Cursor {
    open_minute: Vec<u64>,
}

/// The set-up batches, in ingest order, and the cursor after them.
pub fn setup_batches() -> (Vec<Batch>, Vec<Batch>, Cursor) {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let mut history = Vec::new();
    let mut open = Vec::new();
    let mut cursor = Cursor {
        open_minute: Vec::new(),
    };
    for d in 0..DATASETS {
        let (hours, minutes) = shape(d);
        for h in 0..hours {
            let ts = h * 3600 + 60 * rng.gen_range(0..60) + 1;
            history.push(make_batch(&mut rng, d, ts));
        }
        for m in 0..minutes {
            open.push(make_batch(&mut rng, d, hours * 3600 + 60 * m + 1));
        }
        cursor.open_minute.push(hours * 3600 + 60 * (minutes - 1));
    }
    (history, open, cursor)
}

fn open_store(dir: &Path) -> Store {
    Store::open(
        dir,
        StoreConfig {
            budget: Some(BUDGET),
            cache_capacity: 1024,
        },
    )
    .expect("open store")
}

/// Builds the catalog through the store's own write path: every set-up
/// batch is ingested (each fsyncs its frame and the full manifest), then
/// one lifecycle tick rolls the sealed history minutes up into hours.
fn setup(dir: &Path) -> (Arc<Store>, Vec<Batch>, Cursor) {
    let _ = std::fs::remove_dir_all(dir);
    let (history, open, cursor) = setup_batches();
    let store = open_store(dir);
    for b in history.iter().chain(&open) {
        let batch = decode_summary(&b.frame).expect("own frame");
        store
            .ingest(&dataset(b.dataset), b.ts, batch)
            .expect("set-up ingest");
    }
    store.lifecycle_tick().expect("seal the history hours");
    let mut batches = history;
    batches.extend(open);
    (Arc::new(store), batches, cursor)
}

/// Copies the directory of an idle store (no write in flight), file by
/// file.
fn copy_store(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    for file in walk(from) {
        let dest = to.join(file.strip_prefix(from).expect("inside the store"));
        std::fs::create_dir_all(dest.parent().expect("files live in a directory"))
            .expect("create directory");
        std::fs::copy(&file, &dest).expect("copy store file");
    }
}

/// The request list after set-up. The timestamp schedule is the same for
/// every seed, so compaction runs at the same points of every run: in each
/// block of 20 requests, ingests and one-window estimates alternate (9
/// each), then 2 pings; ingests visit the datasets in turn, and each
/// dataset alternately opens its next minute and merges into the open one.
/// The seed drives the batches' contents, the offsets inside a minute and
/// the estimates. Returns the requests and the batches its ingests carry.
pub fn schedule(seed: u64, n: usize, cursor: &Cursor) -> (Vec<Request>, Vec<Batch>) {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x3717E));
    let mut open_minute = cursor.open_minute.clone();
    let mut ingests_of = [0u64; DATASETS];
    let mut batches = Vec::new();
    let requests = (0..n)
        .map(|i| {
            let k = i % 20;
            if k < 18 && k % 2 == 0 {
                let d = batches.len() % DATASETS;
                let minute_of_hour = (open_minute[d] % 3600) / 60;
                // Never merge into an hour's last minute: ingesting it
                // seals the hour, and a later merge there would be stale.
                if minute_of_hour == 59 || ingests_of[d].is_multiple_of(2) {
                    open_minute[d] += 60;
                }
                ingests_of[d] += 1;
                let ts = open_minute[d] + rng.gen_range(0..60);
                let b = make_batch(&mut rng, d, ts);
                let req = Request::Ingest {
                    dataset: dataset(d),
                    ts,
                    frame: b.frame.clone(),
                };
                batches.push(b);
                req
            } else if k < 18 {
                let d = rng.gen_range(0..DATASETS);
                let minute = rng.gen_range(0..=open_minute[d] / 60) * 60;
                let lo = rng.gen_range(0..SPAN);
                let hi = (lo + rng.gen_range(SPAN / 16..SPAN / 2)).min(SPAN - 1);
                Request::Estimate {
                    dataset: dataset(d),
                    kind: KIND,
                    query: Query::BoxRange(vec![(lo, hi)]),
                    confidence: 0.95,
                    time: Some((minute, minute + 59)),
                }
            } else {
                Request::Ping
            }
        })
        .collect();
    (requests, batches)
}

/// The write phase of a traced `daemon-read` run: the schedule served by
/// the in-process daemon (open loop, then closed loop), whose registry
/// gives the server stage and compaction figures, then an in-process
/// replay with spans. Returns a report holding
/// every per-layer metric (the caller keeps the write-side ones), its
/// checks and notes, and the spans.
pub fn write_phase(args: &Args) -> (Report, Tracer) {
    let mut report = Report::default();
    let dir = args.work.join("write");
    let (store, mut batches, cursor) = setup(&dir);
    // The replay below runs on a copy of the set-up catalog.
    let replay_dir = args.work.join("write-replay");
    copy_store(&dir, &replay_dir);
    let windows_start = store.snapshot().windows.len();
    let open_n = (RATE * args.seconds * OPEN_SHARE) as usize;
    let closed_n = (CLOSED_PER_S * args.seconds) as usize;
    let total = open_n + closed_n;
    let (all, run_batches) = schedule(args.seed, total, &cursor);
    batches.extend(run_batches);
    let open = Schedule::new(all[..open_n].to_vec());
    let closed = Schedule::new(all[open_n..].to_vec());
    report.note(format!(
        "daemon with {DATASETS} datasets, {windows_start} windows after set-up, budget {BUDGET}; open loop {open_n} requests at {RATE} req/s, closed loop {closed_n} requests; lifecycle every {LIFECYCLE:?}; stream fingerprint {:016x}",
        open.fingerprint() ^ closed.fingerprint().rotate_left(1)
    ));

    let server = Server::start_with(
        store.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            lifecycle_every: Some(LIFECYCLE),
            ..ServerConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.local_addr();
    let grace = Duration::from_secs(30);
    let mut t = Tracer::new();
    let open_phase = drive(addr, &open, Some(RATE), grace, Some(&mut t));
    let closed_plain = drive(addr, &closed, None, grace, None);
    open_phase.check("open loop", &mut report);
    closed_plain.check("closed loop", &mut report);
    open_phase.describe("open", &mut report);
    report.attempted = (open_phase.outcomes.len() + closed_plain.outcomes.len()) as u64;
    report.failed = (open_phase.failed() + closed_plain.failed()) as u64;

    // The registry is read before the checks below add their own queries.
    let registry = store.obs().snapshot();
    // Quiesce: one lifecycle tick seals whatever is sealable, after which
    // the daemon's own ticks change nothing and the snapshot stays put.
    // Daemon answers (wire, query cache) must equal, bit for bit, answers
    // computed directly on that snapshot with no cache in between.
    store.lifecycle_tick().expect("final lifecycle tick");
    let quiesced = store.snapshot();
    let mut client = Client::connect(addr).expect("checker connection");
    let estimates = open
        .requests
        .iter()
        .chain(&closed.requests)
        .filter(|r| matches!(r, Request::Estimate { .. }));
    for req in estimates.take(COMPARED) {
        let Request::Estimate {
            dataset,
            kind,
            query,
            confidence,
            time,
        } = req
        else {
            unreachable!("filtered to estimates")
        };
        let remote = client.estimate(dataset, *kind, query, *confidence, *time);
        let local = quiesced.estimate(dataset, *kind, query, *confidence, *time);
        match (remote, local) {
            (Ok(r), Ok((b, _))) => {
                let a = r.estimate;
                report.check(
                    a.value.to_bits() == b.value.to_bits()
                        && a.lower.to_bits() == b.lower.to_bits()
                        && a.upper.to_bits() == b.upper.to_bits(),
                    || format!("daemon estimate {a:?} differs from in-process {b:?}"),
                );
            }
            (r, l) => report.check(false, || format!("check estimate failed: {r:?} / {l:?}")),
        }
    }
    drop(client);
    report.check(store.snapshot().version == quiesced.version, || {
        "the catalog changed while answers were compared".into()
    });
    let stats = store.stats();
    let windows_end = store.snapshot().windows.len();
    let user_bytes: u64 = batches.iter().map(|b| b.frame.len() as u64).sum();
    server.shutdown();
    server.wait();
    drop(store);
    report.note(format!(
        "windows at end {windows_end} (start {windows_start})"
    ));

    {
        report.layer_defaults();
        let p50 = |c: Class| percentile(&open_phase.sorted(c), 50.0);
        scrape(
            &mut report,
            &registry,
            &[
                (Class::Ingest, p50(Class::Ingest)),
                (Class::Estimate, p50(Class::Estimate)),
                (Class::Ping, p50(Class::Ping)),
            ],
        );
        let ping = open_phase.sorted(Class::Ping);
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
        report.set("store.windows_end", windows_end as f64);
        report.set("store.rollups", stat("rollups") as f64);
        report.set(
            "summaries.items_per_window",
            stat("items") as f64 / stat("windows").max(1) as f64,
        );
        layer_store_files(&mut report, &dir, user_bytes, &mut t);
        let fresh_store = open_store(&replay_dir);
        let r = replay(&fresh_store, &open.requests, &mut t);
        replay_metrics(&mut report, &r, &t);
    }
    (report, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::Schedule;

    fn stream(seed: u64) -> (u64, Cursor) {
        let (_, _, cursor) = setup_batches();
        let (reqs, _) = schedule(seed, 400, &cursor);
        (Schedule::new(reqs).fingerprint(), cursor)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(7).0, stream(7).0);
        assert_ne!(stream(7).0, stream(8).0);
    }

    /// The same seed replayed in-process, with a lifecycle tick every 25
    /// requests, leaves the same catalog (`Store::list`) behind, and no
    /// ingest is refused.
    #[test]
    fn same_seed_same_final_catalog() {
        let base = std::path::PathBuf::from(".bench_work")
            .join(format!("test-list-{}", std::process::id()));
        let run = |name: &str| {
            let dir = base.join(name);
            let (store, _, cursor) = setup(&dir);
            let (reqs, _) = schedule(11, 300, &cursor);
            for (i, req) in reqs.into_iter().enumerate() {
                if let Request::Ingest { dataset, ts, frame } = req {
                    let batch = sas_summaries::decode_summary(&frame).unwrap();
                    store
                        .ingest(&dataset, ts, batch)
                        .expect("no ingest is refused");
                }
                if i % 25 == 24 {
                    store.lifecycle_tick().unwrap();
                }
            }
            store.list()
        };
        let a = run("a");
        let b = run("b");
        let _ = std::fs::remove_dir_all(&base);
        assert_eq!(a, b);
        assert!(a.len() > 500);
    }
}
