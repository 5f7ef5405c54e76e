//! Seeded benchmark of the structure-aware sampling system.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-offline|daemon-read> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every invocation runs one workload in its own process, prints each
//! metric by name with its unit and sample count, checks the outputs, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reruns the same workload with spans around calls into each layer and
//! reports the per-layer metrics instead. See `perfbench/README.md`.

mod daemon;
mod offline;
mod read;
mod spin;
mod stats;
mod trace;
mod write;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Report;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_cpu_s",
    "primary_p50_ms",
    "primary_tail_ms",
    "secondary_p50_ms",
    "secondary_tail_ms",
    "range_rel_err",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// leaves the layer idle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.build_ns_per_key", "ns"),
    ("summaries.answer_batch_ns_per_query", "ns"),
    ("summaries.answer_ns_per_query", "ns"),
    ("summaries.merge_us_p50", "us"),
    ("summaries.items_per_window", "count"),
    ("codec.encode_mb_s", "MB/s"),
    ("codec.decode_mb_s", "MB/s"),
    ("codec.segment_open_us", "us"),
    ("store.ingest_us_p50", "us"),
    ("store.ingest_us_p99", "us"),
    ("store.manifest_bytes_per_ingest", "bytes"),
    ("store.bytes_written_per_user_byte", "ratio"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("store.compaction_ms_p50", "ms"),
    ("store.compaction_ms_max", "ms"),
    ("store.rollups", "count"),
    ("store.windows_end", "count"),
    ("store.estimate_us_p50", "us"),
    ("store.matching_us_p50", "us"),
    ("store.window_answer_us_p50", "us"),
    ("store.windows_per_estimate", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.cache_entries", "count"),
    ("store.recovery_ms", "ms"),
    ("store.recovered_mapped_windows", "count"),
    ("store.reopen_s", "s"),
    ("store.write_matching_us_p50", "us"),
    ("store.write_estimate_us_p50", "us"),
    ("store.write_cache_hit_ratio", "ratio"),
    ("store.write_windows_end", "count"),
    ("server.ingest.read_p50_us", "us"),
    ("server.ingest.parse_p50_us", "us"),
    ("server.ingest.queue_p50_us", "us"),
    ("server.ingest.work_p50_us", "us"),
    ("server.ingest.queued_p50_us", "us"),
    ("server.ingest.flush_p50_us", "us"),
    ("server.estimate.read_p50_us", "us"),
    ("server.estimate.parse_p50_us", "us"),
    ("server.estimate.queue_p50_us", "us"),
    ("server.estimate.work_p50_us", "us"),
    ("server.estimate.queued_p50_us", "us"),
    ("server.estimate.flush_p50_us", "us"),
    ("server.query.read_p50_us", "us"),
    ("server.query.parse_p50_us", "us"),
    ("server.query.queue_p50_us", "us"),
    ("server.query.work_p50_us", "us"),
    ("server.query.queued_p50_us", "us"),
    ("server.query.flush_p50_us", "us"),
    ("server.ping.read_p50_us", "us"),
    ("server.ping.parse_p50_us", "us"),
    ("server.ping.queue_p50_us", "us"),
    ("server.ping.work_p50_us", "us"),
    ("server.ping.queued_p50_us", "us"),
    ("server.ping.flush_p50_us", "us"),
    ("server.ingest.queue_p99_us", "us"),
    ("server.ingest.work_p99_us", "us"),
    ("server.estimate.queue_p99_us", "us"),
    ("server.estimate.work_p99_us", "us"),
    ("server.ping_p99_ms", "ms"),
    ("server.wakeups_per_request", "ratio"),
    ("server.spurious_wakeup_ratio", "ratio"),
    ("server.busy_shed", "count"),
    ("server.backpressure_stalls", "count"),
    ("wire.encode_ns_p50", "ns"),
    ("wire.decode_ns_p50", "ns"),
    ("gen.late_p99_ms", "ms"),
    ("gen.failed_frac", "ratio"),
    ("gen.uncovered.ingest_p50_ms", "ms"),
    ("gen.uncovered.estimate_p50_ms", "ms"),
    ("gen.uncovered.query_p50_ms", "ms"),
    ("gen.uncovered.ping_p50_ms", "ms"),
    ("offline.obliv_rel_err", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, inside the current directory.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        work,
    })
}

/// splitmix64: derives independent seeds and decorrelates indices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes the spans of a traced run (`label` tells the phases of one run
/// apart) and prints the per-name summary.
pub fn finish_trace(args: &Args, label: &str, tracer: &trace::Tracer, report: &mut Report) {
    let path = PathBuf::from(".bench_work")
        .join("spans")
        .join(format!("{}{label}-seed{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans: {e}")),
    }
    for (name, (count, total, own)) in tracer.summary() {
        report.note(format!(
            "span {name:<32} n={count:<7} total_ms={:<10.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

extern "C" {
    fn sync();
}

/// Flushes every file system's dirty data (and, on one mounted with
/// `discard`, the block discards of deleted files), outside any timed
/// section, so that one run's writes are not charged to the next.
fn flush_file_systems() {
    // SAFETY: `sync(2)` takes no arguments, cannot fail and touches no
    // memory of this process.
    unsafe { sync() };
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spin") {
        spin::child_main();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    flush_file_systems();
    let report = match args.workload.as_str() {
        "paper-offline" => offline::run(&args),
        "daemon-read" => read::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    flush_file_systems();
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    if report.print(&names) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
