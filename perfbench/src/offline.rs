//! `paper-offline`: the paper's own pipeline with no store and no daemon.
//!
//! Network data at paper scale (`NetworkConfig` defaults: ~170k distinct
//! keys on 16-bit axes) is summarised over and over by seeded
//! structure-aware builds (`two_pass::sample_product`, guide factor 5) and
//! by oblivious VarOpt, at three sizes. Each sample is wrapped as a 2-D
//! `StoredSample` and answers a fixed battery of uniform-area multi-range
//! queries through `Summary::answer_batch`, checked against `ExactEngine`.
//! Nothing here calls `sas-store`.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_core::estimate::Sample;
use sas_core::varopt::VarOptSampler;
use sas_core::KeyId;
use sas_data::{uniform_area_queries, NetworkConfig};
use sas_sampling::product::SpatialData;
use sas_structures::product::Point;
use sas_summaries::exact::ExactEngine;
use sas_summaries::{decode_summary, encode_summary, Estimate, Query, StoredSample, Summary};

use crate::daemon::SLICES;
use crate::stats::{median, quiet, report_pair, thread_cpu_s, Chunked, Report};
use crate::trace::Tracer;
use crate::{mix, Args};

/// The size whose build latency, query latency and error are reported.
const REPORTED_SIZE: usize = 1000;
/// Further sizes at which structure-aware must beat oblivious VarOpt.
const SWEEP: [usize; 2] = [300, 3000];
const SWEEP_ROUNDS: usize = 4;
/// Rounds whose errors make up `range_rel_err` and the aware-vs-oblivious
/// check: a fixed count, so the figure depends on the seed only, not on
/// how many rounds the host fits in the run.
const ACCURACY_ROUNDS: usize = 40;
/// Queries in the battery and rectangles per query (the paper's Fig. 2a).
const QUERIES: usize = 50;
const RANGES: usize = 25;
/// `answer_batch` repetitions per summary, for enough latency samples.
const ANSWER_REPS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// The network data set is fixed, like the paper's: `--seed` drives the
/// query battery and every build, not the data.
const DATA_SEED: u64 = 0xB007;

struct Inputs {
    data: SpatialData,
    queries: Vec<Query>,
    truth: Vec<f64>,
}

fn setup(seed: u64, tracer: &mut Option<Tracer>) -> Inputs {
    let mut data_rng = StdRng::seed_from_u64(DATA_SEED);
    let gen = |rng: &mut StdRng| NetworkConfig::default().generate(rng);
    let data = match tracer {
        Some(t) => t.span("data.generate", 0, None, || gen(&mut data_rng)),
        None => gen(&mut data_rng),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let side = 1u64 << NetworkConfig::default().bits;
    let battery = uniform_area_queries(&mut rng, side, side, QUERIES, RANGES, 0.3);
    let exact = ExactEngine::new(&data);
    let truth_of = || battery.iter().map(|q| exact.multi_sum(q)).collect();
    let truth: Vec<f64> = match tracer {
        Some(t) => t.span("exact.multi_sum", 0, None, truth_of),
        None => truth_of(),
    };
    let queries = battery
        .iter()
        .map(|q| {
            Query::MultiRange(
                q.boxes
                    .iter()
                    .map(|b| b.sides.iter().map(|iv| (iv.lo, iv.hi)).collect())
                    .collect(),
            )
        })
        .collect();
    Inputs {
        data,
        queries,
        truth,
    }
}

/// Wraps a sample as a 2-D stored sample; keys are row indices.
fn two_dim(sample: Sample, data: &SpatialData) -> StoredSample {
    let points: HashMap<KeyId, Point> = sample
        .iter()
        .map(|e| (e.key, data.points[e.key as usize].clone()))
        .collect();
    StoredSample::two_dim(sample, points).expect("every sampled key has a location")
}

fn same_bits(a: &Estimate, b: &Estimate) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.lower.to_bits() == b.lower.to_bits()
        && a.upper.to_bits() == b.upper.to_bits()
        && a.variance.to_bits() == b.variance.to_bits()
}

/// What the round loop measured.
#[derive(Default)]
struct Measured {
    /// Structure-aware build CPU ms at the reported size, in run order.
    build_ms: Vec<f64>,
    /// CPU ms per `answer_batch` call (one battery on one summary), in
    /// order.
    batch_ms: Vec<f64>,
    /// Per size: sum |err| of aware and of oblivious answers, and the
    /// truth mass, over the accuracy rounds.
    err: BTreeMap<usize, (f64, f64, f64)>,
    builds: usize,
}

/// Builds an aware and an oblivious sample of size `s`, answers the
/// battery with each and checks the answers. Returns the aware build time
/// and the `answer_batch` times, in CPU ms of this (the only) thread: on a
/// shared virtual machine wall time also counts the hypervisor's steal.
#[allow(clippy::too_many_arguments)]
fn round(
    inputs: &Inputs,
    s: usize,
    build: u64,
    seed: u64,
    count_error: bool,
    m: &mut Measured,
    report: &mut Report,
    tracer: &mut Option<Tracer>,
) -> (f64, Vec<f64>) {
    let data = &inputs.data;
    let mut rng = StdRng::seed_from_u64(mix(seed ^ mix(build)));
    let span = tracer
        .as_mut()
        .map(|t| t.begin("sampling.sample_product", build, None));
    let t0 = thread_cpu_s();
    let aware = sas_sampling::two_pass::sample_product(data, s, 5, &mut rng);
    let aware_ms = (thread_cpu_s() - t0) * 1e3;
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
    let obliv = match tracer {
        Some(t) => t.span("sampling.varopt", build, None, || {
            VarOptSampler::sample_slice(s, &data.keys, &mut rng)
        }),
        None => VarOptSampler::sample_slice(s, &data.keys, &mut rng),
    };
    m.builds += 2;
    let mut batch_ms = Vec::new();
    for (which, sample) in [(0usize, aware), (1, obliv)] {
        let summary = match tracer {
            Some(t) => t.span("summaries.two_dim", build, None, || two_dim(sample, data)),
            None => two_dim(sample, data),
        };
        let mut answers = Vec::new();
        for _ in 0..ANSWER_REPS {
            let span = tracer
                .as_mut()
                .map(|t| t.begin("summaries.answer_batch", build, None));
            let t0 = thread_cpu_s();
            answers = summary
                .answer_batch(black_box(&inputs.queries), 0.95)
                .expect("battery queries are well formed");
            batch_ms.push((thread_cpu_s() - t0) * 1e3);
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.end(id);
            }
        }
        let span = tracer
            .as_mut()
            .map(|t| t.begin("summaries.answer_loop", build, None));
        let looped: Vec<Estimate> = inputs
            .queries
            .iter()
            .map(|q| summary.answer(q, 0.95).expect("well-formed query"))
            .collect();
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        let identical = answers.iter().zip(&looped).all(|(a, b)| same_bits(a, b));
        report.check(identical, || {
            format!("build {build}: answer_batch differs from the per-query answer loop")
        });
        for e in &answers {
            report.check(e.lower <= e.value && e.value <= e.upper, || {
                format!(
                    "build {build}: estimate {} outside [{}, {}]",
                    e.value, e.lower, e.upper
                )
            });
        }
        if count_error {
            let entry = m.err.entry(s).or_default();
            for (e, truth) in answers.iter().zip(&inputs.truth) {
                let err = (e.value - truth).abs();
                if which == 0 {
                    entry.0 += err;
                    entry.2 += truth;
                } else {
                    entry.1 += err;
                }
            }
        }
    }
    (aware_ms, batch_ms)
}

/// Rounds at the reported size until `budget` has passed and the accuracy
/// rounds are done, then the fixed sweep over the other sizes.
fn rounds(
    inputs: &Inputs,
    seed: u64,
    budget: Duration,
    report: &mut Report,
    tracer: &mut Option<Tracer>,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || i < ACCURACY_ROUNDS {
        let (build, batch) = round(
            inputs,
            REPORTED_SIZE,
            i as u64,
            seed,
            i < ACCURACY_ROUNDS,
            &mut m,
            report,
            tracer,
        );
        m.build_ms.push(build);
        m.batch_ms.extend(batch);
        i += 1;
    }
    for (k, &s) in SWEEP.iter().enumerate() {
        for r in 0..SWEEP_ROUNDS {
            let build = ((k + 1) * 1_000_000 + r) as u64;
            round(inputs, s, build, seed, true, &mut m, report, tracer);
        }
    }
    m
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut none = None;
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = Some(setup(args.seed, &mut none));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let keys = inputs.data.len();
    report.note(format!(
        "paper-offline: {keys} keys (fixed network data), {QUERIES} queries x {RANGES} ranges, size {REPORTED_SIZE}; sweep {SWEEP:?}"
    ));

    if args.trace {
        return traced(args, &inputs, setups, report);
    }

    let m = rounds(
        &inputs,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        &mut report,
        &mut none,
    );
    report.attempted = m.builds as u64;
    accuracy_checks(&m, &mut report);
    let (aware_err, _, truth) = m.err[&REPORTED_SIZE];

    let positions = |v: &[f64]| -> Vec<(f64, f64)> {
        v.iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 / v.len() as f64, x))
            .collect()
    };
    let batch = Chunked::new(&positions(&m.batch_ms), 1.0, SLICES);
    let build = Chunked::new(&positions(&m.build_ms), 1.0, BUILD_SLICES);
    // Queries per CPU second, per slice of calls; the upper quartile is
    // kept.
    let per_slice = m.batch_ms.len() / SLICES;
    let rates: Vec<f64> = m
        .batch_ms
        .chunks(per_slice.max(1))
        .map(|c| -((c.len() * QUERIES) as f64 / (c.iter().sum::<f64>() / 1e3)))
        .collect();

    report.metric(
        "setup_s",
        median(&setups),
        "s",
        Some(SETUPS),
        "median of: network data generation, query battery, exact truth",
    );
    report.metric("ops_per_cpu_s", -quiet(&rates), "1/s", Some(m.batch_ms.len() * QUERIES), format!("multi-range queries answered per CPU second by answer_batch at s={REPORTED_SIZE} (upper quartile of slices)"));
    // Fixed tails: the quieter half of the slices holds about 350 calls
    // and 90 builds (at least 200 and 50 on a slow host).
    report_pair(
        &mut report,
        "primary",
        &batch,
        95.0,
        &format!("answer_batch of {QUERIES} queries on one s={REPORTED_SIZE} summary, CPU time"),
    );
    report_pair(
        &mut report,
        "secondary",
        &build,
        75.0,
        &format!(
            "structure-aware build (sample_product) at s={REPORTED_SIZE}, {keys} keys, CPU time"
        ),
    );
    report.metric("range_rel_err", aware_err / truth, "ratio", Some(ACCURACY_ROUNDS * 2 * QUERIES), format!("sum|err|/sum truth, structure-aware at s={REPORTED_SIZE}, first {ACCURACY_ROUNDS} rounds"));
    report.metric(
        "peak_rss_mb",
        crate::stats::peak_rss_mb(),
        "MB",
        None,
        "VmHWM of the workload process",
    );
    report.note(format!(
        "build keys/s at s={REPORTED_SIZE}: {:.0}",
        keys as f64 / (build.quiet_of(50.0) / 1e3)
    ));
    report
}

/// Slices of the (fewer) build samples.
const BUILD_SLICES: usize = 5;

fn accuracy_checks(m: &Measured, report: &mut Report) {
    for (s, &(aware, obliv, truth)) in &m.err {
        report.note(format!(
            "s={s}: aware sum|err|/truth {:.5}, oblivious {:.5}",
            aware / truth,
            obliv / truth
        ));
        report.check(aware <= obliv, || {
            format!("s={s}: structure-aware error {aware} exceeds oblivious VarOpt's {obliv}")
        });
    }
}

/// The traced run: half the budget untraced, half traced (the difference
/// is the tracing overhead), then codec round trips of a built summary.
fn traced(args: &Args, inputs: &Inputs, setups: Vec<f64>, mut report: Report) -> Report {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut none = None;
    let plain = rounds(inputs, args.seed, half, &mut report, &mut none);
    let mut tracer = Some(Tracer::new());
    // The traced set-up contributes the data-generation and exact spans.
    let t0 = Instant::now();
    let _ = setup(args.seed, &mut tracer);
    let traced_setup = t0.elapsed().as_secs_f64();
    let spanned = rounds(inputs, args.seed, half, &mut report, &mut tracer);
    let mut t = tracer.expect("traced");
    report.attempted = (plain.builds + spanned.builds) as u64;
    accuracy_checks(&spanned, &mut report);

    // Codec round trips of the reported size (sas-codec, not sas-store).
    let mut rng = StdRng::seed_from_u64(mix(args.seed));
    let sample = sas_sampling::two_pass::sample_product(&inputs.data, REPORTED_SIZE, 5, &mut rng);
    let summary = two_dim(sample, &inputs.data);
    let mut bytes_total = 0usize;
    for i in 0..200 {
        let bytes = t.span("codec.encode_summary", i, None, || encode_summary(&summary));
        bytes_total += bytes.len();
        let back = t.span("codec.decode_summary", i, None, || {
            decode_summary(&bytes).expect("round trip")
        });
        black_box(back);
    }

    let keys = inputs.data.len() as f64;
    let (aware_ns, aware_n) = t.total("sampling.sample_product");
    let (batch_ns, batch_n) = t.total("summaries.answer_batch");
    let (loop_ns, loop_n) = t.total("summaries.answer_loop");
    let (enc_ns, _) = t.total("codec.encode_summary");
    let (dec_ns, _) = t.total("codec.decode_summary");
    let q = inputs.queries.len() as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (aware_err, obliv_err, truth) = spanned.err[&REPORTED_SIZE];

    report.layer_defaults();
    report.set(
        "sampling.build_ns_per_key",
        aware_ns / (aware_n as f64 * keys),
    );
    report.set(
        "summaries.answer_batch_ns_per_query",
        batch_ns / (batch_n as f64 * q),
    );
    report.set(
        "summaries.answer_ns_per_query",
        loop_ns / (loop_n as f64 * q),
    );
    report.set("summaries.items_per_window", summary.len() as f64);
    report.set("codec.encode_mb_s", bytes_total as f64 / enc_ns * 1e3);
    report.set("codec.decode_mb_s", bytes_total as f64 / dec_ns * 1e3);
    report.set("offline.obliv_rel_err", obliv_err / truth);
    report.set(
        "trace.overhead_ratio",
        mean(&spanned.batch_ms) / mean(&plain.batch_ms) - 1.0,
    );
    report.note(format!(
        "structure-aware sum|err|/truth {:.5} at s={REPORTED_SIZE}",
        aware_err / truth
    ));
    report.note(format!(
        "set-up untraced median {:.3} s, traced {:.3} s",
        median(&setups),
        traced_setup
    ));
    report
        .note("store.*, server.*, wire.* and gen.* are 0: this workload makes no sas-store calls");
    crate::finish_trace(args, "", &t, &mut report);
    report
}
