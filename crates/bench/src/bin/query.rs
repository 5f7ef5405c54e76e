//! Query-API throughput: batch vs. loop evaluation across the summary
//! kinds (including a 2-D stored sample — the SoA hot path), and estimate
//! throughput against a live store at 1/4/8 reader threads.
//!
//! Three tables:
//!
//! 1. **summary-level** — per kind, `M` mixed queries answered one
//!    `answer()` call at a time (loop) vs. one `answer_batch()` call
//!    (batch: a single pass over the sample items for the sample-based
//!    kinds), repeated `SAS_QUERY_REPS` times for stable rates.
//! 2. **kernels** — the two costs of a sample answer on their own:
//!    inverting the Eqn. 4 bound (`weight_confidence_interval`) over a
//!    fixed grid of 25,200 `(a_j, τ, δ)` inputs, and `answer_batch` of
//!    multi-range queries on the 2-D stored sample — 25-box queries in
//!    batches of `SAS_QUERY_BATCH`, and one 3-box query per call.
//! 3. **store-level** — `Store::estimate` ops/s at 1/4/8 threads, cold
//!    (distinct canonical queries, every call walks the windows) and hot
//!    (one repeated query, served by the LRU cache).
//!
//! Environment knobs: `SAS_QUERY_ITEMS` (rows per dataset, default 20000),
//! `SAS_QUERY_BATCH` (queries per batch, default 64), `SAS_QUERY_OPS`
//! (store queries per thread count, default 4000), `SAS_QUERY_REPS`
//! (summary-level repetitions, default 50; the bound grid runs
//! `SAS_QUERY_REPS / 10` times, at least once).
//!
//! `--json PATH` writes the machine-readable result consumed by
//! `scripts/bench_core.sh`; any phase failure (including a batch answer
//! drifting from the loop answer bitwise) exits non-zero.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{env_usize, parse_json_flag, print_table, timed, JsonObj};
use sas_core::varopt::VarOptSampler;
use sas_core::{KeyId, WeightedKey};
use sas_sampling::product::SpatialData;
use sas_store::{Store, StoreConfig};
use sas_structures::product::Point;
use sas_summaries::countsketch::SketchSummary;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{Query, StoredSample, Summary, SummaryKind};

/// splitmix64, decorrelating query indices from probed ranges.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A mixed battery over a 1-D key span or a 2-D `2^bits` square: boxes,
/// multi-ranges, points, hierarchy nodes, and totals.
fn battery(count: usize, dims: usize, span: u64, salt: u64) -> Vec<Query> {
    (0..count as u64)
        .map(|i| {
            let lo = mix(i ^ salt) % span;
            let hi = lo + (mix(i ^ salt ^ 1) % (span - lo)).max(1);
            match i % 5 {
                0 => {
                    if dims == 1 {
                        Query::BoxRange(vec![(lo, hi)])
                    } else {
                        Query::BoxRange(vec![(lo, hi), (mix(i) % span, span - 1)])
                    }
                }
                1 => {
                    let mid = lo + (hi - lo) / 2;
                    if mid + 1 < hi && lo < mid {
                        Query::MultiRange(vec![vec![(lo, mid)], vec![(mid + 1, hi)]])
                    } else {
                        Query::BoxRange(vec![(lo, hi)])
                    }
                }
                2 => Query::Point(vec![lo % span; dims]),
                3 => Query::HierarchyNode {
                    level: 4,
                    index: (lo % span) >> 4,
                },
                _ => Query::Total,
            }
        })
        .collect()
}

/// `count` queries of 25 disjoint boxes each over a `2^bits` square: a
/// 5 × 5 grid of cells, one box of random extent inside each cell.
fn multi_box_battery(count: usize, span: u64, salt: u64) -> Vec<Query> {
    let cell = span / 5;
    (0..count as u64)
        .map(|i| {
            let mut boxes = Vec::with_capacity(25);
            for cx in 0..5 {
                for cy in 0..5 {
                    let r = mix(i ^ salt ^ (cx * 5 + cy) << 32);
                    let (x0, y0) = (cx * cell + r % cell, cy * cell + (r >> 16) % cell);
                    let x1 = x0 + (r >> 32) % (cx * cell + cell - x0);
                    let y1 = y0 + (r >> 48) % (cy * cell + cell - y0);
                    boxes.push(vec![(x0, x1), (y0, y1)]);
                }
            }
            Query::MultiRange(boxes)
        })
        .collect()
}

/// The bound grid: every `(a_j, τ, δ)` with τ and δ from the lists below
/// and `a_j = k·τ` summed by repeated addition for `k` in `0..600`, as a
/// sample accumulator builds it. Returns the interval count and a checksum
/// of the endpoints.
fn bound_grid() -> (usize, f64) {
    let taus = [1e-6, 0.37, 1.0, 3.3, 17.0, 1234.5, 9.9e7];
    let deltas = [0.05, 0.01, 0.05 / 36.0, 1e-6, 0.5, 0.999];
    let (mut count, mut checksum) = (0, 0.0);
    for tau in taus {
        for delta in deltas {
            let mut a_j = 0.0;
            for _ in 0..600 {
                let (lo, hi) = sas_core::bounds::weight_confidence_interval(
                    std::hint::black_box(a_j),
                    tau,
                    delta,
                );
                checksum += lo / tau + hi / tau;
                count += 1;
                a_j += tau;
            }
        }
    }
    (count, checksum)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("query bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let items = env_usize("SAS_QUERY_ITEMS", 20_000);
    let batch = env_usize("SAS_QUERY_BATCH", 64);
    let ops = env_usize("SAS_QUERY_OPS", 4000);
    let reps = env_usize("SAS_QUERY_REPS", 50).max(1);
    let confidence = 0.95;

    let data: Vec<WeightedKey> = (0..items as u64)
        .map(|k| WeightedKey::new(k, 0.5 + (k % 13) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let sample = sas_sampling::order::sample(&data, 2000, &mut rng);
    let mut varopt = VarOptSampler::new(2000);
    for wk in &data {
        varopt.push(wk.key, wk.weight, &mut rng);
    }
    let rows: Vec<(u64, u64, f64)> = (0..items as u64)
        .map(|i| (mix(i) % 256, mix(i ^ 99) % 256, 0.5 + (i % 9) as f64))
        .collect();
    let spatial = SpatialData::from_xyw(&rows);

    // The 2-D stored sample: keys are row indices, each carrying its (x, y)
    // location — the layout whose per-item range tests dominate the
    // answer_batch profile.
    let sample2d = {
        let keys2d: Vec<WeightedKey> = rows
            .iter()
            .enumerate()
            .map(|(i, &(_, _, w))| WeightedKey::new(i as u64, w))
            .collect();
        let mut r = StdRng::seed_from_u64(2);
        let smp = sas_sampling::order::sample(&keys2d, 2000, &mut r);
        let points: HashMap<KeyId, Point> = rows
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _))| (i as u64, Point::xy(x, y)))
            .collect();
        StoredSample::two_dim(smp, points).map_err(|e| format!("build 2-D sample: {e}"))?
    };

    let summaries: Vec<(&str, Box<dyn Summary>)> = vec![
        ("sample", Box::new(StoredSample::one_dim(sample.clone()))),
        ("sample2d", Box::new(sample2d)),
        ("varopt", Box::new(varopt)),
        ("qdigest", Box::new(QDigestSummary::build(&spatial, 8, 800))),
        (
            "wavelet",
            Box::new(WaveletSummary::build(&spatial, 8, 8, 800)),
        ),
        (
            "sketch",
            Box::new(SketchSummary::build(&spatial, 8, 8, 4000, 7)),
        ),
    ];

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut rates: Vec<(String, f64, f64)> = Vec::new();
    for (idx, (label, summary)) in summaries.iter().enumerate() {
        let dims = summary.dims();
        let span = if dims == 1 { items as u64 } else { 256 };
        let queries = battery(batch, dims, span, idx as u64 + 1);
        let mut loop_err = None;
        let (loop_answers, loop_secs) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..reps {
                match queries
                    .iter()
                    .map(|q| summary.answer(q, confidence))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(a) => last = a,
                    Err(e) => loop_err = Some(format!("{label}: loop answer: {e}")),
                }
            }
            last
        });
        let mut batch_err = None;
        let (batch_answers, batch_secs) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..reps {
                match summary.answer_batch(&queries, confidence) {
                    Ok(a) => last = a,
                    Err(e) => batch_err = Some(format!("{label}: batch answer: {e}")),
                }
            }
            last
        });
        if let Some(e) = loop_err.or(batch_err) {
            return Err(e);
        }
        if loop_answers.len() != batch_answers.len() {
            return Err(format!("{label}: loop/batch answer count mismatch"));
        }
        for (q, (a, b)) in queries.iter().zip(loop_answers.iter().zip(&batch_answers)) {
            if a.value.to_bits() != b.value.to_bits() {
                return Err(format!(
                    "{label}: batch answer drifted from loop answer on {q}: {} vs {}",
                    a.value, b.value
                ));
            }
        }
        let total_queries = (queries.len() * reps) as f64;
        let loop_qps = total_queries / loop_secs;
        let batch_qps = total_queries / batch_secs;
        rates.push(((*label).to_string(), loop_qps, batch_qps));
        table.push(vec![
            (*label).to_string(),
            format!("{loop_qps:.0}"),
            format!("{batch_qps:.0}"),
            format!("{:.2}", loop_secs / batch_secs),
        ]);
    }
    print_table(
        &format!("batch vs loop (queries/s, {batch} queries x {reps} reps)"),
        &["kind", "loop_qps", "batch_qps", "speedup"],
        &table,
    );

    // Kernels: the bound inversion alone, and multi-box queries on the 2-D
    // sample (the slab-indexed box test), checked against the loop path.
    let grid_reps = (reps / 10).max(1);
    let ((intervals, checksum), grid_secs) = timed(|| {
        let mut last = (0, 0.0);
        for _ in 0..grid_reps {
            last = bound_grid();
        }
        last
    });
    if !checksum.is_finite() {
        return Err(format!("bound grid checksum {checksum} is not finite"));
    }
    let bound_intervals_per_s = (intervals * grid_reps) as f64 / grid_secs;
    let sample2d = &summaries[1].1;
    let multi = multi_box_battery(batch, 256, 7);
    let mut multi_err = None;
    let (multi_answers, multi_secs) = timed(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            match sample2d.answer_batch(&multi, confidence) {
                Ok(a) => last = a,
                Err(e) => multi_err = Some(format!("multi-box batch answer: {e}")),
            }
        }
        last
    });
    if let Some(e) = multi_err {
        return Err(e);
    }
    for (q, b) in multi.iter().zip(&multi_answers) {
        let a = sample2d
            .answer(q, confidence)
            .map_err(|e| format!("multi-box answer: {e}"))?;
        if (a.value.to_bits(), a.lower.to_bits(), a.upper.to_bits())
            != (b.value.to_bits(), b.lower.to_bits(), b.upper.to_bits())
        {
            return Err(format!(
                "multi-box batch answer drifted from loop answer on {q}"
            ));
        }
    }
    let answer_batch_multi_2d_qps = (multi.len() * reps) as f64 / multi_secs;
    // The small side of the multi-box index: one 3-box query per call.
    let small = [Query::MultiRange(vec![
        vec![(0, 40), (10, 90)],
        vec![(100, 130), (0, 255)],
        vec![(200, 255), (120, 160)],
    ])];
    let small_calls = batch * reps;
    let (small_answer, small_secs) = timed(|| {
        let mut last = Ok(Vec::new());
        for _ in 0..small_calls {
            last = sample2d.answer_batch(std::hint::black_box(&small), confidence);
        }
        last
    });
    let small_answer = small_answer.map_err(|e| format!("3-box batch answer: {e}"))?;
    let small_loop = sample2d
        .answer(&small[0], confidence)
        .map_err(|e| format!("3-box answer: {e}"))?;
    if small_answer.first().map(|e| e.value.to_bits()) != Some(small_loop.value.to_bits()) {
        return Err("3-box batch answer drifted from loop answer".into());
    }
    let answer_multi_small_2d_qps = small_calls as f64 / small_secs;
    print_table(
        "kernels",
        &["kernel", "rate"],
        &[
            vec![
                format!("bound intervals/s ({intervals} x {grid_reps})"),
                format!("{bound_intervals_per_s:.0}"),
            ],
            vec![
                format!("25-box answer_batch queries/s ({batch} x {reps})"),
                format!("{answer_batch_multi_2d_qps:.0}"),
            ],
            vec![
                format!("3-box answer_batch queries/s (1 x {small_calls})"),
                format!("{answer_multi_small_2d_qps:.0}"),
            ],
        ],
    );

    // Store-level: ingest one window per kind, then hammer estimates.
    let dir = std::env::temp_dir().join(format!("sas-query-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        Store::open(
            &dir,
            StoreConfig {
                budget: None,
                cache_capacity: 4096,
            },
        )
        .map_err(|e| format!("open store: {e}"))?,
    );
    for (i, (_, summary)) in summaries.iter().enumerate() {
        store
            .ingest("bench", i as u64 * 60, summary.clone())
            .map_err(|e| format!("ingest: {e}"))?;
    }

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut store_hot_8t = 0.0;
    for threads in [1usize, 4, 8] {
        for (mode, hot) in [("estimate-cold", false), ("estimate-hot", true)] {
            let per_thread = ops / threads;
            let (worker_results, secs) = timed(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let store = store.clone();
                            scope.spawn(move || -> Result<(), String> {
                                for i in 0..per_thread {
                                    let lo = if hot {
                                        0
                                    } else {
                                        mix((threads * 1_000_003 + t * per_thread + i) as u64)
                                            % items as u64
                                    };
                                    let q = Query::interval(lo, lo + items as u64 / 4);
                                    let ans = store
                                        .estimate(
                                            "bench",
                                            SummaryKind::Sample,
                                            &q,
                                            confidence,
                                            None,
                                        )
                                        .map_err(|e| format!("estimate: {e}"))?;
                                    if ans.estimate.lower > ans.estimate.upper {
                                        return Err("estimate bounds inverted".into());
                                    }
                                }
                                Ok(())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("estimate worker panicked"))
                        .collect::<Result<Vec<_>, _>>()
                })
            });
            worker_results?;
            let ops_per_sec = (per_thread * threads) as f64 / secs;
            if hot && threads == 8 {
                store_hot_8t = ops_per_sec;
            }
            table.push(vec![
                mode.into(),
                threads.to_string(),
                format!("{ops_per_sec:.0}"),
            ]);
        }
    }
    print_table(
        "store estimate throughput (ops/s)",
        &["op", "threads", "ops_per_sec"],
        &table,
    );
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "core_query")
            .int("items", items as u64)
            .int("batch", batch as u64)
            .int("reps", reps as u64);
        for (label, loop_qps, batch_qps) in &rates {
            if label == "sample" {
                obj.num("answer_batch_1d_qps", *batch_qps)
                    .num("answer_loop_1d_qps", *loop_qps);
            } else if label == "sample2d" {
                obj.num("answer_batch_2d_qps", *batch_qps)
                    .num("answer_loop_2d_qps", *loop_qps);
            }
        }
        let mut kinds = JsonObj::new();
        for (label, loop_qps, batch_qps) in &rates {
            let mut kind = JsonObj::new();
            kind.num("loop_qps", *loop_qps).num("batch_qps", *batch_qps);
            kinds.obj(label, &kind);
        }
        obj.obj("kinds", &kinds)
            .num("bound_intervals_per_s", bound_intervals_per_s)
            .num("answer_batch_multi_2d_qps", answer_batch_multi_2d_qps)
            .num("answer_multi_small_2d_qps", answer_multi_small_2d_qps)
            .num("store_hot_8t_ops_per_s", store_hot_8t);
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
