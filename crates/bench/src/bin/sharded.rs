//! Sharded vs serial summarization, plus merge-tree throughput: the core
//! ingest path (`sas_sampling::order::sample`), the sharded build
//! (`summarize_sharded`), and a dedicated merge-tree phase that measures
//! threshold merges per second *and* heap allocations per merge (this bin
//! installs a counting global allocator for that purpose), and two build
//! kernels on the paper's network data (`NetworkConfig` defaults): the
//! two-pass structure-aware build (`two_pass::sample_product`, s = 1000,
//! guide factor 5) and streaming VarOpt (`VarOptSampler::sample_slice`,
//! s = 5000), each reported as keys per second of the median build.
//!
//! Environment knobs: `SAS_SHARD_N` (stream length, default 400000),
//! `SAS_SHARD_S` (budget, default 2000), `SAS_SHARD_MERGE_REPS`
//! (merge-tree repetitions, default 30).
//!
//! `--json PATH` writes the machine-readable result consumed by
//! `scripts/bench_core.sh`; any phase failure exits non-zero.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sas_bench::{alloc_count, env_usize, fmt_err, parse_json_flag, print_table, timed, JsonObj};
use sas_core::varopt::VarOptSampler;
use sas_core::{total_weight, Sample, WeightedKey};
use sas_data::network::NetworkConfig;
use sas_sampling::sharded::{
    merge_sample_tree, per_shard_samples, summarize_sharded, ShardTopology, ShardedConfig,
};
use sas_sampling::{order, two_pass};
use sas_structures::order::Interval;

/// Builds per kernel in the build-kernel phase; the median is reported.
const BUILD_REPS: usize = 11;

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sharded bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let n = env_usize("SAS_SHARD_N", 400_000) as u64;
    let s = env_usize("SAS_SHARD_S", 2_000);
    let merge_reps = env_usize("SAS_SHARD_MERGE_REPS", 30);
    let seed = 7u64;

    // Heavy-tailed weights, keys = positions (order structure).
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<WeightedKey> = (0..n)
        .map(|k| {
            let w = if rng.gen_bool(0.02) {
                rng.gen_range(200.0..2000.0)
            } else {
                rng.gen_range(0.1..4.0)
            };
            WeightedKey::new(k, w)
        })
        .collect();
    let total = total_weight(&data);

    let mut qrng = StdRng::seed_from_u64(seed + 1);
    let queries: Vec<Interval> = (0..150)
        .map(|_| {
            let len = 1 + (n as f64 * 10f64.powf(qrng.gen_range(-3.0..-0.5))) as u64;
            let lo = qrng.gen_range(0..n - len);
            Interval::new(lo, lo + len - 1)
        })
        .collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|iv| {
            data.iter()
                .filter(|wk| iv.contains(wk.key))
                .map(|wk| wk.weight)
                .sum()
        })
        .collect();
    let avg_rel_err = |smp: &Sample| -> f64 {
        queries
            .iter()
            .zip(&exact)
            .map(|(iv, &truth)| {
                let est = smp.subset_estimate(|k| iv.contains(k));
                if truth > 0.0 {
                    (est - truth).abs() / truth
                } else {
                    est.abs()
                }
            })
            .sum::<f64>()
            / queries.len() as f64
    };

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "sharded: n = {n}, budget s = {s}, {} queries, {cores} core(s) available",
        queries.len()
    );
    if cores == 1 {
        eprintln!("note: single core — speedups reflect subdivision only, not parallelism");
    }

    // --- serial ingest (the per-shard sampling kernel) --------------------
    let (serial, t_serial) = timed(|| {
        let mut rng = StdRng::seed_from_u64(seed + 2);
        order::sample(&data, s, &mut rng)
    });
    if serial.len() != s.min(data.len()) {
        return Err(format!(
            "serial sample has {} entries, expected {}",
            serial.len(),
            s.min(data.len())
        ));
    }
    let ingest_keys_per_s = n as f64 / t_serial;

    let mut rows: Vec<Vec<String>> = vec![vec![
        "serial".into(),
        "-".into(),
        format!("{:.1}", t_serial * 1e3),
        "1.00×".into(),
        fmt_err(avg_rel_err(&serial)),
        format!("{:.2e}", (serial.total_estimate() - total).abs() / total),
    ]];

    let mut sharded8_keys_per_s = 0.0;
    for topology in [ShardTopology::KeyRange, ShardTopology::RoundRobin] {
        for shards in [2usize, 4, 8] {
            let cfg = ShardedConfig {
                shards,
                topology,
                seed: seed + 3,
            };
            let (smp, t) = timed(|| summarize_sharded(&data, s, &cfg));
            if smp.len() != s.min(data.len()) {
                return Err(format!(
                    "{topology:?}/{shards}: sharded sample has {} entries, expected {}",
                    smp.len(),
                    s.min(data.len())
                ));
            }
            if topology == ShardTopology::KeyRange && shards == 8 {
                sharded8_keys_per_s = n as f64 / t;
            }
            rows.push(vec![
                format!("{topology:?}"),
                shards.to_string(),
                format!("{:.1}", t * 1e3),
                format!("{:.2}×", t_serial / t),
                fmt_err(avg_rel_err(&smp)),
                format!("{:.2e}", (smp.total_estimate() - total).abs() / total),
            ]);
        }
    }

    print_table(
        "sharded vs serial (order structure, 1-D)",
        &[
            "topology",
            "shards",
            "build ms",
            "speedup",
            "avg rel err",
            "total rel err",
        ],
        &rows,
    );

    // --- merge-tree throughput + allocations per merge --------------------
    // Eight per-shard samples merged bottom-up = 7 threshold merges per
    // tree. The inputs for every repetition are cloned *before* the
    // measured region so the allocation delta counts only the merges.
    let cfg8 = ShardedConfig::key_range(8, seed + 3);
    let parts = per_shard_samples(&data, s, &cfg8);
    let merges_per_tree = (parts.len() - 1) as u64;
    let inputs: Vec<Vec<Sample>> = (0..merge_reps).map(|_| parts.clone()).collect();
    let mut rngs: Vec<StdRng> = (0..merge_reps)
        .map(|rep| StdRng::seed_from_u64(seed + 100 + rep as u64))
        .collect();

    let allocs_before = alloc_count::allocations();
    let (merged_len, t_merge) = timed(|| {
        let mut last = 0;
        for (level, rng) in inputs.into_iter().zip(rngs.iter_mut()) {
            last = merge_sample_tree(level, s, rng).len();
        }
        last
    });
    let allocs = alloc_count::allocations() - allocs_before;
    if merged_len != s.min(data.len()) {
        return Err(format!(
            "merge tree produced {merged_len} entries, expected {}",
            s.min(data.len())
        ));
    }
    let total_merges = merges_per_tree * merge_reps as u64;
    let merge_tree_merges_per_s = total_merges as f64 / t_merge;
    let merge_tree_allocs_per_merge = allocs as f64 / total_merges as f64;

    print_table(
        "merge tree (8 shards, 7 threshold merges per tree)",
        &["reps", "merges_per_s", "allocs_per_merge"],
        &[vec![
            merge_reps.to_string(),
            format!("{merge_tree_merges_per_s:.1}"),
            format!("{merge_tree_allocs_per_merge:.1}"),
        ]],
    );

    // --- build kernels on the network data -------------------------------
    let net = NetworkConfig::default().generate(&mut StdRng::seed_from_u64(seed + 4));
    let net_keys = net.len() as f64;
    let median_build_s = |build: &dyn Fn(&mut StdRng) -> usize, want: usize| {
        let mut times = Vec::with_capacity(BUILD_REPS);
        for rep in 0..BUILD_REPS {
            let mut rng = StdRng::seed_from_u64(seed + 200 + rep as u64);
            let (len, t) = timed(|| build(&mut rng));
            if len != want {
                return Err(format!("build {rep} has {len} entries, expected {want}"));
            }
            times.push(t);
        }
        times.sort_by(f64::total_cmp);
        Ok(times[times.len() / 2])
    };
    let t_two_pass = median_build_s(
        &|rng| two_pass::sample_product(&net, 1000, 5, rng).len(),
        1000,
    )
    .map_err(|e| format!("two-pass: {e}"))?;
    let t_varopt = median_build_s(
        &|rng| VarOptSampler::sample_slice(5000, &net.keys, rng).len(),
        5000,
    )
    .map_err(|e| format!("varopt: {e}"))?;
    let two_pass_build_keys_per_s = net_keys / t_two_pass;
    let varopt_keys_per_s = net_keys / t_varopt;

    print_table(
        &format!(
            "build kernels (network data, {} keys, median of {BUILD_REPS})",
            net.len()
        ),
        &["kernel", "s", "build ms", "keys_per_s"],
        &[
            vec![
                "two_pass::sample_product".into(),
                "1000".into(),
                format!("{:.1}", t_two_pass * 1e3),
                format!("{two_pass_build_keys_per_s:.0}"),
            ],
            vec![
                "VarOptSampler::sample_slice".into(),
                "5000".into(),
                format!("{:.1}", t_varopt * 1e3),
                format!("{varopt_keys_per_s:.0}"),
            ],
        ],
    );

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "core_sharded")
            .int("n", n)
            .int("s", s as u64)
            .int("merge_reps", merge_reps as u64)
            .num("ingest_keys_per_s", ingest_keys_per_s)
            .num("sharded8_keys_per_s", sharded8_keys_per_s)
            .num("merge_tree_merges_per_s", merge_tree_merges_per_s)
            .num("merge_tree_allocs_per_merge", merge_tree_allocs_per_merge)
            .num("two_pass_build_keys_per_s", two_pass_build_keys_per_s)
            .num("varopt_keys_per_s", varopt_keys_per_s);
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
