//! One-dimensional comparison: order-structure-aware sampling vs the
//! classic 1-D wavelet and q-digest.
//!
//! The paper's related-work observation: dedicated summaries "have shown
//! their value in efficiently summarizing one-dimensional data (essentially,
//! arrays of counts)" while their 2-D behaviour degrades. This experiment
//! regenerates the 1-D side of that statement: on a 1-D heavy-tailed array
//! all three methods are competitive, in stark contrast to the 2-D figures.
//!
//! Which summary answers each column:
//!
//! * `aware(order)` — the order sampler's sample as a 1-D `StoredSample`
//!   (the `sample` kind), through `Summary::answer_batch`;
//! * `wavelet` — the general `wavelet` kind on a one-row domain
//!   (`bits_y = 0`), which is the 1-D Haar transform, through
//!   `Summary::answer_batch`;
//! * `qdigest1d` — the dedicated 1-D q-digest (`sas_summaries::qdigest1d`).
//!   The 2-D `qdigest` kind on one row does not reproduce it: its
//!   compression keeps a light member of a heavy four-child group only at
//!   ≥ threshold/4, where the 1-D digest's two-child groups use
//!   threshold/2. On this workload the 2-D kind gives 1.2264e-3 against
//!   1.1106e-3 at s = 300, and 4.6249e-4 against 5.2989e-4 at s = 1000.
//!
//! `--json PATH` writes the per-size mean errors in machine-readable form;
//! any phase failure exits non-zero.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sas_bench::*;
use sas_core::WeightedKey;
use sas_sampling::product::SpatialData;
use sas_structures::order::Interval;
use sas_summaries::qdigest1d::QDigest1D;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{Query, StoredSample, Summary};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("one_dim bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let bits = 16u32;
    let side = 1u64 << bits;
    let n = env_usize("SAS_ONEDIM_N", 60_000) as u64;
    let mut rng = StdRng::seed_from_u64(1);
    // Heavy-tailed weights over clustered positions (1-D analogue of the
    // network data).
    let mut agg: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for _ in 0..n {
        let cluster = rng.gen_range(0..64u64) * (side / 64);
        let pos = cluster + (rng.gen_range(0..side / 64) / (1 + rng.gen_range(0..8)));
        let w = if rng.gen_bool(0.05) {
            rng.gen_range(100.0..1000.0)
        } else {
            rng.gen_range(0.1..5.0)
        };
        *agg.entry(pos).or_insert(0.0) += w;
    }
    let mut data: Vec<WeightedKey> = agg
        .into_iter()
        .map(|(k, w)| WeightedKey::new(k, w))
        .collect();
    data.sort_by_key(|wk| wk.key);
    let total: f64 = data.iter().map(|wk| wk.weight).sum();
    if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("degenerate workload: total weight is not positive".into());
    }

    // Query battery: random intervals of mixed sizes.
    let mut qrng = StdRng::seed_from_u64(2);
    let queries: Vec<Interval> = (0..200)
        .map(|_| {
            let len = 1 + (side as f64 * 10f64.powf(qrng.gen_range(-4.0..-0.5))) as u64;
            let lo = qrng.gen_range(0..side - len);
            Interval::new(lo, lo + len - 1)
        })
        .collect();
    let truth: Vec<f64> = queries
        .iter()
        .map(|&iv| {
            data.iter()
                .filter(|wk| iv.contains(wk.key))
                .map(|wk| wk.weight)
                .sum()
        })
        .collect();
    let batch: Vec<Query> = queries
        .iter()
        .map(|iv| Query::interval(iv.lo, iv.hi))
        .collect();
    let answers = |summary: &dyn Summary| -> Result<Vec<f64>, String> {
        let estimates = summary
            .answer_batch(&batch, 0.95)
            .map_err(|e| format!("{} answer_batch: {e}", summary.kind()))?;
        Ok(estimates.into_iter().map(|e| e.value).collect())
    };
    let mean_err = |est: &[f64]| -> f64 {
        est.iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).abs())
            .sum::<f64>()
            / (queries.len() as f64 * total)
    };
    // The one-row 2-D layout the wavelet kind builds over.
    let row = SpatialData::from_xyw(
        &data
            .iter()
            .map(|wk| (wk.key, 0, wk.weight))
            .collect::<Vec<_>>(),
    );

    eprintln!(
        "one_dim: {} distinct positions, domain 2^{bits}",
        data.len()
    );

    let mut rows = Vec::new();
    let mut sizes_json = JsonObj::new();
    for &s in &[100usize, 300, 1000, 3000] {
        let mut srng = StdRng::seed_from_u64(100 + s as u64);
        let aware = sas_sampling::order::sample_by(&data, s, |k| k, &mut srng);
        if aware.len() != s.min(data.len()) {
            return Err(format!(
                "aware sample has {} entries, expected {}",
                aware.len(),
                s.min(data.len())
            ));
        }
        let wavelet = WaveletSummary::build(&row, bits, 0, s);
        let qdigest = QDigest1D::build(&data, bits, s);
        let aware_err = mean_err(&answers(&StoredSample::one_dim(aware))?);
        let wavelet_err = mean_err(&answers(&wavelet)?);
        let qdigest_err = mean_err(
            &queries
                .iter()
                .map(|&iv| qdigest.estimate(iv))
                .collect::<Vec<_>>(),
        );
        if !aware_err.is_finite() || !wavelet_err.is_finite() || !qdigest_err.is_finite() {
            return Err(format!("non-finite error at size {s}"));
        }
        let mut size_json = JsonObj::new();
        size_json
            .num("aware_err", aware_err)
            .num("wavelet_err", wavelet_err)
            .num("qdigest_err", qdigest_err);
        sizes_json.obj(&format!("s{s}"), &size_json);
        rows.push(vec![
            s.to_string(),
            fmt_err(aware_err),
            fmt_err(wavelet_err),
            fmt_err(qdigest_err),
        ]);
    }
    print_table(
        "One-dimensional interval queries: all methods competitive (contrast with Figures 2-4)",
        &["size", "aware(order)", "wavelet", "qdigest1d"],
        &rows,
    );

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "core_one_dim")
            .int("n", n)
            .int("positions", data.len() as u64)
            .obj("sizes", &sizes_json);
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
