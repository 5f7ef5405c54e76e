//! Figure 3(c): time to answer 2500 rectangle queries vs summary size on
//! Network data.
//!
//! Paper's reading: samples answer by scanning (aware = obliv, thousands of
//! rectangles per second, cost growing linearly in the sample size); the
//! wavelet pays ~1000× more per rectangle (dyadic decomposition × retained
//! coefficients).
//!
//! Each timing is one `Summary::answer_batch` call over the whole battery,
//! so it includes every kind's error bounds, not just the values.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sas_bench::*;
use sas_data::uniform_area_queries;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{Query, Summary};

fn main() {
    let scale = Scale::from_env();
    let w = network_workload(scale);
    let side = 1u64 << w.bits;
    // 2500 rectangles as in the paper: 100 queries x 25 ranges.
    let mut qrng = StdRng::seed_from_u64(77);
    let queries = uniform_area_queries(&mut qrng, side, side, 100, 25, 0.2);
    let total_rects: usize = queries.iter().map(|q| q.range_count()).sum();
    let batch: Vec<Query> = queries.iter().map(Query::from).collect();

    eprintln!("fig3c: network data, timing {total_rects} rectangle queries per summary");

    let wavelet_full = WaveletSummary::build(&w.data, w.bits, w.bits, usize::MAX);

    let mut rows = Vec::new();
    for &s in &scale.size_sweep() {
        let aware = build_aware(&w.data, s, 51);
        let obliv = build_obliv(&w.data, s, 52);
        let wavelet = wavelet_full.truncated(s);
        let qdigest = QDigestSummary::build(&w.data, w.bits, s);

        let run = |summary: &dyn Summary| -> f64 {
            let (answers, secs) = timed(|| summary.answer_batch(&batch, 0.95));
            std::hint::black_box(answers.expect("battery queries are valid"));
            secs
        };
        rows.push(vec![
            s.to_string(),
            format!("{:.4}", run(&aware)),
            format!("{:.4}", run(&obliv)),
            format!("{:.4}", run(&wavelet)),
            format!("{:.4}", run(&qdigest)),
        ]);
    }
    print_table(
        "Figure 3(c): Network, seconds to answer 2500 rectangle queries vs summary size",
        &["size", "aware", "obliv", "wavelet", "qdigest"],
        &rows,
    );
}
