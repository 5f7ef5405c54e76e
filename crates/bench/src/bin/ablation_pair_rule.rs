//! Ablation: where does the structure-awareness win come from?
//!
//! Both samplers below are VarOpt with identical IPPS probabilities; they
//! differ only in *which pairs* are aggregated:
//!
//! * `structured` — lowest-LCA pairing along the kd-hierarchy (the paper's
//!   scheme);
//! * `arbitrary` — pairs chosen without regard to structure (equivalent in
//!   distribution-class to oblivious VarOpt).
//!
//! Per-key estimates are identically distributed; only range behaviour
//! differs — demonstrating that pair selection alone carries the benefit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sas_bench::*;
use sas_core::aggregate::{aggregate_all, AggregationState};
use sas_core::Sample;
use sas_data::uniform_area_queries;
use sas_sampling::IppsSetup;

fn main() {
    let scale = Scale::from_env();
    let w = network_workload(scale);
    let side = 1u64 << w.bits;
    let s = 1000;
    let mut qrng = StdRng::seed_from_u64(21);
    let queries = uniform_area_queries(&mut qrng, side, side, scale.query_count(), 25, 0.3);

    eprintln!("ablation_pair_rule: network data, summary size {s}");

    let seeds = 5;
    let mut err_structured = 0.0;
    let mut err_arbitrary = 0.0;
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        // Structured: main-memory kd-hierarchy aggregation.
        let aware = sas_sampling::product::sample(&w.data, s, &mut rng);
        let aware = stored_sample(aware, &w.data);
        err_structured += avg_abs_error(&aware, &w.exact, &queries, w.total);

        // Arbitrary: same IPPS setup, pairs aggregated in arbitrary order.
        let setup = IppsSetup::compute(&w.data.keys, s);
        let keys: Vec<u64> = setup.active.iter().map(|(wk, _)| wk.key).collect();
        let probs: Vec<f64> = setup.active.iter().map(|(_, p)| *p).collect();
        let mut state = AggregationState::new(keys, probs);
        aggregate_all(&mut state, &mut rng);
        let mut smp = Sample::from_inclusion(
            &w.data.keys,
            &[],
            state.included_keys().collect::<Vec<_>>(),
            setup.tau,
        );
        smp.merge(Sample::from_inclusion(
            &w.data.keys,
            &[],
            setup.certain.iter().map(|wk| wk.key),
            setup.tau,
        ));
        let arb = stored_sample(smp, &w.data);
        err_arbitrary += avg_abs_error(&arb, &w.exact, &queries, w.total);
    }

    print_table(
        "Ablation: pair-selection rule (same IPPS probabilities, same VarOpt class)",
        &["rule", "avg_abs_error"],
        &[
            vec![
                "structured(lowest-LCA/kd)".into(),
                fmt_err(err_structured / seeds as f64),
            ],
            vec!["arbitrary".into(), fmt_err(err_arbitrary / seeds as f64)],
        ],
    );
}
