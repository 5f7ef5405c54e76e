//! # sas-summaries — baseline range-sum summaries
//!
//! The dedicated summaries the paper compares structure-aware sampling
//! against (Section 6 "Methods"):
//!
//! * [`wavelet`] — the standard (tensor-product) two-dimensional Haar
//!   wavelet transform with coefficient thresholding [Vitter–Wang–Iyer]:
//!   each input point touches `(log X + 1)(log Y + 1)` coefficients; the
//!   `s` largest normalized coefficients are retained. A one-row domain
//!   (`bits_y = 0`) is the classic 1-D transform.
//! * [`qdigest`] — a two-dimensional q-digest / adaptive spatial
//!   partitioning summary [Shrivastava et al.; Hershberger et al.]: a
//!   deterministic dyadic-grid compression keeping heavy cells.
//! * [`countsketch`] — Count-sketch [Charikar–Chen–Farach-Colton] over
//!   dyadic rectangles: one sketch per dyadic level pair, queried through
//!   the canonical rectangle decomposition.
//! * [`qdigest1d`] — the classic one-dimensional q-digest, kept for the
//!   `one_dim` comparison (the 2-D kind on one row compresses differently;
//!   see its module docs).
//! * [`exact`] — scan-based exact range sums, the ground truth used by the
//!   experiment harness.
//!
//! Every kind answers range queries through one API,
//! [`Summary::answer`] / [`Summary::answer_batch`], and reports its size
//! as [`Summary::item_count`] — *elements* comparable to sample keys, as
//! on the x-axis of the paper's plots. Each deterministic kind's own box
//! estimator (`estimate_box`) is an inherent method that `answer` calls.
//! The q-digest and count-sketch also implement `sas_core::Mergeable` —
//! per-shard summaries built over disjoint data combine by node/counter
//! addition, mirroring the mergeable VarOpt samples of
//! `sas-sampling::sharded`.
//!
//! The [`erased`] module adds the durability layer: the object-safe
//! [`Summary`] trait (build metadata, queries, type-erased merge,
//! encode/decode onto the `sas-codec` wire format) and the [`SummaryKind`]
//! registry, so VarOpt reservoirs, finished samples ([`stored`]), q-digests,
//! wavelets, and count-sketches can be saved, merged, and queried across
//! process boundaries.
//!
//! The [`query`] module is the unified estimation API on top: every
//! question is a [`Query`] (box, disjoint multi-range, point, hierarchy
//! node, total) and every answer an [`Estimate`] — value, variance, and a
//! confidence interval derived per kind (Chernoff inversion for samples,
//! deterministic containment/truncation bounds for q-digest/wavelet, row
//! spread for sketches). [`QueryBatch`] evaluates many queries in one pass
//! over a summary's items.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod countsketch;
pub mod erased;
pub mod exact;
pub mod qdigest;
pub mod qdigest1d;
pub mod query;
pub mod stored;
pub mod view;
pub mod wavelet;

pub use erased::{
    decode_summaries, decode_summary, encode_summary, merge_tree, merge_tree_with, Summary,
    SummaryError, SummaryKind,
};
pub use query::{Estimate, Query, QueryBatch, QueryError};
pub use sas_sampling::sharded::MergeArena;
pub use stored::StoredSample;
pub use view::{encode_segment, SegmentSummary};
