//! The unified query/estimation API: every question asked of a summary —
//! offline `sas query`, the store daemon, the facade — is a [`Query`], and
//! every answer is an [`Estimate`]: a value *with an error bar*.
//!
//! The paper's central claim is not point estimates but accuracy: VarOpt
//! samples answer subset-sum queries with Chernoff-bounded deviation
//! (Eqns. 2–4), q-digests and wavelets carry deterministic truncation
//! error, sketches report the spread of their row medians. This module is
//! where those per-kind bound derivations meet one answer type.
//!
//! ## Query kinds
//!
//! * [`Query::BoxRange`] — weight inside one axis-aligned box.
//! * [`Query::MultiRange`] — weight of a disjoint union of boxes.
//! * [`Query::Point`] — weight at a single key / location.
//! * [`Query::HierarchyNode`] — weight under a dyadic hierarchy node
//!   (level, index) on axis 0 — the paper's hierarchy-range primitive.
//! * [`Query::Total`] — total data weight.
//!
//! [`Query::canonical`] folds equivalent spellings onto one form (a point
//! is a degenerate box, a full-domain box is `Total`, multi-range boxes
//! sort canonically) so the store's query cache and the wire encoding are
//! stable under re-phrasing.
//!
//! ## Wire form
//!
//! Queries and estimates travel as `sas-codec` frames
//! ([`sas_codec::proto::TAG_QUERY`] / [`TAG_ESTIMATE`](sas_codec::proto::TAG_ESTIMATE)):
//! the store protocol embeds the same body layout in its
//! `REQ_ESTIMATE` messages, and `tests/golden/` pins both encodings.

use std::fmt;

use sas_codec::{encode_frame, open_frame, proto, CodecError, Reader, Writer};
use sas_structures::product::MultiRangeQuery;

/// Hard cap on boxes in one multi-range query (protocol sanity bound).
pub const MAX_QUERY_BOXES: usize = 4096;

/// Hard cap on query axes (the summaries in this workspace are 1-D/2-D;
/// the format leaves room).
pub const MAX_QUERY_AXES: usize = 8;

/// One question asked of a summary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Weight inside an axis-aligned box: `axes[i]` is the closed interval
    /// on axis `i`; missing axes span the full domain.
    BoxRange(Vec<(u64, u64)>),
    /// Weight of a *disjoint* union of boxes (validated on
    /// [`Query::canonical`]).
    MultiRange(Vec<Vec<(u64, u64)>>),
    /// Weight at a single key (1-D) or location (2-D): one coordinate per
    /// axis.
    Point(Vec<u64>),
    /// Weight under the dyadic hierarchy node `(level, index)` on axis 0:
    /// keys in `[index·2^level, (index+1)·2^level − 1]`, full domain on
    /// any remaining axes.
    HierarchyNode {
        /// Node level (side `2^level`).
        level: u32,
        /// Node index at that level.
        index: u64,
    },
    /// Total data weight.
    Total,
}

/// An answer with an error bar.
///
/// `value` is the summary's estimate; `[lower, upper]` contains the exact
/// answer with probability at least `confidence` (exactly, for the
/// deterministic kinds, which report `confidence = 1`); `variance` is the
/// kind's variance estimate (0 for deterministic kinds, an HT-style
/// estimate of `Σ Var[a(i)]` for sample kinds, the row-spread proxy for
/// sketches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// Variance estimate of the point estimate (0 when deterministic).
    pub variance: f64,
    /// Lower end of the confidence interval.
    pub lower: f64,
    /// Upper end of the confidence interval.
    pub upper: f64,
    /// Probability that `[lower, upper]` contains the exact answer.
    pub confidence: f64,
}

impl Estimate {
    /// An exact answer: zero variance, degenerate interval, certainty.
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            variance: 0.0,
            lower: value,
            upper: value,
            confidence: 1.0,
        }
    }

    /// Half-width of the confidence interval (the `±` the CLI prints).
    pub fn half_width(&self) -> f64 {
        ((self.upper - self.lower) / 2.0).max(0.0)
    }

    /// Adds another estimate of *disjoint* data: values, variances, and
    /// interval ends add (interval sums are valid per-window; the caller
    /// is responsible for splitting the failure probability across
    /// summands — see the store's union-bound query path).
    pub fn merge_disjoint(&mut self, other: &Estimate) {
        self.value += other.value;
        self.variance += other.variance;
        self.lower += other.lower;
        self.upper += other.upper;
        self.confidence = self.confidence.min(other.confidence);
    }
}

/// Everything that can go wrong answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query itself is malformed (reversed bounds, overlapping
    /// multi-range boxes, axis count beyond the summary's dimensionality…).
    BadQuery(String),
    /// The requested confidence is outside what the kind can certify.
    BadConfidence(f64),
    /// A valid confidence split across `windows` disjoint windows (the
    /// union bound's `δ/k`) rounds to a per-window confidence of 1, which
    /// no probabilistic bound can certify.
    ConfidenceSplit {
        /// The confidence the caller asked for.
        confidence: f64,
        /// The number of windows it was split across.
        windows: usize,
    },
    /// Wire decoding failed.
    Codec(CodecError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            QueryError::BadConfidence(c) => {
                write!(f, "confidence {c} outside (0, 1)")
            }
            QueryError::ConfidenceSplit {
                confidence,
                windows,
            } => write!(
                f,
                "confidence {confidence} split across {windows} windows leaves each window a \
                 failure probability below f64 resolution; ask for a lower confidence or fewer windows"
            ),
            QueryError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CodecError> for QueryError {
    fn from(e: CodecError) -> Self {
        QueryError::Codec(e)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError::BadQuery(msg.into()))
}

/// The full-domain interval.
const FULL: (u64, u64) = (0, u64::MAX);

fn axes_valid(axes: &[(u64, u64)]) -> Result<(), QueryError> {
    if axes.len() > MAX_QUERY_AXES {
        return bad(format!(
            "{} axes exceed the cap {MAX_QUERY_AXES}",
            axes.len()
        ));
    }
    for &(lo, hi) in axes {
        if lo > hi {
            return bad(format!("reversed range {lo}..{hi} (lo > hi)"));
        }
    }
    Ok(())
}

/// Closed intervals `[a_lo, a_hi]` and `[b_lo, b_hi]` overlap on every axis
/// (missing axes are full-domain and always overlap).
fn boxes_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    let axes = a.len().max(b.len());
    (0..axes).all(|i| {
        let (alo, ahi) = a.get(i).copied().unwrap_or(FULL);
        let (blo, bhi) = b.get(i).copied().unwrap_or(FULL);
        alo.max(blo) <= ahi.min(bhi)
    })
}

/// The indices of some pair of overlapping boxes, the earlier one first, or
/// `None` when the boxes are pairwise disjoint.
///
/// Sweeps the boxes in order of their axis-0 interval (a missing axis is
/// full-domain) and tests each one only against the earlier boxes whose
/// axis-0 `hi` reaches its `lo`: boxes that do not meet on axis 0 cannot
/// overlap. For the disjoint intervals and grids that multi-range queries
/// are made of, that is a handful of tests per box instead of all pairs.
fn overlapping_pair(boxes: &[Vec<(u64, u64)>]) -> Option<(usize, usize)> {
    let axis0 = |i: usize| boxes[i].first().copied().unwrap_or(FULL);
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_unstable_by_key(|&i| axis0(i));
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let lo = axis0(i).0;
        open.retain(|&j| axis0(j).1 >= lo);
        if let Some(&j) = open.iter().find(|&&j| boxes_overlap(&boxes[i], &boxes[j])) {
            return Some((i.min(j), i.max(j)));
        }
        open.push(i);
    }
    None
}

/// The same union of boxes as a [`Query::MultiRange`] — how the experiment
/// harness hands its `sas-data` query batteries to
/// [`Summary::answer_batch`](crate::Summary::answer_batch).
impl From<&MultiRangeQuery> for Query {
    fn from(q: &MultiRangeQuery) -> Self {
        Query::MultiRange(
            q.boxes
                .iter()
                .map(|b| b.sides.iter().map(|iv| (iv.lo, iv.hi)).collect())
                .collect(),
        )
    }
}

impl Query {
    /// A box query over one 1-D interval.
    pub fn interval(lo: u64, hi: u64) -> Self {
        Query::BoxRange(vec![(lo, hi)])
    }

    /// Validates the query and folds it onto its canonical form:
    ///
    /// * a full-domain (or empty-axes) box, and a level-`64` spelling of
    ///   the whole hierarchy, become [`Query::Total`];
    /// * a point becomes the degenerate box;
    /// * a hierarchy node becomes the box over its span;
    /// * a single-box multi-range becomes that box; remaining boxes sort
    ///   lexicographically.
    ///
    /// The canonical form is what the store's query cache keys on, so
    /// `0..u64::MAX`, `Total`, and `node 64/0` all share one cache line.
    pub fn canonical(&self) -> Result<Query, QueryError> {
        match self {
            Query::Total => Ok(Query::Total),
            Query::BoxRange(axes) => {
                axes_valid(axes)?;
                if axes.iter().all(|&a| a == FULL) {
                    return Ok(Query::Total);
                }
                Ok(Query::BoxRange(axes.clone()))
            }
            Query::Point(coords) => {
                if coords.is_empty() {
                    return bad("point query needs at least one coordinate");
                }
                if coords.len() > MAX_QUERY_AXES {
                    return bad(format!(
                        "{} coordinates exceed the cap {MAX_QUERY_AXES}",
                        coords.len()
                    ));
                }
                Ok(Query::BoxRange(coords.iter().map(|&c| (c, c)).collect()))
            }
            Query::HierarchyNode { level, index } => {
                let (level, index) = (*level, *index);
                if level > 64 {
                    return bad(format!("hierarchy level {level} exceeds 64"));
                }
                if level == 64 {
                    return if index == 0 {
                        Ok(Query::Total)
                    } else {
                        bad(format!("level-64 node index {index} out of range"))
                    };
                }
                // Level 0 nodes are single keys: every u64 index is valid
                // (and 64 − 0 would overflow the shift).
                if level > 0 && index >= (1u64 << (64 - level)) {
                    return bad(format!("node index {index} out of range at level {level}"));
                }
                let lo = index << level;
                let hi = lo + ((1u64 << level) - 1);
                if (lo, hi) == FULL {
                    return Ok(Query::Total);
                }
                Ok(Query::BoxRange(vec![(lo, hi)]))
            }
            Query::MultiRange(boxes) => {
                if boxes.is_empty() {
                    return bad("multi-range query needs at least one box");
                }
                if boxes.len() > MAX_QUERY_BOXES {
                    return bad(format!(
                        "{} boxes exceed the cap {MAX_QUERY_BOXES}",
                        boxes.len()
                    ));
                }
                for axes in boxes {
                    axes_valid(axes)?;
                }
                if let Some((a, b)) = overlapping_pair(boxes) {
                    let (a, b) = (&boxes[a], &boxes[b]);
                    return bad(format!(
                        "multi-range boxes {a:?} and {b:?} overlap (the union must be disjoint)"
                    ));
                }
                if boxes.len() == 1 {
                    return Query::BoxRange(boxes[0].clone()).canonical();
                }
                let mut sorted = boxes.clone();
                sorted.sort();
                Ok(Query::MultiRange(sorted))
            }
        }
    }

    /// The disjoint boxes the (canonical) query evaluates over, each
    /// normalized to `dims` axes (missing axes full-domain). Errors if the
    /// query names more axes than the summary has.
    pub fn boxes(&self, dims: usize) -> Result<Vec<Vec<(u64, u64)>>, QueryError> {
        let norm = |axes: &[(u64, u64)]| -> Result<Vec<(u64, u64)>, QueryError> {
            if axes.len() > dims {
                return bad(format!(
                    "query names {} axes but the summary is {dims}-D",
                    axes.len()
                ));
            }
            Ok((0..dims)
                .map(|i| axes.get(i).copied().unwrap_or(FULL))
                .collect())
        };
        match self.canonical()? {
            Query::Total => Ok(vec![vec![FULL; dims]]),
            Query::BoxRange(axes) => Ok(vec![norm(&axes)?]),
            Query::MultiRange(boxes) => boxes.iter().map(|b| norm(b)).collect(),
            other => unreachable!("canonical() never returns {other:?}"),
        }
    }

    /// The canonical body bytes — what the store's query cache keys on.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, QueryError> {
        let canonical = self.canonical()?;
        let mut w = Writer::new();
        canonical.write_wire(&mut w);
        Ok(w.into_bytes())
    }

    /// Writes the wire representation (two sections: kind tag, payload).
    pub fn write_wire(&self, w: &mut Writer) {
        let put_axes = |w: &mut Writer, axes: &[(u64, u64)]| {
            w.put_u64(axes.len() as u64);
            for &(lo, hi) in axes {
                w.put_u64(lo);
                w.put_u64(hi);
            }
        };
        match self {
            Query::BoxRange(axes) => {
                w.section(1, |w| w.put_u8(1));
                w.section(2, |w| put_axes(w, axes));
            }
            Query::MultiRange(boxes) => {
                w.section(1, |w| w.put_u8(2));
                w.section(2, |w| {
                    w.put_u64(boxes.len() as u64);
                    for axes in boxes {
                        put_axes(w, axes);
                    }
                });
            }
            Query::Point(coords) => {
                w.section(1, |w| w.put_u8(3));
                w.section(2, |w| {
                    w.put_u64(coords.len() as u64);
                    for &c in coords {
                        w.put_u64(c);
                    }
                });
            }
            Query::HierarchyNode { level, index } => {
                w.section(1, |w| w.put_u8(4));
                w.section(2, |w| {
                    w.put_u32(*level);
                    w.put_u64(*index);
                });
            }
            Query::Total => {
                w.section(1, |w| w.put_u8(5));
                w.section(2, |_| {});
            }
        }
    }

    /// Reads the wire representation, validating shape invariants (never
    /// panics on hostile input).
    pub fn read_wire(r: &mut Reader<'_>) -> Result<Query, CodecError> {
        let invalid = |e: QueryError| CodecError::Invalid(e.to_string());
        let mut kind_sec = r.expect_section(1)?;
        let kind = kind_sec.get_u8()?;
        kind_sec.finish()?;
        let mut body = r.expect_section(2)?;
        let get_axes = |body: &mut Reader<'_>| -> Result<Vec<(u64, u64)>, CodecError> {
            let n = body.get_len(16)?;
            if n > MAX_QUERY_AXES {
                return Err(CodecError::Invalid(format!("{n} axes exceed the cap")));
            }
            let mut axes = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = body.get_u64()?;
                let hi = body.get_u64()?;
                if lo > hi {
                    return Err(CodecError::Invalid(format!("reversed range {lo}..{hi}")));
                }
                axes.push((lo, hi));
            }
            Ok(axes)
        };
        let query = match kind {
            1 => Query::BoxRange(get_axes(&mut body)?),
            2 => {
                let n = body.get_len(8)?;
                if n > MAX_QUERY_BOXES {
                    return Err(CodecError::Invalid(format!("{n} boxes exceed the cap")));
                }
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    boxes.push(get_axes(&mut body)?);
                }
                Query::MultiRange(boxes)
            }
            3 => {
                let n = body.get_len(8)?;
                if n > MAX_QUERY_AXES {
                    return Err(CodecError::Invalid(format!(
                        "{n} coordinates exceed the cap"
                    )));
                }
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    coords.push(body.get_u64()?);
                }
                Query::Point(coords)
            }
            4 => Query::HierarchyNode {
                level: body.get_u32()?,
                index: body.get_u64()?,
            },
            5 => Query::Total,
            t => return Err(CodecError::Invalid(format!("unknown query kind {t}"))),
        };
        body.finish()?;
        // Structural validation beyond per-field checks (index ranges,
        // multi-range disjointness) is shared with the in-process path.
        query.canonical().map_err(invalid)?;
        Ok(query)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes = |f: &mut fmt::Formatter<'_>, axes: &[(u64, u64)]| {
            for (i, (lo, hi)) in axes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{lo}..{hi}")?;
            }
            Ok(())
        };
        match self {
            Query::BoxRange(a) => axes(f, a),
            Query::MultiRange(boxes) => {
                for (i, b) in boxes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    axes(f, b)?;
                }
                Ok(())
            }
            Query::Point(coords) => {
                write!(f, "point ")?;
                for (i, c) in coords.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Query::HierarchyNode { level, index } => write!(f, "node {level}/{index}"),
            Query::Total => write!(f, "total"),
        }
    }
}

impl Estimate {
    /// Writes the wire representation (one section of five `f64`s).
    pub fn write_wire(&self, w: &mut Writer) {
        w.section(1, |w| {
            w.put_f64(self.value);
            w.put_f64(self.variance);
            w.put_f64(self.lower);
            w.put_f64(self.upper);
            w.put_f64(self.confidence);
        });
    }

    /// Reads the wire representation, rejecting non-finite fields and
    /// inverted intervals (never panics on hostile input).
    pub fn read_wire(r: &mut Reader<'_>) -> Result<Estimate, CodecError> {
        let mut sec = r.expect_section(1)?;
        let value = sec.get_finite_f64()?;
        let variance = sec.get_finite_f64()?;
        let lower = sec.get_finite_f64()?;
        let upper = sec.get_finite_f64()?;
        let confidence = sec.get_finite_f64()?;
        sec.finish()?;
        if lower > upper {
            return Err(CodecError::Invalid(format!(
                "inverted interval [{lower}, {upper}]"
            )));
        }
        if variance < 0.0 {
            return Err(CodecError::Invalid(format!("negative variance {variance}")));
        }
        if !(0.0..=1.0).contains(&confidence) {
            return Err(CodecError::Invalid(format!(
                "confidence {confidence} outside [0, 1]"
            )));
        }
        Ok(Estimate {
            value,
            variance,
            lower,
            upper,
            confidence,
        })
    }
}

/// Encodes a query as a standalone self-describing frame
/// ([`proto::TAG_QUERY`]).
pub fn encode_query(q: &Query) -> Vec<u8> {
    encode_frame(proto::TAG_QUERY, |w| q.write_wire(w))
}

/// Decodes a standalone query frame.
pub fn decode_query(bytes: &[u8]) -> Result<Query, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind != proto::TAG_QUERY {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let q = Query::read_wire(&mut frame.body)?;
    frame.body.finish()?;
    Ok(q)
}

/// Encodes an estimate as a standalone self-describing frame
/// ([`proto::TAG_ESTIMATE`]).
pub fn encode_estimate(e: &Estimate) -> Vec<u8> {
    encode_frame(proto::TAG_ESTIMATE, |w| e.write_wire(w))
}

/// Decodes a standalone estimate frame.
pub fn decode_estimate(bytes: &[u8]) -> Result<Estimate, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind != proto::TAG_ESTIMATE {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let e = Estimate::read_wire(&mut frame.body)?;
    frame.body.finish()?;
    Ok(e)
}

/// A batch of queries evaluated against one summary in a single pass.
///
/// For sample-based kinds the erased implementation walks the sample items
/// **once**, testing each item against every query, instead of re-walking
/// the sample per query — the win `sas-bench --bin query` measures.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Vec<Query>,
    confidence: f64,
}

impl QueryBatch {
    /// Builds a batch at the given confidence, validating every query —
    /// and the confidence itself — up front. `confidence` must lie in
    /// `(0, 1]`; 1 is accepted here because deterministic kinds certify
    /// it, but sample-based kinds will refuse it at answer time whenever a
    /// probabilistic bound is actually needed.
    pub fn new(queries: Vec<Query>, confidence: f64) -> Result<Self, QueryError> {
        if !(confidence > 0.0 && confidence <= 1.0) {
            return Err(QueryError::BadConfidence(confidence));
        }
        for q in &queries {
            q.canonical()?;
        }
        Ok(QueryBatch {
            queries,
            confidence,
        })
    }

    /// The queries, in submission order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The confidence every estimate is computed at.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Evaluates the batch: one estimate per query, in order.
    pub fn evaluate(&self, summary: &dyn crate::Summary) -> Result<Vec<Estimate>, QueryError> {
        summary.answer_batch(&self.queries, self.confidence)
    }
}

// --- Shared bound machinery -------------------------------------------------

/// Per-query accumulator for sample-based kinds (stored samples, VarOpt
/// reservoirs): filled in one pass over the items, finished into an
/// [`Estimate`] by [`SampleAccumulator::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleAccumulator {
    /// Running estimate — adjusted weights in item order (bit-identical to
    /// the historical `range_sum` accumulation).
    pub value: f64,
    /// Exact part: adjusted weights of heavy keys (`wᵢ ≥ τ`, included with
    /// probability 1).
    pub heavy: f64,
    /// HT estimate of the light part (`τ` per sampled light key).
    pub light_adjusted: f64,
    /// Sampled light keys.
    pub light_count: usize,
    /// HT estimate of `Σ Var[a(i)]`: each sampled light key contributes
    /// `Var[a(i)]/pᵢ = τ·(τ − wᵢ)`.
    pub variance: f64,
}

impl SampleAccumulator {
    /// Folds one in-range item in. Reference form of [`Self::add_classified`]
    /// (which the batch hot loop uses with the classification hoisted);
    /// kept for unit tests pinning the accumulator semantics.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn add(&mut self, weight: f64, adjusted: f64, tau: f64) {
        let light = tau > 0.0 && weight < tau;
        let light_var = if light { tau * (tau - weight) } else { 0.0 };
        self.add_classified(adjusted, tau, light, light_var);
    }

    /// Folds one in-range item whose light/heavy classification and light
    /// variance contribution were hoisted out of a per-query loop (they
    /// depend only on the item, not the query). Bit-identical to
    /// [`Self::add`] with `light = tau > 0.0 && weight < tau` and
    /// `light_var = tau * (tau - weight)`.
    #[inline(always)]
    pub fn add_classified(&mut self, adjusted: f64, tau: f64, light: bool, light_var: f64) {
        self.value += adjusted;
        if light {
            self.light_adjusted += tau;
            self.light_count += 1;
            self.variance += light_var;
        } else {
            self.heavy += adjusted;
        }
    }

    /// Finishes the accumulator into an estimate: heavy part exact, light
    /// part bounded by inverting the paper's Eqn. (4) tail at confidence
    /// `1 − δ` ([`sas_core::bounds::weight_confidence_interval`]).
    pub fn finish(self, tau: f64, confidence: f64) -> Result<Estimate, QueryError> {
        if tau <= 0.0 || self.light_count == 0 {
            // Every in-range key was kept exactly.
            return Ok(Estimate::exact(self.value));
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(QueryError::BadConfidence(confidence));
        }
        let delta = 1.0 - confidence;
        let (lo, hi) =
            sas_core::bounds::weight_confidence_interval(self.light_adjusted, tau, delta);
        Ok(Estimate {
            value: self.value,
            variance: self.variance,
            // Float dust between the split (heavy + light) accumulation and
            // the single-pass value must never push the value outside its
            // own interval.
            lower: (self.heavy + lo).min(self.value),
            upper: (self.heavy + hi).max(self.value),
            confidence,
        })
    }
}

/// One batch of queries compiled for a single pass over a sample's items —
/// the shared kernel of `StoredSample::answer_batch` and its segment twin
/// (`SegmentSummary` over column bytes), which feed it the same item
/// sequence from different storage.
///
/// Single-box queries (every shape except a multi-box `MultiRange`) have
/// their bounds flattened into parallel per-axis arrays, so the hot loop
/// tests an item against plain bound arrays. Multi-box queries go through
/// a [`SlabIndex`]: axis 0 is cut into slabs, each box is registered in
/// every slab its `[x0, x1]` meets, and an item is tested — with a
/// branchless OR-fold per query — only against the boxes of its own slab.
/// A box that contains the item's `x` meets the item's slab, so no hit is
/// lost, and the fold over a query's boxes yields the same hit bit as the
/// fold over all of them. The light/heavy split and the light item's
/// variance term depend only on the item, so both are hoisted out of the
/// per-query loops. Each accumulator folds its hits in item order, so every
/// answer is bit-identical to the one-query-at-a-time path.
pub(crate) struct SampleScan {
    tau: f64,
    /// Query count of the batch.
    queries: usize,
    /// Query index of each single-box query.
    single: Vec<usize>,
    /// Single-box bounds on axis 0 (the key in 1-D, `x` in 2-D).
    b0: Vec<(u64, u64)>,
    /// Single-box bounds on axis 1 (2-D only).
    b1: Vec<(u64, u64)>,
    single_accs: Vec<SampleAccumulator>,
    /// Query index of each multi-box query.
    multi: Vec<usize>,
    /// The multi-box queries' boxes, by slab on axis 0, and their
    /// accumulators.
    index: SlabIndex,
}

impl SampleScan {
    /// Compiles `queries` against a `dims`-axis sample with threshold
    /// `tau`.
    pub fn new(queries: &[Query], dims: usize, tau: f64) -> Result<Self, QueryError> {
        let mut single = Vec::with_capacity(queries.len());
        let mut b0 = Vec::with_capacity(queries.len());
        let mut b1 = Vec::with_capacity(queries.len());
        let mut multi = Vec::new();
        // Every multi-box query's boxes back to back, `[x0, x1, y0, y1]`
        // (1-D queries use the `x` pair only), with per-query end offsets.
        let mut flat = Vec::new();
        let mut ends = Vec::new();
        let two_dim = dims == 2;
        for (qi, q) in queries.iter().enumerate() {
            let boxes = q.boxes(dims)?;
            if let [axes] = boxes.as_slice() {
                single.push(qi);
                b0.push(axes[0]);
                if two_dim {
                    b1.push(axes[1]);
                }
            } else {
                flat.extend(boxes.iter().map(|axes| flat_box(axes, two_dim)));
                multi.push(qi);
                ends.push(flat.len());
            }
        }
        Ok(SampleScan {
            tau,
            queries: queries.len(),
            single_accs: vec![SampleAccumulator::default(); single.len()],
            single,
            b0,
            b1,
            multi,
            index: SlabIndex::build(&flat, &ends),
        })
    }

    /// The multi-box index's cuts (`K − 1` of them) and its registration
    /// count.
    #[cfg(test)]
    pub(crate) fn slab_shape(&self) -> (&[u64], usize) {
        (&self.index.cuts, self.index.boxes.len())
    }

    /// Folds a 2-D sample's items in, as `(x, y, weight, adjusted)`.
    #[inline]
    pub fn scan_2d(&mut self, items: impl Iterator<Item = (u64, u64, f64, f64)>) {
        if self.multi.is_empty() {
            self.scan_2d_with::<false>(items);
        } else {
            self.scan_2d_with::<true>(items);
        }
    }

    /// The item loop, chosen once per batch: batches without a multi-box
    /// query get a loop that holds the single-box tests alone, the others
    /// one with the multi-box fold inlined.
    #[inline(always)]
    fn scan_2d_with<const MULTI: bool>(
        &mut self,
        items: impl Iterator<Item = (u64, u64, f64, f64)>,
    ) {
        let tau = self.tau;
        for (x, y, w, a) in items {
            let light = tau > 0.0 && w < tau;
            let light_var = if light { tau * (tau - w) } else { 0.0 };
            for ((acc, &(x0, x1)), &(y0, y1)) in
                self.single_accs.iter_mut().zip(&self.b0).zip(&self.b1)
            {
                if x0 <= x && x <= x1 && y0 <= y && y <= y1 {
                    acc.add_classified(a, tau, light, light_var);
                }
            }
            if MULTI {
                self.index.fold_2d(x, y, a, tau, light, light_var);
            }
        }
    }

    /// Folds a 1-D sample's items in, as `(key, weight, adjusted)`.
    #[inline]
    pub fn scan_1d(&mut self, items: impl Iterator<Item = (u64, f64, f64)>) {
        if self.multi.is_empty() {
            self.scan_1d_with::<false>(items);
        } else {
            self.scan_1d_with::<true>(items);
        }
    }

    /// [`Self::scan_2d_with`] for 1-D items.
    #[inline(always)]
    fn scan_1d_with<const MULTI: bool>(&mut self, items: impl Iterator<Item = (u64, f64, f64)>) {
        let tau = self.tau;
        for (k, w, a) in items {
            let light = tau > 0.0 && w < tau;
            let light_var = if light { tau * (tau - w) } else { 0.0 };
            for (acc, &(lo, hi)) in self.single_accs.iter_mut().zip(&self.b0) {
                if lo <= k && k <= hi {
                    acc.add_classified(a, tau, light, light_var);
                }
            }
            if MULTI {
                self.index.fold_1d(k, a, tau, light, light_var);
            }
        }
    }

    /// Finishes every query's accumulator at `confidence`, in query order.
    pub fn finish(self, confidence: f64) -> Result<Vec<Estimate>, QueryError> {
        let mut accs = vec![SampleAccumulator::default(); self.queries];
        for (&qi, acc) in self.single.iter().zip(self.single_accs) {
            accs[qi] = acc;
        }
        for (&qi, acc) in self.multi.iter().zip(self.index.accs) {
            accs[qi] = acc;
        }
        accs.into_iter()
            .map(|a| a.finish(self.tau, confidence))
            .collect()
    }
}

/// The flat fold the slab index replaced, kept as the reference its tests
/// compare against: every query's boxes in one array (single boxes too),
/// each item tested against every box of every query with the same OR-fold,
/// hits folded in item order. 1-D items come in as `(key, 0, weight,
/// adjusted)`.
#[cfg(test)]
pub(crate) fn flat_fold_reference(
    queries: &[Query],
    dims: usize,
    tau: f64,
    items: impl Iterator<Item = (u64, u64, f64, f64)>,
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    let mut boxes = Vec::new();
    let mut ends = Vec::new();
    for q in queries {
        boxes.extend(q.boxes(dims)?.iter().map(|axes| flat_box(axes, dims == 2)));
        ends.push(boxes.len());
    }
    let mut accs = vec![SampleAccumulator::default(); queries.len()];
    for (x, y, w, a) in items {
        let light = tau > 0.0 && w < tau;
        let light_var = if light { tau * (tau - w) } else { 0.0 };
        let mut start = 0;
        for (acc, &end) in accs.iter_mut().zip(&ends) {
            let hit = boxes[start..end]
                .iter()
                .fold(false, |hit, &[x0, x1, y0, y1]| {
                    hit | ((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
                });
            if hit {
                acc.add_classified(a, tau, light, light_var);
            }
            start = end;
        }
    }
    accs.into_iter()
        .map(|a| a.finish(tau, confidence))
        .collect()
}

/// A box normalized to `dims` axes as `[x0, x1, y0, y1]`; 1-D boxes get
/// `y = [0, 0]`, which the 1-D fold never reads.
fn flat_box(axes: &[(u64, u64)], two_dim: bool) -> [u64; 4] {
    let (y0, y1) = if two_dim { axes[1] } else { (0, 0) };
    [axes[0].0, axes[0].1, y0, y1]
}

/// The boxes of a batch's multi-box queries, cut into `K` slabs along
/// axis 0.
///
/// The cuts sit at quantiles of the distinct box endpoints (`x0` and
/// `x1 + 1`, saturating), so slab `s` is `[cuts[s - 1], cuts[s])`, slab 0
/// starts at 0 and the last slab runs through `u64::MAX`. Each box is
/// registered in every slab its `[x0, x1]` meets; inside a slab the layout
/// is the flat one — a query's registered boxes back to back, in the
/// query's order, closed by a `(query, end)` run, runs in query order. One
/// slab is the flat layout itself.
///
/// `K` comes from the batch: it starts at `⌈√B⌉` for `B` boxes, capped at
/// the number of distinct endpoints, and halves while the registrations
/// exceed `4·B`, so the index never holds more than four copies of the
/// flat box array — not even when every box spans all of axis 0.
#[derive(Default)]
struct SlabIndex {
    /// The lower edges of slabs `1..K`, strictly increasing.
    cuts: Vec<u64>,
    /// Slab `s` owns `runs[slabs[s].0..slabs[s + 1].0]` and the boxes from
    /// `slabs[s].1` on; one trailing sentinel.
    slabs: Vec<(usize, usize)>,
    /// `(multi-box query, end offset in boxes)` of each run.
    runs: Vec<(usize, usize)>,
    /// Registered boxes, slab by slab: `[x0, x1, y0, y1]`.
    boxes: Vec<[u64; 4]>,
    /// One accumulator per multi-box query.
    accs: Vec<SampleAccumulator>,
}

impl SlabIndex {
    /// Indexes `flat`, whose query `q` owns the boxes up to `ends[q]`.
    fn build(flat: &[[u64; 4]], ends: &[usize]) -> SlabIndex {
        if flat.is_empty() {
            return SlabIndex::default();
        }
        let b = flat.len();
        let mut endpoints: Vec<u64> = flat
            .iter()
            .flat_map(|&[x0, x1, ..]| [x0, x1.saturating_add(1)])
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let mut k = ((b as f64).sqrt().ceil() as usize)
            .min(endpoints.len())
            .max(1);
        let cuts = loop {
            // `i·D/K` rises by at least one per step while `K ≤ D`, so the
            // cuts are distinct.
            let cuts: Vec<u64> = (1..k).map(|i| endpoints[i * endpoints.len() / k]).collect();
            let registrations: usize = flat
                .iter()
                .map(|&[x0, x1, ..]| slab_of(&cuts, x1) - slab_of(&cuts, x0) + 1)
                .sum();
            if k == 1 || registrations <= 4 * b {
                break cuts;
            }
            k /= 2;
        };
        // Each slab's members in flat order: by query, then by box.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &[x0, x1, ..]) in flat.iter().enumerate() {
            for slab in &mut members[slab_of(&cuts, x0)..=slab_of(&cuts, x1)] {
                slab.push(i);
            }
        }
        let mut query_of = Vec::with_capacity(b);
        for (q, &end) in ends.iter().enumerate() {
            query_of.resize(end, q);
        }
        let mut index = SlabIndex {
            cuts,
            slabs: Vec::with_capacity(k + 1),
            runs: Vec::new(),
            boxes: Vec::with_capacity(members.iter().map(Vec::len).sum()),
            accs: vec![SampleAccumulator::default(); ends.len()],
        };
        for slab in &members {
            let first_run = index.runs.len();
            index.slabs.push((first_run, index.boxes.len()));
            for &i in slab {
                index.boxes.push(flat[i]);
                let end = index.boxes.len();
                match index.runs[first_run..].last_mut() {
                    Some((q, run_end)) if *q == query_of[i] => *run_end = end,
                    _ => index.runs.push((query_of[i], end)),
                }
            }
        }
        index.slabs.push((index.runs.len(), index.boxes.len()));
        index
    }

    /// Folds a 2-D item into every multi-box query with a box holding it.
    #[inline(always)]
    fn fold_2d(&mut self, x: u64, y: u64, a: f64, tau: f64, light: bool, light_var: f64) {
        let s = slab_of(&self.cuts, x);
        let (first_run, mut start) = self.slabs[s];
        for &(q, end) in &self.runs[first_run..self.slabs[s + 1].0] {
            let hit = self.boxes[start..end]
                .iter()
                .fold(false, |hit, &[x0, x1, y0, y1]| {
                    hit | ((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
                });
            if hit {
                self.accs[q].add_classified(a, tau, light, light_var);
            }
            start = end;
        }
    }

    /// [`Self::fold_2d`] for a 1-D item (key `k`).
    #[inline(always)]
    fn fold_1d(&mut self, k: u64, a: f64, tau: f64, light: bool, light_var: f64) {
        let s = slab_of(&self.cuts, k);
        let (first_run, mut start) = self.slabs[s];
        for &(q, end) in &self.runs[first_run..self.slabs[s + 1].0] {
            let hit = self.boxes[start..end]
                .iter()
                .fold(false, |hit, &[lo, hi, ..]| hit | ((lo <= k) & (k <= hi)));
            if hit {
                self.accs[q].add_classified(a, tau, light, light_var);
            }
            start = end;
        }
    }
}

/// The slab holding `x`: the number of cuts at or below it, counted over
/// every cut without a branch. There are fewer than `⌈√B⌉` cuts, and for
/// the few cuts of small batches a binary search's loop costs more than
/// the whole count.
#[inline(always)]
fn slab_of(cuts: &[u64], x: u64) -> usize {
    cuts.iter().map(|&c| usize::from(c <= x)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_fixtures() -> Vec<Query> {
        vec![
            Query::interval(10, 99),
            Query::BoxRange(vec![(0, 31), (16, 47)]),
            Query::MultiRange(vec![vec![(0, 9)], vec![(20, 29)], vec![(40, 49)]]),
            Query::Point(vec![42]),
            Query::Point(vec![3, 7]),
            Query::HierarchyNode { level: 4, index: 3 },
            Query::Total,
        ]
    }

    #[test]
    fn queries_roundtrip_through_frames() {
        for q in query_fixtures() {
            let bytes = encode_query(&q);
            assert_eq!(decode_query(&bytes).unwrap(), q, "{q}");
        }
    }

    #[test]
    fn estimate_roundtrips_through_frames() {
        let e = Estimate {
            value: 12.5,
            variance: 3.25,
            lower: 8.0,
            upper: 20.0,
            confidence: 0.95,
        };
        let bytes = encode_estimate(&e);
        assert_eq!(decode_estimate(&bytes).unwrap(), e);
        assert_eq!(e.half_width(), 6.0);
    }

    #[test]
    fn canonical_folds_equivalent_spellings() {
        // Full-domain spellings all collapse to Total.
        for q in [
            Query::BoxRange(vec![]),
            Query::BoxRange(vec![(0, u64::MAX)]),
            Query::BoxRange(vec![(0, u64::MAX), (0, u64::MAX)]),
            Query::HierarchyNode {
                level: 64,
                index: 0,
            },
            Query::MultiRange(vec![vec![(0, u64::MAX)]]),
        ] {
            assert_eq!(q.canonical().unwrap(), Query::Total, "{q:?}");
        }
        // Point = degenerate box; node = its span.
        assert_eq!(
            Query::Point(vec![5, 9]).canonical().unwrap(),
            Query::BoxRange(vec![(5, 5), (9, 9)])
        );
        assert_eq!(
            Query::HierarchyNode { level: 3, index: 2 }
                .canonical()
                .unwrap(),
            Query::BoxRange(vec![(16, 23)])
        );
        // Multi-range boxes sort canonically.
        let a = Query::MultiRange(vec![vec![(40, 49)], vec![(0, 9)]]);
        let b = Query::MultiRange(vec![vec![(0, 9)], vec![(40, 49)]]);
        assert_eq!(a.canonical_bytes().unwrap(), b.canonical_bytes().unwrap());
        // …and the canonical bytes of distinct queries differ.
        assert_ne!(
            Query::interval(0, 5).canonical_bytes().unwrap(),
            Query::interval(0, 6).canonical_bytes().unwrap()
        );
    }

    #[test]
    fn invalid_queries_rejected() {
        for q in [
            Query::BoxRange(vec![(9, 3)]),
            Query::Point(vec![]),
            Query::HierarchyNode {
                level: 65,
                index: 0,
            },
            Query::HierarchyNode {
                level: 64,
                index: 1,
            },
            Query::HierarchyNode {
                level: 60,
                index: 16,
            },
            Query::MultiRange(vec![]),
            Query::MultiRange(vec![vec![(0, 10)], vec![(10, 20)]]), // overlap at 10
            Query::MultiRange(vec![vec![(0, 10), (0, 5)], vec![(5, 20)]]), // y-full overlaps
        ] {
            assert!(q.canonical().is_err(), "{q:?} must be rejected");
        }
        // Disjoint on one axis is enough.
        let ok = Query::MultiRange(vec![vec![(0, 10), (0, 5)], vec![(0, 10), (6, 9)]]);
        assert!(ok.canonical().is_ok());
    }

    #[test]
    fn boxes_normalize_to_dims() {
        let q = Query::interval(5, 9);
        assert_eq!(q.boxes(1).unwrap(), vec![vec![(5, 9)]]);
        assert_eq!(q.boxes(2).unwrap(), vec![vec![(5, 9), (0, u64::MAX)]]);
        // More axes than the summary has is an error.
        let q2 = Query::BoxRange(vec![(0, 1), (0, 1)]);
        assert!(q2.boxes(1).is_err());
        assert_eq!(Query::Total.boxes(2).unwrap(), vec![vec![(0, u64::MAX); 2]]);
    }

    #[test]
    fn estimate_wire_rejects_malformed_fields() {
        let enc = |f: fn(&mut Writer)| encode_frame(proto::TAG_ESTIMATE, |w| w.section(1, f));
        // Inverted interval.
        let bytes = enc(|w| {
            for v in [1.0, 0.0, 5.0, 2.0, 0.9] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // Confidence beyond 1.
        let bytes = enc(|w| {
            for v in [1.0, 0.0, 0.0, 2.0, 1.5] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // NaN value.
        let bytes = enc(|w| {
            w.put_f64(f64::NAN);
            for v in [0.0, 0.0, 2.0, 0.5] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // A query frame is not an estimate.
        assert!(matches!(
            decode_estimate(&encode_query(&Query::Total)),
            Err(CodecError::UnknownKind(_))
        ));
    }

    #[test]
    fn merge_disjoint_adds_components() {
        let mut a = Estimate {
            value: 10.0,
            variance: 1.0,
            lower: 8.0,
            upper: 12.0,
            confidence: 0.95,
        };
        let b = Estimate {
            value: 5.0,
            variance: 0.5,
            lower: 4.0,
            upper: 7.0,
            confidence: 0.99,
        };
        a.merge_disjoint(&b);
        assert_eq!(a.value, 15.0);
        assert_eq!(a.variance, 1.5);
        assert_eq!(a.lower, 12.0);
        assert_eq!(a.upper, 19.0);
        assert_eq!(a.confidence, 0.95);
    }

    #[test]
    fn display_renders_the_cli_spelling() {
        for (q, text) in [
            (Query::interval(5, 9), "5..9"),
            (Query::BoxRange(vec![(0, 3), (4, 7)]), "0..3,4..7"),
            (
                Query::MultiRange(vec![vec![(0, 1)], vec![(5, 6)]]),
                "0..1;5..6",
            ),
            (Query::Point(vec![3, 7]), "point 3,7"),
            (Query::HierarchyNode { level: 4, index: 3 }, "node 4/3"),
            (Query::Total, "total"),
        ] {
            assert_eq!(q.to_string(), text);
        }
    }

    #[test]
    fn batch_validates_up_front_and_preserves_order() {
        let queries = vec![Query::interval(0, 9), Query::Total];
        let batch = QueryBatch::new(queries.clone(), 0.9).unwrap();
        assert_eq!(batch.queries(), &queries[..]);
        assert_eq!(batch.confidence(), 0.9);
        // A malformed member fails construction, naming the problem.
        let err = QueryBatch::new(vec![Query::BoxRange(vec![(7, 2)])], 0.9).unwrap_err();
        assert!(err.to_string().contains("reversed"), "{err}");
        // So does an out-of-range confidence (NaN included).
        for c in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                QueryBatch::new(vec![Query::Total], c),
                Err(QueryError::BadConfidence(_))
            ));
        }
        assert!(QueryBatch::new(vec![Query::Total], 1.0).is_ok());
    }

    #[test]
    fn hierarchy_node_edges() {
        // Level 0 is a single key.
        assert_eq!(
            Query::HierarchyNode { level: 0, index: 9 }
                .canonical()
                .unwrap(),
            Query::BoxRange(vec![(9, 9)])
        );
        // Top valid index at a level.
        let top = Query::HierarchyNode {
            level: 62,
            index: 3,
        };
        let Query::BoxRange(axes) = top.canonical().unwrap() else {
            panic!("node canonicalizes to a box");
        };
        assert_eq!(axes[0].1, u64::MAX);
        // Level 63, index 1 covers the upper half exactly.
        assert_eq!(
            Query::HierarchyNode {
                level: 63,
                index: 1
            }
            .canonical()
            .unwrap(),
            Query::BoxRange(vec![(1u64 << 63, u64::MAX)])
        );
    }

    #[test]
    fn sample_accumulator_exact_when_no_light_keys() {
        let mut acc = SampleAccumulator::default();
        acc.add(10.0, 10.0, 4.0);
        acc.add(6.0, 6.0, 4.0);
        let e = acc.finish(4.0, 0.9).unwrap();
        assert_eq!(e, Estimate::exact(16.0));
        // τ = 0 (exact summary) is exact regardless of confidence.
        let mut acc = SampleAccumulator::default();
        acc.add(3.0, 3.0, 0.0);
        assert_eq!(acc.finish(0.0, 0.5).unwrap(), Estimate::exact(3.0));
    }

    #[test]
    fn sample_accumulator_bounds_contain_value() {
        let mut acc = SampleAccumulator::default();
        acc.add(10.0, 10.0, 4.0); // heavy
        acc.add(1.0, 4.0, 4.0); // light, inflated to τ
        acc.add(2.0, 4.0, 4.0); // light
        let e = acc.finish(4.0, 0.9).unwrap();
        assert_eq!(e.value, 18.0);
        assert!(e.lower <= e.value && e.value <= e.upper);
        assert!(e.lower >= 10.0, "heavy part is certain: {}", e.lower);
        assert_eq!(e.variance, 4.0 * 3.0 + 4.0 * 2.0);
        assert_eq!(e.confidence, 0.9);
        // Bad confidence is rejected when bounds are actually needed.
        let mut acc = SampleAccumulator::default();
        acc.add(1.0, 4.0, 4.0);
        assert!(matches!(
            acc.finish(4.0, 1.0),
            Err(QueryError::BadConfidence(_))
        ));
    }

    /// `count` multi-range queries of `per` random boxes each, disjoint
    /// inside a query (one box per column of a `per`-column grid over a
    /// `2^16` square; 1-D keeps the `x` side), as the paper's uniform-area
    /// batteries are.
    fn grid_battery(count: u64, per: u64, dims: usize) -> Vec<Query> {
        let span = 1u64 << 16;
        let cell = span / per;
        let mix = |mut z: u64| {
            z = (z ^ (z >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^ (z >> 29)
        };
        (0..count)
            .map(|q| {
                Query::MultiRange(
                    (0..per)
                        .map(|c| {
                            let r = mix(q * 1000 + c + 1);
                            let x0 = c * cell + r % cell;
                            let x1 = x0 + (r >> 20) % (c * cell + cell - x0);
                            let y0 = (r >> 40) % span;
                            let y = (y0, y0 + (r >> 8) % (span - y0));
                            [(x0, x1), y][..dims].to_vec()
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn index_of(queries: &[Query], dims: usize) -> SlabIndex {
        SampleScan::new(queries, dims, 1.0).unwrap().index
    }

    /// Every box holding `x` sits in `x`'s slab, in its query's run.
    fn assert_holds_every_hit(index: &SlabIndex, queries: &[Query], dims: usize, x: u64) {
        let s = slab_of(&index.cuts, x);
        let (first_run, mut start) = index.slabs[s];
        let mut registered: Vec<(usize, [u64; 4])> = Vec::new();
        for &(q, end) in &index.runs[first_run..index.slabs[s + 1].0] {
            registered.extend(index.boxes[start..end].iter().map(|&b| (q, b)));
            start = end;
        }
        let multi = queries.iter().filter(|q| q.boxes(dims).unwrap().len() > 1);
        for (q, query) in multi.enumerate() {
            for axes in query.boxes(dims).unwrap() {
                let b = flat_box(&axes, dims == 2);
                if b[0] <= x && x <= b[1] {
                    assert!(registered.contains(&(q, b)), "x={x}: {b:?} of query {q}");
                }
            }
        }
    }

    #[test]
    fn slab_index_sizes_itself_from_the_batch() {
        // The paper-offline shape: 50 queries of 25 boxes.
        let queries = grid_battery(50, 25, 2);
        let index = index_of(&queries, 2);
        let b = 1250;
        assert!(index.cuts.len() < 36, "K starts at ceil(sqrt(B)) = 36");
        assert!(
            index.cuts.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            index.cuts
        );
        assert!(
            index.boxes.len() <= 4 * b,
            "{} registrations",
            index.boxes.len()
        );
        assert_eq!(index.slabs.len(), index.cuts.len() + 2);
        assert_eq!(index.accs.len(), 50);
        // Boxes spanning all of axis 0: K halves down to the 4·B budget.
        let mut spanning: Vec<Query> = (0..20u64)
            .map(|q| {
                Query::MultiRange(
                    (0..5u64)
                        .map(|j| vec![(0, u64::MAX), (q * 100 + j * 10, q * 100 + j * 10 + 5)])
                        .collect(),
                )
            })
            .collect();
        spanning.extend(grid_battery(4, 25, 2));
        let index = index_of(&spanning, 2);
        let b = 200;
        assert!(
            index.boxes.len() <= 4 * b,
            "{} registrations",
            index.boxes.len()
        );
        assert!(index.cuts.len() < 4, "{} slabs", index.cuts.len() + 1);
        // No multi-box query: an empty index; one distinct x range: one
        // slab holding the flat layout.
        assert!(index_of(&[Query::interval(0, 9), Query::Total], 1)
            .slabs
            .is_empty());
        let same_x = [Query::MultiRange(vec![
            vec![(5, 5), (0, 3)],
            vec![(5, 5), (9, 9)],
        ])];
        let index = index_of(&same_x, 2);
        assert_eq!(index.runs, vec![(0, 2)]);
    }

    #[test]
    fn slab_index_holds_every_box_in_every_slab_it_meets() {
        for dims in [1, 2] {
            let mut queries = grid_battery(12, 25, dims);
            queries.push(Query::MultiRange(vec![
                vec![(0, 0)],
                vec![(u64::MAX, u64::MAX)],
            ]));
            queries.push(Query::MultiRange(vec![
                vec![(1, 9)],
                vec![(10, u64::MAX - 1)],
            ]));
            queries.push(Query::interval(3, 70_000));
            let index = index_of(&queries, dims);
            let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
            for &c in &index.cuts {
                probes.extend([c.wrapping_sub(1), c, c.wrapping_add(1)]);
            }
            probes.extend((0..200u64).map(|i| i * 331));
            for x in probes {
                assert_holds_every_hit(&index, &queries, dims, x);
            }
        }
    }

    #[test]
    fn canonical_scales_to_the_box_cap() {
        // 4,096 disjoint intervals (the cap), given out of order.
        let intervals: Vec<Vec<(u64, u64)>> = (0..MAX_QUERY_BOXES as u64)
            .rev()
            .map(|i| vec![(i * 10, i * 10 + 4)])
            .collect();
        let Query::MultiRange(sorted) = Query::MultiRange(intervals).canonical().unwrap() else {
            panic!("4,096 boxes stay a multi-range");
        };
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        // A 64 × 64 grid of 2-D boxes.
        let grid: Vec<Vec<(u64, u64)>> = (0..64u64)
            .flat_map(|i| (0..64u64).map(move |j| vec![(i * 8, i * 8 + 7), (j * 8, j * 8 + 6)]))
            .collect();
        assert!(Query::MultiRange(grid).canonical().is_ok());
    }

    #[test]
    fn canonical_rejects_overlaps_that_sorting_separates() {
        // Sorted by axis 0 the overlapping pair is not adjacent: the box
        // between them is disjoint from both on axis 1.
        let q = Query::MultiRange(vec![
            vec![(0, 100), (0, 0)],
            vec![(10, 10), (5, 5)],
            vec![(50, 50), (0, 0)],
        ]);
        let err = q.canonical().unwrap_err().to_string();
        assert!(
            err.contains("[(0, 100), (0, 0)] and [(50, 50), (0, 0)] overlap"),
            "{err}"
        );
        // A box with no axes is full-domain and overlaps everything.
        let q = Query::MultiRange(vec![vec![(7, 9)], vec![], vec![(20, 30)]]);
        assert!(q.canonical().is_err());
        // Touching on axis 0 but apart on axis 1 is disjoint.
        let q = Query::MultiRange(vec![vec![(0, 10), (0, 4)], vec![(10, 20), (5, 9)]]);
        assert!(q.canonical().is_ok());
    }
}
