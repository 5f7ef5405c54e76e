//! [`SegmentSummary`] — a zero-copy [`Summary`] served straight from v2
//! segment bytes (see `sas_codec::segment` for the byte layout).
//!
//! A v1 frame must be *decoded* into an owned [`StoredSample`] or
//! [`VarOptSampler`] before it can answer anything; a segment's column runs
//! **are** the query representation. [`SegmentSummary::open`] validates the
//! bytes once (checksum, layout, and every invariant the v1 decoder would
//! enforce), and from then on `answer` / `answer_batch` scan the columns in
//! place — the store keeps cold windows as `mmap`ed segments and serves
//! Estimate queries off the page cache without ever materializing the
//! summary on the heap.
//!
//! ## Bit-identity contract
//!
//! The sample twin runs the **same kernel** as the owned
//! `StoredSample::answer_batch`: both compile their queries into one
//! `query::SampleScan` and feed it the item columns in item order. Single
//! boxes sit in per-axis bound arrays. The boxes of the multi-box queries
//! sit in an index of slabs along axis 0: each box is registered in every
//! slab its `[x0, x1]` meets, and an item is tested, with a branchless
//! OR-fold over each query's boxes, against its own slab's boxes only.
//! Hits are unchanged: a box that holds the item meets the item's slab, so
//! the fold over a query's boxes in that slab gives the same hit bit as the
//! fold over all of them, and every query still folds its hits in item
//! order. The VarOpt twin **mirrors** the owned
//! `VarOptSampler::answer_batch` operation for operation: same item order,
//! same accumulation, same finish. Columns hold the same little-endian
//! words the v1 wire carries, so every float travels and folds identically
//! and the answers are bit-identical to decoding the v1 frame and asking
//! it — pinned by the multi-seed property tests at the bottom of this
//! file, whose fixtures include a 25-box 2-D and a 30-interval 1-D
//! multi-range, and which check both twins against the flat fold the slab
//! index replaced on batches built to hit the index's edges. When one side
//! changes, change the other.
//!
//! Merging is the one thing a segment cannot do in place:
//! [`SegmentSummary::hydrate`] rebuilds the owned summary (the store calls
//! it on the merge and compaction paths only).

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use rand::RngCore;

use sas_codec::segment::{SegmentBuilder, SegmentView};
use sas_codec::{CodecError, Writer};
use sas_core::varopt::VarOptSampler;
use sas_core::KeyId;

use crate::erased::{answer_one, in_interval, SummaryError};
use crate::query::{Estimate, Query, QueryError, SampleScan};
use crate::stored::StoredSample;
use crate::{Summary, SummaryKind};

/// Shared immutable bytes a segment view borrows from — an owned buffer or
/// an `mmap`ed file (the store's `Mapped` implements `AsRef<[u8]>`).
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

// Column ids for the sample layout (kind tag 1). Meta packs the section-1
// scalars of the v1 frame as 8-byte words: `[dims: u64, tau: f64 bits]`.
/// Sample meta column: `[dims, tau bits]`.
pub const COL_SAMPLE_META: u32 = 1;
/// Sample key column.
pub const COL_SAMPLE_KEYS: u32 = 2;
/// Sample original-weight column.
pub const COL_SAMPLE_WEIGHTS: u32 = 3;
/// Sample HT adjusted-weight column.
pub const COL_SAMPLE_ADJUSTED: u32 = 4;
/// Sample x-coordinate column (count 0 for 1-D).
pub const COL_SAMPLE_XS: u32 = 5;
/// Sample y-coordinate column (count 0 for 1-D).
pub const COL_SAMPLE_YS: u32 = 6;

// Column ids for the VarOpt layout (kind tag 2). Meta is
// `[capacity: u64, tau: f64 bits, count: u64, total_weight: f64 bits]`.
/// VarOpt meta column: `[capacity, tau bits, count, total_weight bits]`.
pub const COL_VAROPT_META: u32 = 1;
/// VarOpt large-partition key column (heap order).
pub const COL_VAROPT_LARGE_KEYS: u32 = 2;
/// VarOpt large-partition weight column, aligned with the keys.
pub const COL_VAROPT_LARGE_WEIGHTS: u32 = 3;
/// VarOpt small-partition key column.
pub const COL_VAROPT_SMALL_KEYS: u32 = 4;

/// Encodes a summary into v2 segment bytes, if its kind has a segment
/// layout (finished samples and VarOpt reservoirs — the store's two
/// stored-sample kinds). Returns `None` for the deterministic kinds, which
/// stay on the v1 frame format.
pub fn encode_segment(s: &dyn Summary) -> Option<Vec<u8>> {
    if let Some(s) = s.as_any().downcast_ref::<StoredSample>() {
        let mut b = SegmentBuilder::new(SummaryKind::Sample.tag());
        b.column_u64(COL_SAMPLE_META, [s.dims() as u64, s.tau().to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, s.keys().iter().copied());
        b.column_f64(COL_SAMPLE_WEIGHTS, s.weights().iter().copied());
        b.column_f64(COL_SAMPLE_ADJUSTED, s.adjusted_weights().iter().copied());
        b.column_u64(COL_SAMPLE_XS, s.xs().iter().copied());
        b.column_u64(COL_SAMPLE_YS, s.ys().iter().copied());
        return Some(b.finish());
    }
    if let Some(v) = s.as_any().downcast_ref::<VarOptSampler>() {
        let mut b = SegmentBuilder::new(SummaryKind::VarOptReservoir.tag());
        b.column_u64(
            COL_VAROPT_META,
            [
                v.capacity() as u64,
                v.tau().to_bits(),
                v.count() as u64,
                v.total_weight().to_bits(),
            ],
        );
        b.column_u64(COL_VAROPT_LARGE_KEYS, v.large_entries().map(|(k, _)| k));
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, v.large_entries().map(|(_, w)| w));
        b.column_u64(COL_VAROPT_SMALL_KEYS, v.small_keys().iter().copied());
        return Some(b.finish());
    }
    None
}

/// A byte range inside the segment, proven in-bounds at open time.
#[derive(Debug, Clone, Copy)]
struct Col {
    start: usize,
    end: usize,
}

impl Col {
    fn of(entry: &sas_codec::segment::SectionEntry) -> Self {
        Self {
            start: entry.offset as usize,
            end: (entry.offset + entry.len) as usize,
        }
    }

    fn count(&self) -> usize {
        (self.end - self.start) / 8
    }

    fn slice<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.start..self.end]
    }
}

/// Iterates a column run as little-endian `u64`s.
fn u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
}

/// Iterates a column run as `f64` bit patterns.
fn f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    u64s(bytes).map(f64::from_bits)
}

/// The validated column layout of one segment.
#[derive(Debug, Clone)]
enum Layout {
    Sample {
        dims: usize,
        tau: f64,
        total: f64,
        keys: Col,
        weights: Col,
        adjusted: Col,
        xs: Col,
        ys: Col,
    },
    VarOpt {
        capacity: usize,
        tau: f64,
        count: usize,
        total_weight: f64,
        total: f64,
        large_keys: Col,
        large_weights: Col,
        small_keys: Col,
    },
}

/// A summary served in place from v2 segment bytes (module docs above).
#[derive(Clone)]
pub struct SegmentSummary {
    bytes: SharedBytes,
    layout: Layout,
}

impl fmt::Debug for SegmentSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentSummary")
            .field("bytes", &self.data().len())
            .field("layout", &self.layout)
            .finish()
    }
}

fn section(
    view: &SegmentView<'_>,
    id: u32,
) -> Result<sas_codec::segment::SectionEntry, CodecError> {
    view.sections()
        .iter()
        .find(|e| e.id == id)
        .copied()
        .ok_or_else(|| CodecError::Invalid(format!("missing segment section {id}")))
}

impl SegmentSummary {
    /// Opens a segment over shared bytes: one full validation pass
    /// (checksum, table, and every invariant the v1 decoder enforces —
    /// including that [`SegmentSummary::hydrate`] cannot fail later), then
    /// queries read the columns in place. Never panics on corrupted,
    /// truncated, or forged input.
    pub fn open(bytes: SharedBytes) -> Result<Self, CodecError> {
        let layout = Self::validate((*bytes).as_ref())?;
        Ok(Self { bytes, layout })
    }

    /// [`SegmentSummary::open`] over an owned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, CodecError> {
        Self::open(Arc::new(bytes))
    }

    fn validate(b: &[u8]) -> Result<Layout, CodecError> {
        let view = SegmentView::parse(b)?;
        match SummaryKind::from_tag(view.kind()) {
            Some(SummaryKind::Sample) => Self::validate_sample(b, &view),
            Some(SummaryKind::VarOptReservoir) => Self::validate_varopt(b, &view),
            Some(kind) => Err(CodecError::Invalid(format!(
                "summary kind {kind} has no segment layout"
            ))),
            None => Err(CodecError::UnknownKind(view.kind())),
        }
    }

    fn validate_sample(b: &[u8], view: &SegmentView<'_>) -> Result<Layout, CodecError> {
        let meta = view.column(COL_SAMPLE_META).ok_or_else(|| {
            CodecError::Invalid(format!("missing segment section {COL_SAMPLE_META}"))
        })?;
        if meta.count() != 2 {
            return Err(CodecError::Invalid(format!(
                "sample meta holds {} words, expected 2",
                meta.count()
            )));
        }
        let dims = meta.u64_at(0).expect("count 2") as usize;
        let tau = meta.f64_at(1).expect("count 2");
        if dims != 1 && dims != 2 {
            return Err(CodecError::Invalid(format!("unsupported dims {dims}")));
        }
        if !(tau.is_finite() && tau >= 0.0) {
            return Err(CodecError::Invalid(format!("invalid threshold {tau}")));
        }
        let keys = Col::of(&section(view, COL_SAMPLE_KEYS)?);
        let weights = Col::of(&section(view, COL_SAMPLE_WEIGHTS)?);
        let adjusted = Col::of(&section(view, COL_SAMPLE_ADJUSTED)?);
        let xs = Col::of(&section(view, COL_SAMPLE_XS)?);
        let ys = Col::of(&section(view, COL_SAMPLE_YS)?);
        let n = keys.count();
        if weights.count() != n || adjusted.count() != n {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {n} keys, {} weights, {} adjusted",
                weights.count(),
                adjusted.count()
            )));
        }
        let expected = if dims == 2 { n } else { 0 };
        if xs.count() != expected || ys.count() != expected {
            return Err(CodecError::Invalid(format!(
                "{} locations for {expected} expected",
                xs.count().max(ys.count())
            )));
        }
        for (w, a) in f64s(weights.slice(b)).zip(f64s(adjusted.slice(b))) {
            if !(w.is_finite() && a.is_finite() && w >= 0.0 && a >= 0.0) {
                return Err(CodecError::Invalid(format!(
                    "invalid weight pair ({w}, {a})"
                )));
            }
        }
        // Mirrors `StoredSample::total_estimate` (same fold order).
        let total = f64s(adjusted.slice(b)).sum();
        Ok(Layout::Sample {
            dims,
            tau,
            total,
            keys,
            weights,
            adjusted,
            xs,
            ys,
        })
    }

    fn validate_varopt(b: &[u8], view: &SegmentView<'_>) -> Result<Layout, CodecError> {
        let meta = view.column(COL_VAROPT_META).ok_or_else(|| {
            CodecError::Invalid(format!("missing segment section {COL_VAROPT_META}"))
        })?;
        if meta.count() != 4 {
            return Err(CodecError::Invalid(format!(
                "varopt meta holds {} words, expected 4",
                meta.count()
            )));
        }
        let capacity = meta.u64_at(0).expect("count 4") as usize;
        let tau = meta.f64_at(1).expect("count 4");
        let count = meta.u64_at(2).expect("count 4") as usize;
        let total_weight = meta.f64_at(3).expect("count 4");
        let large_keys = Col::of(&section(view, COL_VAROPT_LARGE_KEYS)?);
        let large_weights = Col::of(&section(view, COL_VAROPT_LARGE_WEIGHTS)?);
        let small_keys = Col::of(&section(view, COL_VAROPT_SMALL_KEYS)?);
        if large_weights.count() != large_keys.count() {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {} large keys, {} large weights",
                large_keys.count(),
                large_weights.count()
            )));
        }
        // Reassembling through `from_parts` enforces every reservoir
        // invariant (heap order, weights vs threshold, counts) — and proves
        // `hydrate` cannot fail on these bytes.
        let large: Vec<(KeyId, f64)> = u64s(large_keys.slice(b))
            .zip(f64s(large_weights.slice(b)))
            .collect();
        let small: Vec<KeyId> = u64s(small_keys.slice(b)).collect();
        VarOptSampler::from_parts(capacity, large, small, tau, count, total_weight)
            .map_err(CodecError::Invalid)?;
        // Mirrors the erased `VarOptSampler::total_estimate` (same order).
        let large_total: f64 = f64s(large_weights.slice(b)).map(|w| w.max(tau)).sum();
        let total = large_total + small_keys.count() as f64 * tau;
        Ok(Layout::VarOpt {
            capacity,
            tau,
            count,
            total_weight,
            total,
            large_keys,
            large_weights,
            small_keys,
        })
    }

    fn data(&self) -> &[u8] {
        (*self.bytes).as_ref()
    }

    /// The segment size in bytes.
    pub fn segment_len(&self) -> usize {
        self.data().len()
    }

    /// Rebuilds the owned summary from the columns — the store's merge and
    /// compaction paths call this; queries never need it. Infallible
    /// because [`SegmentSummary::open`] already enforced every decoder
    /// invariant on these bytes.
    pub fn hydrate(&self) -> Box<dyn Summary> {
        let b = self.data();
        match &self.layout {
            Layout::Sample {
                dims,
                tau,
                keys,
                weights,
                adjusted,
                xs,
                ys,
                ..
            } => Box::new(StoredSample::from_columns(
                u64s(keys.slice(b)).collect(),
                f64s(weights.slice(b)).collect(),
                f64s(adjusted.slice(b)).collect(),
                u64s(xs.slice(b)).collect(),
                u64s(ys.slice(b)).collect(),
                *tau,
                *dims,
            )),
            Layout::VarOpt {
                capacity,
                tau,
                count,
                total_weight,
                large_keys,
                large_weights,
                small_keys,
                ..
            } => {
                let large: Vec<(KeyId, f64)> = u64s(large_keys.slice(b))
                    .zip(f64s(large_weights.slice(b)))
                    .collect();
                let small: Vec<KeyId> = u64s(small_keys.slice(b)).collect();
                Box::new(
                    VarOptSampler::from_parts(*capacity, large, small, *tau, *count, *total_weight)
                        .expect("invariants were validated when the segment was opened"),
                )
            }
        }
    }

    /// `StoredSample::answer_batch` over column bytes: the same
    /// `SampleScan` kernel fed from the columns — see the module docs for
    /// the bit-identity contract.
    #[allow(clippy::too_many_arguments)]
    fn answer_batch_sample(
        &self,
        dims: usize,
        tau: f64,
        keys: Col,
        weights: Col,
        adjusted: Col,
        xs: Col,
        ys: Col,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let b = self.data();
        let mut scan = SampleScan::new(queries, dims, tau)?;
        if dims == 2 {
            scan.scan_2d(
                u64s(xs.slice(b))
                    .zip(u64s(ys.slice(b)))
                    .zip(f64s(weights.slice(b)))
                    .zip(f64s(adjusted.slice(b)))
                    .map(|(((x, y), w), a)| (x, y, w, a)),
            );
        } else {
            scan.scan_1d(
                u64s(keys.slice(b))
                    .zip(f64s(weights.slice(b)))
                    .zip(f64s(adjusted.slice(b)))
                    .map(|((k, w), a)| (k, w, a)),
            );
        }
        scan.finish(confidence)
    }

    /// Mirror of the erased `VarOptSampler::answer_batch` over column
    /// bytes — same bit-identity contract as the sample twin.
    fn answer_batch_varopt(
        &self,
        tau: f64,
        large_keys: Col,
        large_weights: Col,
        small_keys: Col,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let b = self.data();
        let compiled: Vec<Vec<Vec<(u64, u64)>>> = queries
            .iter()
            .map(|q| q.boxes(1))
            .collect::<Result<_, _>>()?;
        let hit =
            |boxes: &[Vec<(u64, u64)>], k: KeyId| boxes.iter().any(|axes| in_interval(axes[0], k));
        let mut large_sums = vec![0.0; queries.len()];
        let mut small_counts = vec![0usize; queries.len()];
        for (k, w) in u64s(large_keys.slice(b)).zip(f64s(large_weights.slice(b))) {
            for (sum, boxes) in large_sums.iter_mut().zip(&compiled) {
                if hit(boxes, k) {
                    *sum += w.max(tau);
                }
            }
        }
        for k in u64s(small_keys.slice(b)) {
            for (count, boxes) in small_counts.iter_mut().zip(&compiled) {
                if hit(boxes, k) {
                    *count += 1;
                }
            }
        }
        large_sums
            .into_iter()
            .zip(small_counts)
            .map(|(large, small)| {
                let value = large + small as f64 * tau;
                if tau <= 0.0 || small == 0 {
                    return Ok(Estimate::exact(value));
                }
                if !(confidence > 0.0 && confidence < 1.0) {
                    return Err(QueryError::BadConfidence(confidence));
                }
                let light = small as f64 * tau;
                let (lo, hi) =
                    sas_core::bounds::weight_confidence_interval(light, tau, 1.0 - confidence);
                Ok(Estimate {
                    value,
                    variance: small as f64 * tau * tau,
                    lower: (large + lo).min(value),
                    upper: (large + hi).max(value),
                    confidence,
                })
            })
            .collect()
    }
}

impl Summary for SegmentSummary {
    fn kind(&self) -> SummaryKind {
        match self.layout {
            Layout::Sample { .. } => SummaryKind::Sample,
            Layout::VarOpt { .. } => SummaryKind::VarOptReservoir,
        }
    }

    fn dims(&self) -> usize {
        match self.layout {
            Layout::Sample { dims, .. } => dims,
            Layout::VarOpt { .. } => 1,
        }
    }

    fn item_count(&self) -> usize {
        match &self.layout {
            Layout::Sample { keys, .. } => keys.count(),
            Layout::VarOpt {
                large_keys,
                small_keys,
                ..
            } => large_keys.count() + small_keys.count(),
        }
    }

    fn total_estimate(&self) -> f64 {
        match self.layout {
            Layout::Sample { total, .. } => total,
            Layout::VarOpt { total, .. } => total,
        }
    }

    fn tau(&self) -> Option<f64> {
        match self.layout {
            Layout::Sample { tau, .. } => Some(tau),
            Layout::VarOpt { tau, .. } => Some(tau),
        }
    }

    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError> {
        answer_one(self, query, confidence)
    }

    fn answer_batch(
        &self,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        match self.layout {
            Layout::Sample {
                dims,
                tau,
                keys,
                weights,
                adjusted,
                xs,
                ys,
                ..
            } => self.answer_batch_sample(
                dims, tau, keys, weights, adjusted, xs, ys, queries, confidence,
            ),
            Layout::VarOpt {
                tau,
                large_keys,
                large_weights,
                small_keys,
                ..
            } => self.answer_batch_varopt(
                tau,
                large_keys,
                large_weights,
                small_keys,
                queries,
                confidence,
            ),
        }
    }

    fn merge_in_place(
        &mut self,
        _other: Box<dyn Summary>,
        _budget: Option<usize>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        // A segment is immutable by design; the store hydrates cold windows
        // before merging. Failing loudly here keeps that contract honest.
        Err(SummaryError::Merge(
            "segment-backed summary must be hydrated before merging".into(),
        ))
    }

    fn encode_body(&self, w: &mut Writer) {
        // Rare path (the store re-encodes only owned summaries): delegate
        // to the hydrated form so the v1 body is bit-identical to it.
        self.hydrate().encode_body(w);
    }

    fn clone_box(&self) -> Box<dyn Summary> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::flat_fold_reference;
    use crate::{decode_summary, encode_summary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sas_core::WeightedKey;
    use sas_structures::product::Point;
    use std::collections::HashMap;

    fn weighted(n: u64, seed: u64) -> Vec<WeightedKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let w = if rng.gen_bool(0.05) {
                    rng.gen_range(50.0..400.0)
                } else {
                    rng.gen_range(0.1..8.0)
                };
                WeightedKey::new(k, w)
            })
            .collect()
    }

    fn sample_fixture(seed: u64, two_dim: bool) -> StoredSample {
        let data = weighted(300, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let sample = sas_sampling::order::sample(&data, 48, &mut rng);
        if two_dim {
            let points: HashMap<u64, Point> = data
                .iter()
                .map(|wk| (wk.key, Point::xy(wk.key % 64, (wk.key * 7919) % 64)))
                .collect();
            StoredSample::two_dim(sample, points).unwrap()
        } else {
            StoredSample::one_dim(sample)
        }
    }

    fn varopt_fixture(seed: u64) -> VarOptSampler {
        let data = weighted(250, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut v = VarOptSampler::new(32);
        for wk in &data {
            v.push(wk.key, wk.weight, &mut rng);
        }
        v
    }

    fn probe_queries(two_dim: bool) -> Vec<Query> {
        if two_dim {
            vec![
                Query::Total,
                Query::BoxRange(vec![(0, 31), (0, 31)]),
                Query::BoxRange(vec![(10, 50), (5, 60)]),
                Query::Point(vec![5, 9]),
                Query::HierarchyNode { level: 4, index: 1 },
                Query::MultiRange(vec![vec![(0, 15), (0, 63)], vec![(16, 31), (0, 63)]]),
                many_boxes_2d(),
            ]
        } else {
            vec![
                Query::Total,
                Query::interval(0, 99),
                Query::interval(42, 199),
                Query::Point(vec![7]),
                Query::HierarchyNode { level: 6, index: 1 },
                Query::MultiRange(vec![vec![(0, 49)], vec![(100, 199)]]),
                many_intervals_1d(),
            ]
        }
    }

    /// 25 disjoint boxes tiling the 64 × 64 fixture square in a 5 × 5 grid
    /// with gaps — the multi-box shape the paper's experiments ask.
    fn many_boxes_2d() -> Query {
        let mut boxes = Vec::new();
        for i in 0..5u64 {
            for j in 0..5u64 {
                boxes.push(vec![(i * 13, i * 13 + 8), (j * 13 + 2, j * 13 + 10)]);
            }
        }
        Query::MultiRange(boxes)
    }

    /// 30 disjoint intervals over the 300-key fixture domain, with gaps.
    fn many_intervals_1d() -> Query {
        Query::MultiRange((0..30u64).map(|i| vec![(i * 10, i * 10 + 6)]).collect())
    }

    fn assert_estimates_bit_identical(owned: &dyn Summary, seg: &SegmentSummary, ctx: &str) {
        let queries = probe_queries(owned.dims() == 2);
        for confidence in [0.5, 0.9, 0.99] {
            let a = owned.answer_batch(&queries, confidence).unwrap();
            let b = seg.answer_batch(&queries, confidence).unwrap();
            assert_eq!(a.len(), b.len());
            for ((q, x), y) in queries.iter().zip(&a).zip(&b) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}: {q} value");
                assert_eq!(
                    x.variance.to_bits(),
                    y.variance.to_bits(),
                    "{ctx}: {q} variance"
                );
                assert_eq!(x.lower.to_bits(), y.lower.to_bits(), "{ctx}: {q} lower");
                assert_eq!(x.upper.to_bits(), y.upper.to_bits(), "{ctx}: {q} upper");
                assert_eq!(
                    x.confidence.to_bits(),
                    y.confidence.to_bits(),
                    "{ctx}: {q} confidence"
                );
            }
            // The single-answer path routes through the same batch loop.
            for q in &queries {
                let x = owned.answer(q, confidence).unwrap();
                let y = seg.answer(q, confidence).unwrap();
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}: {q} single");
            }
        }
        assert_eq!(seg.kind(), owned.kind(), "{ctx}");
        assert_eq!(seg.dims(), owned.dims(), "{ctx}");
        assert_eq!(seg.item_count(), owned.item_count(), "{ctx}");
        assert_eq!(
            seg.total_estimate().to_bits(),
            owned.total_estimate().to_bits(),
            "{ctx}"
        );
        assert_eq!(
            Summary::tau(seg).unwrap().to_bits(),
            Summary::tau(owned).unwrap().to_bits(),
            "{ctx}"
        );
    }

    #[test]
    fn view_matches_decoded_sample_across_seeds() {
        // 120 seeds, alternating 1-D and 2-D: the view path must reproduce
        // the v1-decoded answers bit for bit.
        for seed in 0..120u64 {
            let owned = sample_fixture(seed, seed % 2 == 1);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            // Answer against a *decoded* copy, exactly as the acceptance
            // bar is phrased: view vs v1 decode.
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            assert_estimates_bit_identical(decoded.as_ref(), &seg, &format!("sample seed {seed}"));
        }
    }

    #[test]
    fn view_matches_decoded_varopt_across_seeds() {
        for seed in 0..120u64 {
            let owned = varopt_fixture(seed);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            assert_estimates_bit_identical(decoded.as_ref(), &seg, &format!("varopt seed {seed}"));
        }
    }

    #[test]
    fn many_box_values_match_item_order_reference() {
        // Both twins share one slab-indexed kernel; pin its OR-fold against
        // the plain short-circuit `any` over nested boxes, in item order.
        for seed in 0..40u64 {
            let two_dim = seed % 2 == 1;
            let owned = sample_fixture(seed, two_dim);
            let query = if two_dim {
                many_boxes_2d()
            } else {
                many_intervals_1d()
            };
            let boxes = query.boxes(owned.dims()).unwrap();
            let mut reference = 0.0;
            for i in 0..owned.len() {
                let coords: Vec<u64> = if two_dim {
                    vec![owned.xs()[i], owned.ys()[i]]
                } else {
                    vec![owned.keys()[i]]
                };
                let hit = boxes.iter().any(|axes| {
                    axes.iter()
                        .zip(&coords)
                        .all(|(&axis, &c)| in_interval(axis, c))
                });
                if hit {
                    reference += owned.adjusted_weights()[i];
                }
            }
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            for s in [&owned as &dyn Summary, &seg] {
                let value = s.answer(&query, 0.9).unwrap().value;
                assert_eq!(value.to_bits(), reference.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn hydrate_reproduces_v1_bytes() {
        for seed in [3u64, 4] {
            let sample = sample_fixture(seed, seed % 2 == 0);
            let seg = SegmentSummary::from_vec(encode_segment(&sample).unwrap()).unwrap();
            assert_eq!(
                encode_summary(seg.hydrate().as_ref()),
                encode_summary(&sample)
            );
            let varopt = varopt_fixture(seed);
            let seg = SegmentSummary::from_vec(encode_segment(&varopt).unwrap()).unwrap();
            assert_eq!(
                encode_summary(seg.hydrate().as_ref()),
                encode_summary(&varopt)
            );
        }
    }

    #[test]
    fn encode_body_matches_hydrated_frame() {
        let sample = sample_fixture(9, true);
        let seg = SegmentSummary::from_vec(encode_segment(&sample).unwrap()).unwrap();
        assert_eq!(encode_summary(&seg), encode_summary(&sample));
    }

    #[test]
    fn empty_sample_segment_answers_exact_zero() {
        let owned = StoredSample::one_dim(sas_core::estimate::Sample::from_entries(vec![], 0.0));
        let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
        assert_eq!(seg.item_count(), 0);
        let e = seg.answer(&Query::Total, 0.9).unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.confidence, 1.0);
    }

    #[test]
    fn merge_requires_hydration() {
        let owned = sample_fixture(1, false);
        let mut seg: Box<dyn Summary> =
            Box::new(SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(seg
            .merge_in_place(Box::new(sample_fixture(2, false)), None, &mut rng)
            .is_err());
        // Hydrating first makes the same merge succeed.
        let hydrated = seg
            .as_any()
            .downcast_ref::<SegmentSummary>()
            .unwrap()
            .hydrate();
        let mut hydrated = hydrated;
        assert!(hydrated
            .merge_in_place(Box::new(sample_fixture(2, false)), None, &mut rng)
            .is_ok());
    }

    #[test]
    fn deterministic_kinds_have_no_segment_layout() {
        let data = {
            let rows: Vec<(u64, u64, f64)> = (0..50).map(|k| (k % 16, (k * 3) % 16, 1.0)).collect();
            sas_sampling::product::SpatialData::from_xyw(&rows)
        };
        let qd = crate::qdigest::QDigestSummary::build(&data, 4, 40);
        assert!(encode_segment(&qd).is_none());
        // And a hand-forged segment claiming a deterministic kind is
        // rejected at open.
        let bytes = SegmentBuilder::new(SummaryKind::QDigest.tag()).finish();
        assert!(SegmentSummary::from_vec(bytes).is_err());
        let bytes = SegmentBuilder::new(999).finish();
        assert!(matches!(
            SegmentSummary::from_vec(bytes).unwrap_err(),
            CodecError::UnknownKind(999)
        ));
    }

    #[test]
    fn forged_sample_segments_are_rejected() {
        let n = |b: SegmentBuilder| SegmentSummary::from_vec(b.finish());
        // dims out of range.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [3, 1.0f64.to_bits()]);
        for id in [
            COL_SAMPLE_KEYS,
            COL_SAMPLE_WEIGHTS,
            COL_SAMPLE_ADJUSTED,
            COL_SAMPLE_XS,
            COL_SAMPLE_YS,
        ] {
            b.column_u64(id, []);
        }
        assert!(n(b).is_err());
        // Negative threshold.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, (-1.0f64).to_bits()]);
        for id in [
            COL_SAMPLE_KEYS,
            COL_SAMPLE_WEIGHTS,
            COL_SAMPLE_ADJUSTED,
            COL_SAMPLE_XS,
            COL_SAMPLE_YS,
        ] {
            b.column_u64(id, []);
        }
        assert!(n(b).is_err());
        // Column counts disagree.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1, 2]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [1.0]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0, 1.0]);
        b.column_u64(COL_SAMPLE_XS, []);
        b.column_u64(COL_SAMPLE_YS, []);
        assert!(n(b).is_err());
        // NaN weight.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [f64::NAN]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0]);
        b.column_u64(COL_SAMPLE_XS, []);
        b.column_u64(COL_SAMPLE_YS, []);
        assert!(n(b).is_err());
        // Locations for a 1-D sample.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [1.0]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0]);
        b.column_u64(COL_SAMPLE_XS, [4]);
        b.column_u64(COL_SAMPLE_YS, [5]);
        assert!(n(b).is_err());
        // Missing column.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, []);
        assert!(n(b).is_err());
        // Meta too short.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1]);
        assert!(n(b).is_err());
    }

    #[test]
    fn forged_varopt_segments_are_rejected() {
        let meta =
            |cap: u64, tau: f64, count: u64, tw: f64| [cap, tau.to_bits(), count, tw.to_bits()];
        // Held keys beyond capacity.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(1, 1.0, 5, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [2.0, 3.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Large weight below the threshold.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 2.0, 2, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [0.5]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Heap order violated.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 1.0, 3, 30.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2, 3]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [9.0, 2.0, 3.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Mismatched large columns.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 1.0, 2, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [2.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
    }

    #[test]
    fn clone_is_cheap_and_shares_bytes() {
        let owned = sample_fixture(5, false);
        let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
        let clone = seg.clone_box();
        assert_eq!(clone.item_count(), seg.item_count());
        let q = Query::interval(0, 120);
        assert_eq!(
            clone.answer(&q, 0.9).unwrap().value.to_bits(),
            seg.answer(&q, 0.9).unwrap().value.to_bits()
        );
    }

    /// A sample whose coordinates include both ends of `u64`: in 1-D the
    /// last 50 of the 300 keys become `u64::MAX − 49 ..= u64::MAX`; in 2-D
    /// every tenth key sits at `x ∈ {u64::MAX − 2, …, u64::MAX}`.
    fn edge_fixture(seed: u64, two_dim: bool) -> StoredSample {
        let data: Vec<WeightedKey> = weighted(300, seed)
            .into_iter()
            .map(|wk| match wk.key {
                k if !two_dim && k >= 250 => WeightedKey::new(u64::MAX - (299 - k), wk.weight),
                _ => wk,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let sample = sas_sampling::order::sample(&data, 96, &mut rng);
        if two_dim {
            let points: HashMap<u64, Point> = data
                .iter()
                .map(|wk| {
                    let k = wk.key;
                    let x = if k % 10 == 0 {
                        u64::MAX - k % 3
                    } else {
                        k % 64
                    };
                    (k, Point::xy(x, (k * 7919) % 64))
                })
                .collect();
            StoredSample::two_dim(sample, points).unwrap()
        } else {
            StoredSample::one_dim(sample)
        }
    }

    /// Batches that walk the slab index's edges, each mixing single-box
    /// queries in with the multi-box ones; `xs` are the sample's distinct
    /// item `x` values, ascending.
    fn slab_edge_batches(two_dim: bool, xs: &[u64]) -> Vec<(&'static str, Vec<Query>)> {
        let max = u64::MAX;
        // 2-D boxes take `y` as given; 1-D boxes drop it.
        let bx = |x: (u64, u64), y: (u64, u64)| if two_dim { vec![x, y] } else { vec![x] };
        let multi = |boxes: Vec<Vec<(u64, u64)>>| Query::MultiRange(boxes);
        let full_y = (0, max);
        let mut batches = vec![
            (
                "x1 = u64::MAX",
                vec![
                    multi(vec![bx((0, 9), full_y), bx((250, max), full_y)]),
                    multi(vec![bx((max - 1, max), full_y), bx((10, 12), (0, 31))]),
                    multi(vec![bx((max, max), full_y), bx((0, 0), full_y)]),
                    Query::interval(max - 20, max),
                ],
            ),
            (
                "x0 == x1, items on cuts",
                vec![
                    // Endpoints on the items' own `x`: point boxes, and
                    // boxes from one item's `x` up to the next one's.
                    multi(xs.iter().map(|&x| bx((x, x), full_y)).collect()),
                    multi(
                        xs.windows(2)
                            .map(|w| bx((w[0], w[1] - 1), (0, 40)))
                            .collect(),
                    ),
                    multi((0..40u64).map(|k| bx((k * 3, k * 3), (20, max))).collect()),
                    multi((0..20u64).map(|k| bx((k * 7, k * 7 + 6), full_y)).collect()),
                    Query::Point(if two_dim { vec![6, 42] } else { vec![6] }),
                ],
            ),
            (
                "shared endpoints",
                vec![
                    multi(vec![bx((0, 10), full_y), bx((11, 20), full_y)]),
                    multi(vec![bx((10, 20), (0, 5)), bx((21, 30), (6, 9))]),
                    multi(vec![
                        bx((10, 10), full_y),
                        bx((20, 20), full_y),
                        bx((30, 40), full_y),
                    ]),
                    multi(vec![
                        bx((0, 9), full_y),
                        bx((20, 29), full_y),
                        bx((40, 49), full_y),
                    ]),
                    Query::interval(10, 20),
                ],
            ),
            (
                "boxes spanning every slab",
                (0..40u64)
                    .map(|q| {
                        let split = 5 + q * 7;
                        if two_dim {
                            multi(
                                (0..4u64)
                                    .map(|j| vec![(0, max), (q + j * 16, q + j * 16 + 3)])
                                    .collect(),
                            )
                        } else {
                            multi(vec![vec![(0, split)], vec![(split + 1, max)]])
                        }
                    })
                    .chain([
                        multi(vec![bx((3, 4), full_y), bx((8, 9), full_y)]),
                        Query::Total,
                    ])
                    .collect(),
            ),
        ];
        if two_dim {
            batches.push((
                "all boxes in one slab",
                vec![
                    multi(
                        (0..16u64)
                            .map(|j| vec![(5, 5), (j * 4, j * 4 + 2)])
                            .collect(),
                    ),
                    multi(vec![vec![(5, 5), (0, 0)], vec![(5, 5), (63, 63)]]),
                    Query::BoxRange(vec![(0, 31), (0, 31)]),
                ],
            ));
        }
        batches.push(("probe queries", probe_queries(two_dim)));
        batches
    }

    /// The segment twin's item stream, straight from its columns, as the
    /// flat reference takes it.
    fn segment_items(seg: &SegmentSummary) -> Vec<(u64, u64, f64, f64)> {
        let Layout::Sample {
            dims,
            keys,
            weights,
            adjusted,
            xs,
            ys,
            ..
        } = seg.layout
        else {
            panic!("a sample segment");
        };
        let b = seg.data();
        let wa = f64s(weights.slice(b)).zip(f64s(adjusted.slice(b)));
        if dims == 2 {
            u64s(xs.slice(b))
                .zip(u64s(ys.slice(b)))
                .zip(wa)
                .map(|((x, y), (w, a))| (x, y, w, a))
                .collect()
        } else {
            u64s(keys.slice(b))
                .zip(wa)
                .map(|(k, (w, a))| (k, 0, w, a))
                .collect()
        }
    }

    #[test]
    fn slab_index_matches_flat_fold_reference() {
        // The slab index against the flat fold it replaced, on both twins,
        // bit for bit, over batches built to hit its edges.
        for seed in 0..30u64 {
            let two_dim = seed % 2 == 1;
            let owned = edge_fixture(seed, two_dim);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            let owned_items: Vec<(u64, u64, f64, f64)> = (0..owned.len())
                .map(|i| {
                    let (x, y) = if two_dim {
                        (owned.xs()[i], owned.ys()[i])
                    } else {
                        (owned.keys()[i], 0)
                    };
                    (x, y, owned.weights()[i], owned.adjusted_weights()[i])
                })
                .collect();
            let dims = owned.dims();
            let tau = owned.tau();
            let mut xs: Vec<u64> = owned_items.iter().map(|it| it.0).collect();
            xs.sort_unstable();
            xs.dedup();
            for (name, queries) in slab_edge_batches(two_dim, &xs) {
                let scan = crate::query::SampleScan::new(&queries, dims, tau).unwrap();
                let (cuts, registrations) = scan.slab_shape();
                let slabs = cuts.len() + 1;
                let boxes: usize = queries
                    .iter()
                    .map(|q| q.boxes(dims).unwrap().len())
                    .filter(|&n| n > 1)
                    .sum();
                assert!(
                    registrations <= 4 * boxes,
                    "{name}: {registrations} > 4·{boxes}"
                );
                match name {
                    "boxes spanning every slab" => assert!(
                        slabs < (boxes as f64).sqrt().ceil() as usize,
                        "{name}: K = {slabs} was never halved"
                    ),
                    "all boxes in one slab" => assert_eq!(registrations, boxes, "{name}"),
                    "x0 == x1, items on cuts" => assert!(
                        xs.iter().any(|x| cuts.contains(x)),
                        "{name}: no item on a cut {cuts:?}"
                    ),
                    _ => {}
                }
                for (twin, s, items) in [
                    ("owned", &owned as &dyn Summary, owned_items.clone()),
                    ("segment", &seg, segment_items(&seg)),
                ] {
                    let got = s.answer_batch(&queries, 0.9).unwrap();
                    let want =
                        flat_fold_reference(&queries, dims, tau, items.into_iter(), 0.9).unwrap();
                    for ((q, x), y) in queries.iter().zip(&got).zip(&want) {
                        let bits = |e: &Estimate| {
                            [e.value, e.variance, e.lower, e.upper, e.confidence].map(f64::to_bits)
                        };
                        assert_eq!(bits(x), bits(y), "seed {seed} {twin} {name}: {q}");
                    }
                }
            }
        }
    }
}
