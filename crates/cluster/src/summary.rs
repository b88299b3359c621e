//! Shippable access summaries and their wire format.
//!
//! Whenever replica locations need to be re-determined, each replica sends
//! its micro-clusters to a central server (paper Section III-C). The paper
//! sizes this traffic at "less than 1 KB" per micro-cluster and fewer than
//! 300 KB per placement round versus tens of megabytes for shipping raw
//! client coordinates — the bandwidth row of its Table II.
//!
//! [`AccessSummary`] is that message: a dimension-tagged snapshot of a
//! replica's micro-clusters, together with a compact little-endian binary
//! codec (built on [`bytes`]) whose encoded size is what the Table II
//! reproduction measures.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use georep_coord::Coord;

use crate::micro::MicroCluster;

const MAGIC: u16 = 0x4753; // "GS"
const VERSION: u8 = 1;

/// Replica id carried by the output of [`AccessSummary::merge_partial`] —
/// a merged summary no longer belongs to any single data center.
pub const MERGED_REPLICA: u32 = u32::MAX;

/// Error produced when decoding or converting an [`AccessSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryError {
    /// The buffer did not start with the summary magic number.
    WrongMagic,
    /// The encoded version is newer than this library understands.
    UnsupportedVersion(u8),
    /// The buffer ended before the advertised content.
    Truncated,
    /// The summary was produced in a different coordinate dimensionality.
    DimensionMismatch {
        /// Dimensionality requested by the caller.
        expected: usize,
        /// Dimensionality recorded in the summary.
        got: usize,
    },
    /// A decoded field violated an invariant (e.g. zero count, non-finite
    /// accumulator).
    InvalidField(&'static str),
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::WrongMagic => write!(f, "buffer is not an access summary"),
            SummaryError::UnsupportedVersion(v) => write!(f, "unsupported summary version {v}"),
            SummaryError::Truncated => write!(f, "summary buffer is truncated"),
            SummaryError::DimensionMismatch { expected, got } => {
                write!(f, "summary has {got} dimensions, expected {expected}")
            }
            SummaryError::InvalidField(what) => write!(f, "invalid summary field: {what}"),
        }
    }
}

impl Error for SummaryError {}

/// One micro-cluster, dimension-erased for transport.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Number of accesses summarized.
    pub count: u64,
    /// Total data weight.
    pub weight: f64,
    /// Coordinate-sum accumulator: `dims` position components followed by
    /// the height component.
    pub sum: Vec<f64>,
    /// Squared-coordinate-sum accumulator (`dims` position components).
    pub sum2: Vec<f64>,
}

/// A replica's shippable summary of recent accesses.
///
/// # Example
///
/// ```
/// use georep_cluster::{AccessSummary, OnlineClusterer};
/// use georep_coord::Coord;
///
/// let mut oc: OnlineClusterer<3> = OnlineClusterer::new(4);
/// for i in 0..100 {
///     oc.observe(Coord::new([i as f64 % 7.0, 0.0, 0.0]), 1.0);
/// }
/// let summary = AccessSummary::from_clusterer(1, &oc);
/// let wire = summary.encode();
/// // The paper sizes each shipped micro-cluster at well under 1 KB.
/// assert!(wire.len() < 1024 * summary.clusters.len().max(1));
/// let back = AccessSummary::decode(&wire)?;
/// assert_eq!(back, summary);
/// # Ok::<(), georep_cluster::summary::SummaryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSummary {
    /// Coordinate dimensionality the clusters were built in.
    pub dims: u8,
    /// Identifier of the replica (data center) that produced the summary.
    pub replica: u32,
    /// The micro-clusters.
    pub clusters: Vec<ClusterSnapshot>,
}

impl AccessSummary {
    /// Snapshots the given micro-clusters.
    pub fn from_clusters<const D: usize>(replica: u32, clusters: &[MicroCluster<D>]) -> Self {
        assert!(
            D <= u8::MAX as usize,
            "dimensionality too large for the wire format"
        );
        let clusters = clusters
            .iter()
            .map(|c| {
                let mut sum: Vec<f64> = c.sum().pos().to_vec();
                sum.push(c.sum().height());
                ClusterSnapshot {
                    count: c.count(),
                    weight: c.weight(),
                    sum,
                    sum2: c.sum2().to_vec(),
                }
            })
            .collect();
        AccessSummary {
            dims: D as u8,
            replica,
            clusters,
        }
    }

    /// Snapshots the current state of an online clusterer.
    pub fn from_clusterer<const D: usize>(
        replica: u32,
        clusterer: &crate::online::OnlineClusterer<D>,
    ) -> Self {
        Self::from_clusters(replica, clusterer.clusters())
    }

    /// Reconstructs typed micro-clusters.
    ///
    /// # Errors
    ///
    /// [`SummaryError::DimensionMismatch`] when `D` differs from the
    /// recorded dimensionality; [`SummaryError::InvalidField`] when a
    /// snapshot violates micro-cluster invariants.
    pub fn to_micro_clusters<const D: usize>(&self) -> Result<Vec<MicroCluster<D>>, SummaryError> {
        if self.dims as usize != D {
            return Err(SummaryError::DimensionMismatch {
                expected: D,
                got: self.dims as usize,
            });
        }
        self.clusters
            .iter()
            .map(|s| {
                if s.count == 0 {
                    return Err(SummaryError::InvalidField("count"));
                }
                if !(s.weight.is_finite() && s.weight > 0.0) {
                    return Err(SummaryError::InvalidField("weight"));
                }
                if s.sum.len() != D + 1 || s.sum2.len() != D {
                    return Err(SummaryError::InvalidField("accumulator arity"));
                }
                if s.sum.iter().chain(&s.sum2).any(|x| !x.is_finite()) {
                    return Err(SummaryError::InvalidField("non-finite accumulator"));
                }
                let mut pos = [0.0; D];
                pos.copy_from_slice(&s.sum[..D]);
                let height = s.sum[D];
                if height < 0.0 {
                    return Err(SummaryError::InvalidField("negative height sum"));
                }
                let mut sum2 = [0.0; D];
                sum2.copy_from_slice(&s.sum2);
                Ok(MicroCluster::from_raw(
                    s.count,
                    s.weight,
                    Coord::new(pos).with_height(height),
                    sum2,
                ))
            })
            .collect()
    }

    /// Merges replica summaries collected from a *partial view* — whatever
    /// subset of the fleet answered before the harvest deadline — into one
    /// summary a solver can consume as if a single replica had produced it.
    ///
    /// Rules:
    ///
    /// * every input must carry the same dimensionality;
    /// * when the same replica appears more than once (a late period-`n`
    ///   summary arriving next to period `n+1`'s), only its **last**
    ///   occurrence contributes — later is fresher on an in-order transport;
    /// * cluster order is preserved in input order, so the merge of a fully
    ///   present view is exactly the concatenation callers historically did
    ///   by hand;
    /// * the merged summary carries the [`MERGED_REPLICA`] sentinel id.
    ///
    /// # Errors
    ///
    /// [`SummaryError::InvalidField`] on an empty input,
    /// [`SummaryError::DimensionMismatch`] on mixed dimensionalities.
    pub fn merge_partial(views: &[AccessSummary]) -> Result<AccessSummary, SummaryError> {
        let first = views
            .first()
            .ok_or(SummaryError::InvalidField("no summaries in the view"))?;
        let dims = first.dims;
        if let Some(bad) = views.iter().find(|s| s.dims != dims) {
            return Err(SummaryError::DimensionMismatch {
                expected: dims as usize,
                got: bad.dims as usize,
            });
        }
        let clusters = views
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                // Keep only each replica's last occurrence.
                !views[i + 1..]
                    .iter()
                    .any(|later| later.replica == s.replica)
            })
            .flat_map(|(_, s)| s.clusters.iter().cloned())
            .collect();
        Ok(AccessSummary {
            dims,
            replica: MERGED_REPLICA,
            clusters,
        })
    }

    /// Exact size of [`AccessSummary::encode`]'s output, in bytes.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_for(self.dims as usize, self.clusters.len())
    }

    /// [`AccessSummary::encoded_len`] as a pure function of shape: the wire
    /// size of a summary carrying `clusters` micro-clusters in `dims`
    /// dimensions. Lets byte accounting skip materializing the summary.
    pub fn encoded_len_for(dims: usize, clusters: usize) -> usize {
        // header: magic + version + dims + replica + cluster count
        let header = 2 + 1 + 1 + 4 + 4;
        let per_cluster = 8 + 8 + (dims + 1) * 8 + dims * 8;
        header + clusters * per_cluster
    }

    /// Encodes to the compact little-endian wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(self.dims);
        buf.put_u32_le(self.replica);
        buf.put_u32_le(self.clusters.len() as u32);
        for c in &self.clusters {
            buf.put_u64_le(c.count);
            buf.put_f64_le(c.weight);
            for &x in &c.sum {
                buf.put_f64_le(x);
            }
            for &x in &c.sum2 {
                buf.put_f64_le(x);
            }
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf.freeze()
    }

    /// Decodes the wire format.
    ///
    /// # Errors
    ///
    /// See [`SummaryError`].
    pub fn decode(mut buf: &[u8]) -> Result<Self, SummaryError> {
        if buf.remaining() < 12 {
            return Err(SummaryError::Truncated);
        }
        if buf.get_u16_le() != MAGIC {
            return Err(SummaryError::WrongMagic);
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(SummaryError::UnsupportedVersion(version));
        }
        let dims = buf.get_u8();
        let replica = buf.get_u32_le();
        let n = buf.get_u32_le() as usize;
        let d = dims as usize;
        let per_cluster = 8 + 8 + (d + 1) * 8 + d * 8;
        if buf.remaining() < n * per_cluster {
            return Err(SummaryError::Truncated);
        }
        let mut clusters = Vec::with_capacity(n);
        for _ in 0..n {
            let count = buf.get_u64_le();
            let weight = buf.get_f64_le();
            let sum: Vec<f64> = (0..=d).map(|_| buf.get_f64_le()).collect();
            let sum2: Vec<f64> = (0..d).map(|_| buf.get_f64_le()).collect();
            clusters.push(ClusterSnapshot {
                count,
                weight,
                sum,
                sum2,
            });
        }
        Ok(AccessSummary {
            dims,
            replica,
            clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineClusterer;
    use proptest::prelude::*;

    fn sample_summary() -> AccessSummary {
        let mut oc: OnlineClusterer<3> = OnlineClusterer::new(4);
        for i in 0..60 {
            let x = (i % 3) as f64 * 2.0;
            oc.observe(
                Coord::new([x, 50.0, -20.0]).with_height(0.5),
                1.0 + i as f64,
            );
            oc.observe(Coord::new([400.0 + x, 0.0, 0.0]), 2.0);
        }
        AccessSummary::from_clusterer(7, &oc)
    }

    #[test]
    fn roundtrip_through_wire() {
        let s = sample_summary();
        let wire = s.encode();
        assert_eq!(wire.len(), s.encoded_len());
        let back = AccessSummary::decode(&wire).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn roundtrip_through_micro_clusters() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(3);
        for i in 0..30 {
            oc.observe(Coord::new([i as f64, -(i as f64)]), 1.5);
        }
        let s = AccessSummary::from_clusterer(1, &oc);
        let back = s.to_micro_clusters::<2>().unwrap();
        assert_eq!(back.as_slice(), oc.clusters());
    }

    #[test]
    fn each_cluster_is_under_a_kilobyte() {
        // The paper: "the size of each micro-cluster is less than 1KB".
        let s = sample_summary();
        assert!(!s.clusters.is_empty());
        let per_cluster = (s.encoded_len() - 12) / s.clusters.len();
        assert!(per_cluster < 1024, "per-cluster bytes = {per_cluster}");
    }

    #[test]
    fn dimension_mismatch_detected() {
        let s = sample_summary(); // built with D = 3
        assert_eq!(
            s.to_micro_clusters::<2>().unwrap_err(),
            SummaryError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(AccessSummary::decode(&[]), Err(SummaryError::Truncated));
        assert_eq!(
            AccessSummary::decode(&[0u8; 12]),
            Err(SummaryError::WrongMagic)
        );

        let mut ok = sample_summary().encode().to_vec();
        ok[2] = 99; // version byte
        assert_eq!(
            AccessSummary::decode(&ok),
            Err(SummaryError::UnsupportedVersion(99))
        );

        let mut short = sample_summary().encode().to_vec();
        short.truncate(short.len() - 1);
        assert_eq!(AccessSummary::decode(&short), Err(SummaryError::Truncated));
    }

    #[test]
    fn invalid_fields_rejected_on_reconstruction() {
        let mut s = sample_summary();
        s.clusters[0].count = 0;
        assert_eq!(
            s.to_micro_clusters::<3>().unwrap_err(),
            SummaryError::InvalidField("count")
        );

        let mut s = sample_summary();
        s.clusters[0].weight = f64::NAN;
        assert_eq!(
            s.to_micro_clusters::<3>().unwrap_err(),
            SummaryError::InvalidField("weight")
        );

        let mut s = sample_summary();
        s.clusters[0].sum.pop();
        assert_eq!(
            s.to_micro_clusters::<3>().unwrap_err(),
            SummaryError::InvalidField("accumulator arity")
        );
    }

    #[test]
    fn empty_summary_roundtrips() {
        let s = AccessSummary {
            dims: 3,
            replica: 0,
            clusters: vec![],
        };
        let back = AccessSummary::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
        assert!(back.to_micro_clusters::<3>().unwrap().is_empty());
    }

    fn tagged(replica: u32, xs: &[f64]) -> AccessSummary {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(4);
        for &x in xs {
            oc.observe(Coord::new([x, 0.0]), 1.0);
        }
        AccessSummary::from_clusterer(replica, &oc)
    }

    #[test]
    fn merge_partial_concatenates_in_view_order() {
        let a = tagged(0, &[1.0, 2.0]);
        let b = tagged(1, &[100.0]);
        let merged = AccessSummary::merge_partial(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.replica, MERGED_REPLICA);
        assert_eq!(merged.dims, 2);
        let expected: Vec<ClusterSnapshot> =
            a.clusters.iter().chain(&b.clusters).cloned().collect();
        assert_eq!(merged.clusters, expected);
        // A partial view is a prefix of the work, not an error.
        let partial = AccessSummary::merge_partial(std::slice::from_ref(&b)).unwrap();
        assert_eq!(partial.clusters, b.clusters);
    }

    #[test]
    fn merge_partial_keeps_only_the_latest_duplicate() {
        let stale = tagged(3, &[1.0]);
        let fresh = tagged(3, &[500.0, 600.0]);
        let other = tagged(4, &[-7.0]);
        let merged = AccessSummary::merge_partial(&[stale, other.clone(), fresh.clone()]).unwrap();
        let expected: Vec<ClusterSnapshot> = other
            .clusters
            .iter()
            .chain(&fresh.clusters)
            .cloned()
            .collect();
        assert_eq!(merged.clusters, expected);
    }

    #[test]
    fn merge_partial_rejects_bad_views() {
        assert_eq!(
            AccessSummary::merge_partial(&[]),
            Err(SummaryError::InvalidField("no summaries in the view"))
        );
        let flat = tagged(0, &[1.0]);
        let deep = sample_summary(); // D = 3
        assert_eq!(
            AccessSummary::merge_partial(&[flat, deep]),
            Err(SummaryError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn merged_summary_still_reconstructs_micro_clusters() {
        let a = tagged(0, &[1.0, 2.0, 3.0]);
        let b = tagged(1, &[50.0]);
        let merged = AccessSummary::merge_partial(&[a.clone(), b.clone()]).unwrap();
        let total: f64 = merged
            .to_micro_clusters::<2>()
            .unwrap()
            .iter()
            .map(|mc| mc.weight())
            .sum();
        assert_eq!(total, 4.0);
        let wire = AccessSummary::decode(&merged.encode()).unwrap();
        assert_eq!(wire, merged);
    }

    #[test]
    fn error_display() {
        assert!(SummaryError::Truncated.to_string().contains("truncated"));
        assert!(SummaryError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("3 dimensions"));
    }

    proptest! {
        #[test]
        fn prop_wire_roundtrip(
            replica in 0u32..1000,
            pts in prop::collection::vec((-1e5..1e5f64, -1e5..1e5f64, 0.1..100.0f64), 1..200),
            m in 1usize..16,
        ) {
            let mut oc: OnlineClusterer<2> = OnlineClusterer::new(m);
            for &(x, y, w) in &pts {
                oc.observe(Coord::new([x, y]), w);
            }
            let s = AccessSummary::from_clusterer(replica, &oc);
            let back = AccessSummary::decode(&s.encode()).unwrap();
            prop_assert_eq!(&back, &s);
            let mcs = back.to_micro_clusters::<2>().unwrap();
            prop_assert_eq!(mcs.as_slice(), oc.clusters());
        }
    }
}
