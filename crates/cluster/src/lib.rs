//! Clustering of network coordinates — the summarization machinery of the
//! paper.
//!
//! The paper's replica placement pipeline (its Section III) is built from
//! three clustering layers, all implemented here:
//!
//! 1. **Per-replica online micro-clustering** ([`micro`], [`online`]): each
//!    replica server classifies the coordinates of the clients that access
//!    it into at most `m` [`micro::MicroCluster`]s, maintaining only four
//!    quantities per cluster (`count`, `weight`, `sum`, `sum2`). This is the
//!    "small, decentralized summary" the title refers to.
//! 2. **Summaries on the wire** ([`summary`]): micro-clusters serialize to a
//!    compact binary format (well under 1 KB per cluster) so that a
//!    placement round transfers `k·m` pseudo-points instead of the
//!    coordinates of millions of clients — the bandwidth argument of the
//!    paper's Table II.
//! 3. **Central macro-clustering** ([`mod@kmeans`], [`weighted`]): a weighted
//!    K-means over the collected micro-clusters (each treated as a
//!    pseudo-point at its centroid) yields the `k` macro-clusters whose
//!    centroids drive replica placement. Plain K-means over raw client
//!    coordinates is also provided — it is the paper's *offline* baseline.
//!
//! # Example: stream → summary → macro-clusters
//!
//! ```
//! use georep_cluster::online::OnlineClusterer;
//! use georep_cluster::weighted::weighted_kmeans;
//! use georep_cluster::kmeans::KMeansConfig;
//! use georep_coord::Coord;
//!
//! let mut summarizer: OnlineClusterer<2> = OnlineClusterer::new(4);
//! // Two client populations around (0, 0) and (100, 100).
//! for i in 0..100 {
//!     let d = (i % 10) as f64 * 0.5;
//!     summarizer.observe(Coord::new([d, 0.0]), 1.0);
//!     summarizer.observe(Coord::new([100.0 + d, 100.0]), 1.0);
//! }
//! let pseudo = summarizer.pseudo_points();
//! let clustering = weighted_kmeans(&pseudo, KMeansConfig::new(2))?;
//! assert_eq!(clustering.centroids.len(), 2);
//! # Ok::<(), georep_cluster::kmeans::ClusterError>(())
//! ```

pub mod kmeans;
pub mod micro;
pub mod online;
pub mod point;
#[doc(hidden)]
pub mod reference;
pub mod summary;
pub mod weighted;

pub use kmeans::{kmeans, kmeans_with_stats, ClusterError, Clustering, KMeansConfig, KMeansStats};
pub use micro::MicroCluster;
pub use online::{OnlineClusterer, StreamStats};
pub use point::WeightedPoint;
pub use summary::AccessSummary;
pub use weighted::{weighted_kmeans, weighted_kmeans_with_stats};
