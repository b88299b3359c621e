//! Timed access streams.
//!
//! Turns a [`Population`] into a sequence of [`AccessEvent`]s: Poisson
//! arrivals (exponential inter-arrival times) with lognormal per-access
//! payload sizes. [`PhasedWorkload`] chains several populations back to
//! back — the "user population moves with the sun" scenario that makes
//! gradual replica migration worthwhile.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::population::Population;
use crate::zipf::AliasTable;

/// One client access to a replicated object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessEvent {
    /// When the access starts, in simulated milliseconds.
    pub at_ms: f64,
    /// The accessing client (a topology node index).
    pub client: usize,
    /// Amount of data exchanged, in KiB (the micro-cluster `weight`).
    pub bytes_kib: f64,
    /// The accessed object's key. Single-object workloads use `0`
    /// throughout; multi-object streams draw it from a popularity
    /// distribution (see [`ShardedStream::with_objects`]).
    pub object: u64,
}

/// Lognormal sigma of the per-access payload size.
const SIZE_SIGMA: f64 = 0.8;

/// One lognormal payload size around `median_kib` (Box–Muller over two
/// uniform draws).
fn payload_kib(rng: &mut StdRng, median_kib: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median_kib * (normal * SIZE_SIGMA).exp()
}

/// Arrival-process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Mean accesses per millisecond (Poisson rate λ).
    pub rate_per_ms: f64,
    /// Median payload size in KiB.
    pub median_kib: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            rate_per_ms: 0.1,
            median_kib: 64.0,
            seed: 0xACCE55,
        }
    }
}

/// Generates accesses over `duration_ms` from a single population.
///
/// Events are returned sorted by time. Determinstic given the seed.
///
/// # Panics
///
/// Panics if the configuration is out of range (non-positive rate or
/// median, non-finite duration).
///
/// # Example
///
/// ```
/// use georep_workload::{generate, Population, StreamConfig};
///
/// let pop = Population::uniform(10);
/// let cfg = StreamConfig { rate_per_ms: 1.0, ..Default::default() };
/// let events = generate(&pop, &cfg, 1_000.0);
/// // λ = 1/ms over 1000 ms ⇒ about a thousand accesses.
/// assert!((800..1200).contains(&events.len()));
/// ```
pub fn generate(pop: &Population, cfg: &StreamConfig, duration_ms: f64) -> Vec<AccessEvent> {
    assert!(
        cfg.rate_per_ms.is_finite() && cfg.rate_per_ms > 0.0,
        "rate must be positive, got {}",
        cfg.rate_per_ms
    );
    assert!(
        cfg.median_kib.is_finite() && cfg.median_kib > 0.0,
        "median size must be positive"
    );
    assert!(
        duration_ms.is_finite() && duration_ms >= 0.0,
        "duration must be non-negative"
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events = Vec::with_capacity((cfg.rate_per_ms * duration_ms) as usize + 1);
    let mut t = 0.0;
    loop {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / cfg.rate_per_ms;
        if t >= duration_ms {
            break;
        }
        let client = pop.sample(&mut rng);
        let bytes_kib = payload_kib(&mut rng, cfg.median_kib);
        events.push(AccessEvent {
            at_ms: t,
            client,
            bytes_kib,
            object: 0,
        });
    }
    events
}

/// One SplitMix64 step: the standard 64-bit finalizer-style mixer, used to
/// derive statistically independent per-shard RNG seeds from one base seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic per-shard seed split: shard `s` of a stream seeded
/// with `seed` draws from `StdRng::seed_from_u64(shard_seed(seed, s))`.
/// Mixing (rather than `seed + s`) keeps sibling shard streams
/// statistically unrelated even for adjacent seeds.
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    splitmix64(seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A batched, shardable access-stream generator for large-scale runs.
///
/// The single-RNG [`generate`] loop is inherently serial: every event's
/// time depends on the previous draw. `ShardedStream` instead splits the
/// horizon into `shards` disjoint windows, each its own Poisson process
/// under a [`shard_seed`]-derived RNG — valid because the Poisson process
/// is memoryless, and independent because shards share nothing (a
/// caller may generate them wherever it likes via
/// [`ShardedStream::shard_events`]). Clients are drawn through the O(1) [`AliasTable`] rather than
/// the O(log n) CDF walk, which is what makes million-client populations
/// affordable.
///
/// Determinism contract (pinned by `tests/workload_props.rs`): for a fixed
/// `(config, duration, shards)` the event sequence is identical whether it
/// is produced in one call ([`ShardedStream::generate`]), in chunks of any
/// size ([`ShardedStream::chunks`]), or shard by shard
/// ([`ShardedStream::shard_events`]).
#[derive(Debug, Clone)]
pub struct ShardedStream {
    alias: AliasTable,
    /// Object-popularity sampler; `None` keeps the single-object stream
    /// (object `0` throughout) with a draw sequence identical to streams
    /// generated before the object dimension existed.
    objects: Option<AliasTable>,
    cfg: StreamConfig,
    duration_ms: f64,
    shards: usize,
}

impl ShardedStream {
    /// Prepares a generator over `shards` disjoint time windows.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (as [`generate`]) or
    /// `shards` is zero.
    pub fn new(pop: &Population, cfg: &StreamConfig, duration_ms: f64, shards: usize) -> Self {
        assert!(
            cfg.rate_per_ms.is_finite() && cfg.rate_per_ms > 0.0,
            "rate must be positive, got {}",
            cfg.rate_per_ms
        );
        assert!(
            cfg.median_kib.is_finite() && cfg.median_kib > 0.0,
            "median size must be positive"
        );
        assert!(
            duration_ms.is_finite() && duration_ms >= 0.0,
            "duration must be non-negative"
        );
        assert!(shards > 0, "need at least one shard");
        ShardedStream {
            alias: pop.alias(),
            objects: None,
            cfg: *cfg,
            duration_ms,
            shards,
        }
    }

    /// Adds an object dimension: every access additionally draws an object
    /// key from `objects` (one draw per event, taken after the client and
    /// before the payload size). Without this call every event carries
    /// object `0` and the event sequence is identical to the
    /// single-object stream.
    pub fn with_objects(mut self, objects: AliasTable) -> Self {
        self.objects = Some(objects);
        self
    }

    /// Number of shards (disjoint generation windows).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total horizon, ms.
    pub fn duration_ms(&self) -> f64 {
        self.duration_ms
    }

    /// The window `[lo, hi)` shard `s` generates into. Boundaries are
    /// computed identically from both sides, so the windows partition the
    /// horizon exactly.
    fn window(&self, shard: usize) -> (f64, f64) {
        let lo = self.duration_ms * shard as f64 / self.shards as f64;
        let hi = self.duration_ms * (shard + 1) as f64 / self.shards as f64;
        (lo, hi)
    }

    /// Generates one shard's events (sorted by time, all inside the
    /// shard's window).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_events(&self, shard: usize) -> Vec<AccessEvent> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let (lo, hi) = self.window(shard);
        let mut rng = StdRng::seed_from_u64(shard_seed(self.cfg.seed, shard as u64));
        let expect = (self.cfg.rate_per_ms * (hi - lo)) as usize + 1;
        let mut events = Vec::with_capacity(expect);
        let mut t = lo;
        loop {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / self.cfg.rate_per_ms;
            if t >= hi {
                break;
            }
            let client = self.alias.sample(&mut rng);
            // Drawn between client and size so disabling the object
            // dimension leaves the historical draw sequence untouched.
            let object = match &self.objects {
                Some(table) => table.sample(&mut rng) as u64,
                None => 0,
            };
            let bytes_kib = payload_kib(&mut rng, self.cfg.median_kib);
            events.push(AccessEvent {
                at_ms: t,
                client,
                bytes_kib,
                object,
            });
        }
        events
    }

    /// Generates the whole stream serially (shards concatenated in order).
    pub fn generate(&self) -> Vec<AccessEvent> {
        let mut events = Vec::new();
        for s in 0..self.shards {
            events.append(&mut self.shard_events(s));
        }
        events
    }

    /// Iterates the stream in batches of exactly `batch` events (the final
    /// batch may be shorter). Batching never changes the event sequence —
    /// only how it is delivered — so a driver can feed a period's accesses
    /// through bounded memory.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn chunks(&self, batch: usize) -> Chunks<'_> {
        assert!(batch > 0, "batch size must be positive");
        Chunks {
            stream: self,
            batch,
            next_shard: 0,
            buf: Vec::new(),
        }
    }
}

/// Batch iterator over a [`ShardedStream`]; see [`ShardedStream::chunks`].
#[derive(Debug)]
pub struct Chunks<'a> {
    stream: &'a ShardedStream,
    batch: usize,
    next_shard: usize,
    /// Events generated but not yet emitted, in stream order.
    buf: Vec<AccessEvent>,
}

impl Iterator for Chunks<'_> {
    type Item = Vec<AccessEvent>;

    fn next(&mut self) -> Option<Vec<AccessEvent>> {
        while self.buf.len() < self.batch && self.next_shard < self.stream.shards {
            let mut shard = self.stream.shard_events(self.next_shard);
            self.next_shard += 1;
            self.buf.append(&mut shard);
        }
        if self.buf.is_empty() {
            return None;
        }
        let take = self.batch.min(self.buf.len());
        Some(self.buf.drain(..take).collect())
    }
}

/// Error produced by the [`PhasedWorkload`] constructors. Follows the
/// `TopologyError` idiom: one `BadParameter` variant naming the offending
/// input, so callers can surface a precise message without matching on
/// shape-specific variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// A constructor input was empty, non-positive, non-finite, or
    /// inconsistent with its siblings.
    BadParameter(&'static str),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::BadParameter(p) => write!(f, "parameter {p} is out of range"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A workload whose population changes across consecutive phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    phases: Vec<(Population, f64)>,
}

impl PhasedWorkload {
    /// Creates a workload from `(population, duration_ms)` phases.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::BadParameter`] if no phases are given or any
    /// duration is non-positive or non-finite.
    pub fn new(phases: Vec<(Population, f64)>) -> Result<Self, WorkloadError> {
        if phases.is_empty() {
            return Err(WorkloadError::BadParameter("phases (need at least one)"));
        }
        if !phases.iter().all(|(_, d)| d.is_finite() && *d > 0.0) {
            return Err(WorkloadError::BadParameter(
                "phase duration (must be positive and finite)",
            ));
        }
        Ok(PhasedWorkload { phases })
    }

    /// A two-phase drift: `steps` intermediate phases blending from `from`
    /// to `to`, each lasting `phase_ms`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::BadParameter`] if `steps` is zero, `phase_ms` is
    /// non-positive, or the populations cover different client counts.
    pub fn drift(
        from: &Population,
        to: &Population,
        steps: usize,
        phase_ms: f64,
    ) -> Result<Self, WorkloadError> {
        if steps == 0 {
            return Err(WorkloadError::BadParameter("steps (need at least one)"));
        }
        if from.len() != to.len() {
            return Err(WorkloadError::BadParameter(
                "drift populations (client counts differ)",
            ));
        }
        let phases = (0..steps)
            .map(|i| {
                let t = if steps == 1 {
                    1.0
                } else {
                    i as f64 / (steps - 1) as f64
                };
                (from.blend(to, t), phase_ms)
            })
            .collect();
        Self::new(phases)
    }

    /// A diurnal workload: regional populations whose activity follows a
    /// raised cosine peaking at each region's local `peak_hour`, sampled
    /// into `hours` phases of `phase_ms` each. This is the "demand follows
    /// the sun" pattern that makes gradual replica migration worthwhile.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::BadParameter`] when `regions` is empty, `hours` is
    /// zero, `phase_ms` is non-positive, or the populations cover
    /// different client counts.
    pub fn diurnal(
        regions: &[(Population, f64)],
        hours: usize,
        phase_ms: f64,
    ) -> Result<Self, WorkloadError> {
        if regions.is_empty() {
            return Err(WorkloadError::BadParameter("regions (need at least one)"));
        }
        if hours == 0 {
            return Err(WorkloadError::BadParameter("hours (need at least one)"));
        }
        if regions
            .iter()
            .any(|(pop, _)| pop.len() != regions[0].0.len())
        {
            return Err(WorkloadError::BadParameter(
                "region populations (client counts differ)",
            ));
        }
        let phases = (0..hours)
            .map(|h| {
                let parts: Vec<(&Population, f64)> = regions
                    .iter()
                    .map(|(pop, peak)| {
                        // Raised cosine around the region's peak hour with a
                        // small always-on floor.
                        let angle = (h as f64 - peak) / 24.0 * std::f64::consts::TAU;
                        let activity = 0.05 + 0.95 * (0.5 + 0.5 * angle.cos());
                        (pop, activity)
                    })
                    .collect();
                (Population::mix(&parts), phase_ms)
            })
            .collect();
        Self::new(phases)
    }

    /// The phases.
    pub fn phases(&self) -> &[(Population, f64)] {
        &self.phases
    }

    /// Total duration across phases, ms.
    pub fn duration_ms(&self) -> f64 {
        self.phases.iter().map(|(_, d)| d).sum()
    }

    /// Generates the full event sequence (sorted by time; phase `i`'s
    /// events are offset by the durations of phases `0..i`).
    pub fn generate(&self, cfg: &StreamConfig) -> Vec<AccessEvent> {
        let mut events = Vec::new();
        let mut offset = 0.0;
        for (i, (pop, dur)) in self.phases.iter().enumerate() {
            let phase_cfg = StreamConfig {
                seed: cfg.seed.wrapping_add(i as u64),
                ..*cfg
            };
            for mut e in generate(pop, &phase_cfg, *dur) {
                e.at_ms += offset;
                events.push(e);
            }
            offset += dur;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn poisson_rate_is_respected() {
        let pop = Population::uniform(5);
        let cfg = StreamConfig {
            rate_per_ms: 0.5,
            seed: 11,
            ..Default::default()
        };
        let events = generate(&pop, &cfg, 20_000.0);
        let expected = 0.5 * 20_000.0;
        assert!(
            (events.len() as f64 - expected).abs() < expected * 0.05,
            "{} events, expected ≈{expected}",
            events.len()
        );
    }

    #[test]
    fn events_sorted_and_in_range() {
        let pop = Population::uniform(7);
        let events = generate(&pop, &StreamConfig::default(), 5_000.0);
        assert!(events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(events.iter().all(|e| e.at_ms < 5_000.0 && e.client < 7));
        assert!(events.iter().all(|e| e.bytes_kib > 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let pop = Population::uniform(3);
        let cfg = StreamConfig {
            seed: 42,
            ..Default::default()
        };
        assert_eq!(generate(&pop, &cfg, 1_000.0), generate(&pop, &cfg, 1_000.0));
    }

    #[test]
    fn zero_duration_is_empty() {
        let pop = Population::uniform(3);
        assert!(generate(&pop, &StreamConfig::default(), 0.0).is_empty());
    }

    #[test]
    fn median_size_approximately_respected() {
        let pop = Population::uniform(2);
        let cfg = StreamConfig {
            rate_per_ms: 1.0,
            median_kib: 100.0,
            seed: 5,
        };
        let mut sizes: Vec<f64> = generate(&pop, &cfg, 20_000.0)
            .iter()
            .map(|e| e.bytes_kib)
            .collect();
        sizes.sort_by(f64::total_cmp);
        let median = sizes[sizes.len() / 2];
        assert!((median - 100.0).abs() < 10.0, "median {median}");
    }

    #[test]
    fn phased_workload_shifts_population() {
        let west = Population::from_weights(vec![1.0, 0.0]).unwrap();
        let east = Population::from_weights(vec![0.0, 1.0]).unwrap();
        let wl = PhasedWorkload::new(vec![(west, 1_000.0), (east, 1_000.0)]).unwrap();
        let events = wl.generate(&StreamConfig {
            rate_per_ms: 0.2,
            ..Default::default()
        });
        for e in &events {
            if e.at_ms < 1_000.0 {
                assert_eq!(e.client, 0);
            } else {
                assert_eq!(e.client, 1);
            }
        }
        assert_eq!(wl.duration_ms(), 2_000.0);
    }

    #[test]
    fn drift_blends_gradually() {
        let a = Population::from_weights(vec![1.0, 0.0]).unwrap();
        let b = Population::from_weights(vec![0.0, 1.0]).unwrap();
        let wl = PhasedWorkload::drift(&a, &b, 5, 2_000.0).unwrap();
        assert_eq!(wl.phases().len(), 5);
        let events = wl.generate(&StreamConfig {
            rate_per_ms: 0.3,
            ..Default::default()
        });
        // Share of client-1 accesses must rise phase over phase.
        let share = |lo: f64, hi: f64| {
            let in_phase: Vec<_> = events
                .iter()
                .filter(|e| e.at_ms >= lo && e.at_ms < hi)
                .collect();
            in_phase.iter().filter(|e| e.client == 1).count() as f64 / in_phase.len().max(1) as f64
        };
        assert!(share(0.0, 2_000.0) < 0.05);
        assert!(share(8_000.0, 10_000.0) > 0.95);
        assert!((share(4_000.0, 6_000.0) - 0.5).abs() < 0.15);
    }

    #[test]
    fn diurnal_activity_follows_the_peaks() {
        // Two "regions": clients 0-1 peak at hour 0, clients 2-3 at hour 12.
        let west = Population::from_weights(vec![1.0, 1.0, 0.0, 0.0]).unwrap();
        let east = Population::from_weights(vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let wl = PhasedWorkload::diurnal(&[(west, 0.0), (east, 12.0)], 24, 500.0).unwrap();
        assert_eq!(wl.phases().len(), 24);
        let events = wl.generate(&StreamConfig {
            rate_per_ms: 0.3,
            seed: 4,
            ..Default::default()
        });

        let west_share = |hour: usize| {
            let (lo, hi) = (hour as f64 * 500.0, (hour + 1) as f64 * 500.0);
            let window: Vec<_> = events
                .iter()
                .filter(|e| e.at_ms >= lo && e.at_ms < hi)
                .collect();
            window.iter().filter(|e| e.client < 2).count() as f64 / window.len().max(1) as f64
        };
        assert!(
            west_share(0) > 0.85,
            "midnight is west-peak: {}",
            west_share(0)
        );
        assert!(
            west_share(12) < 0.15,
            "noon is east-peak: {}",
            west_share(12)
        );
        // The crossover sits in between.
        assert!(
            (west_share(6) - 0.5).abs() < 0.25,
            "hour 6: {}",
            west_share(6)
        );
    }

    #[test]
    fn population_mix_normalizes_components() {
        let a = Population::from_weights(vec![10.0, 0.0]).unwrap();
        let b = Population::from_weights(vec![0.0, 1.0]).unwrap();
        // Equal factors → equal shares, despite the different raw scales.
        let m = Population::mix(&[(&a, 1.0), (&b, 1.0)]);
        assert!((m.probability(0) - 0.5).abs() < 1e-12);
        // Zero factor removes a component.
        let only_b = Population::mix(&[(&a, 0.0), (&b, 2.0)]);
        assert_eq!(only_b.probability(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn bad_rate_rejected() {
        let pop = Population::uniform(2);
        let _ = generate(
            &pop,
            &StreamConfig {
                rate_per_ms: 0.0,
                ..Default::default()
            },
            10.0,
        );
    }

    #[test]
    fn bad_phased_workload_inputs_are_typed_errors() {
        // The constructors used to assert; they now follow the
        // `TopologyError::BadParameter` idiom (typed, non-panicking).
        let a = Population::from_weights(vec![1.0, 0.0]).unwrap();
        let b = Population::from_weights(vec![0.0, 1.0]).unwrap();
        let three = Population::uniform(3);

        // new: empty phase list, and non-positive / non-finite durations.
        assert_eq!(
            PhasedWorkload::new(vec![]).unwrap_err(),
            WorkloadError::BadParameter("phases (need at least one)")
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                PhasedWorkload::new(vec![(a.clone(), bad)]).unwrap_err(),
                WorkloadError::BadParameter("phase duration (must be positive and finite)")
            );
        }

        // drift: zero steps, mismatched client counts, bad duration.
        assert_eq!(
            PhasedWorkload::drift(&a, &b, 0, 100.0).unwrap_err(),
            WorkloadError::BadParameter("steps (need at least one)")
        );
        assert_eq!(
            PhasedWorkload::drift(&a, &three, 3, 100.0).unwrap_err(),
            WorkloadError::BadParameter("drift populations (client counts differ)")
        );
        assert!(PhasedWorkload::drift(&a, &b, 3, -5.0).is_err());

        // diurnal: no regions, zero hours, mismatched client counts, bad
        // duration.
        assert_eq!(
            PhasedWorkload::diurnal(&[], 24, 100.0).unwrap_err(),
            WorkloadError::BadParameter("regions (need at least one)")
        );
        assert_eq!(
            PhasedWorkload::diurnal(&[(a.clone(), 0.0)], 0, 100.0).unwrap_err(),
            WorkloadError::BadParameter("hours (need at least one)")
        );
        assert_eq!(
            PhasedWorkload::diurnal(&[(a.clone(), 0.0), (three, 12.0)], 24, 100.0).unwrap_err(),
            WorkloadError::BadParameter("region populations (client counts differ)")
        );
        assert!(PhasedWorkload::diurnal(&[(a, 0.0)], 24, 0.0).is_err());

        // The error formats like its topology sibling.
        assert_eq!(
            WorkloadError::BadParameter("steps (need at least one)").to_string(),
            "parameter steps (need at least one) is out of range"
        );
    }

    #[test]
    fn sharded_stream_respects_rate_and_windows() {
        let pop = Population::uniform(16);
        let cfg = StreamConfig {
            rate_per_ms: 0.5,
            seed: 23,
            ..Default::default()
        };
        let stream = ShardedStream::new(&pop, &cfg, 20_000.0, 8);
        let events = stream.generate();
        let expected = 0.5 * 20_000.0;
        assert!(
            (events.len() as f64 - expected).abs() < expected * 0.05,
            "{} events, expected ≈{expected}",
            events.len()
        );
        assert!(events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(events.iter().all(|e| e.at_ms < 20_000.0 && e.client < 16));
        // Each shard stays strictly inside its window.
        for s in 0..8 {
            let (lo, hi) = (20_000.0 * s as f64 / 8.0, 20_000.0 * (s + 1) as f64 / 8.0);
            assert!(stream
                .shard_events(s)
                .iter()
                .all(|e| e.at_ms >= lo && e.at_ms < hi));
        }
    }

    #[test]
    fn sharded_stream_chunks_are_pure_delivery_choices() {
        let pop = Population::zipf_skewed(50, 1.0, 3);
        let cfg = StreamConfig {
            rate_per_ms: 0.4,
            seed: 99,
            ..Default::default()
        };
        let stream = ShardedStream::new(&pop, &cfg, 5_000.0, 7);
        let whole = stream.generate();
        for batch in [1, 17, 256, 10_000] {
            let rebatched: Vec<AccessEvent> = stream.chunks(batch).flatten().collect();
            assert_eq!(rebatched, whole, "batch size {batch} changed the stream");
        }
        // Every chunk but the last is exactly the batch size.
        let batches: Vec<Vec<AccessEvent>> = stream.chunks(100).collect();
        for b in &batches[..batches.len() - 1] {
            assert_eq!(b.len(), 100);
        }
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), whole.len());
    }

    #[test]
    fn shard_seed_split_is_deterministic_and_spread_out() {
        assert_eq!(shard_seed(42, 7), shard_seed(42, 7));
        // Adjacent shards and adjacent seeds land far apart.
        assert_ne!(shard_seed(42, 7), shard_seed(42, 8));
        assert_ne!(shard_seed(42, 7), shard_seed(43, 7));
        let a = shard_seed(1, 0);
        let b = shard_seed(1, 1);
        assert!(
            (a ^ b).count_ones() > 8,
            "poor bit diffusion: {a:x} vs {b:x}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let pop = Population::uniform(2);
        let _ = ShardedStream::new(&pop, &StreamConfig::default(), 10.0, 0);
    }

    #[test]
    fn object_dimension_defaults_to_zero() {
        let pop = Population::uniform(4);
        let cfg = StreamConfig {
            rate_per_ms: 0.4,
            seed: 8,
            ..Default::default()
        };
        let stream = ShardedStream::new(&pop, &cfg, 2_000.0, 4);
        assert!(stream.generate().iter().all(|e| e.object == 0));
        assert!(generate(&pop, &cfg, 2_000.0).iter().all(|e| e.object == 0));
    }

    #[test]
    fn object_dimension_draws_between_client_and_size() {
        // Enabling objects must not disturb the arrival process or the
        // client draw: the k-th event of each shard keeps its time and
        // client, only the object (and the size drawn after it) change.
        let pop = Population::uniform(6);
        let cfg = StreamConfig {
            rate_per_ms: 0.5,
            seed: 77,
            ..Default::default()
        };
        let plain = ShardedStream::new(&pop, &cfg, 4_000.0, 4);
        let objects = crate::zipf::Zipf::new(32, 1.1).alias();
        let multi = plain.clone().with_objects(objects);
        for s in 0..4 {
            let a = plain.shard_events(s);
            let b = multi.shard_events(s);
            assert!(!b.is_empty());
            assert_eq!(a[0].at_ms, b[0].at_ms, "shard {s}: first arrival moved");
            assert_eq!(a[0].client, b[0].client, "shard {s}: first client moved");
        }
        let events = multi.generate();
        assert!(events.iter().all(|e| e.object < 32));
        assert!(
            events.iter().any(|e| e.object != 0),
            "zipf objects never left rank 0"
        );
        // Rank 0 dominates under Zipf.
        let rank0 = events.iter().filter(|e| e.object == 0).count();
        let rank31 = events.iter().filter(|e| e.object == 31).count();
        assert!(
            rank0 > rank31,
            "rank 0 ({rank0}) should beat rank 31 ({rank31})"
        );
    }

    #[test]
    fn object_streams_keep_the_delivery_invariants() {
        let pop = Population::zipf_skewed(30, 1.0, 5);
        let cfg = StreamConfig {
            rate_per_ms: 0.4,
            seed: 13,
            ..Default::default()
        };
        let objects = crate::zipf::Zipf::new(100, 0.9).alias();
        let stream = ShardedStream::new(&pop, &cfg, 5_000.0, 7).with_objects(objects);
        let whole = stream.generate();
        let rebatched: Vec<AccessEvent> = stream.chunks(64).flatten().collect();
        assert_eq!(rebatched, whole);
    }

    proptest! {
        #[test]
        fn prop_event_times_within_duration(
            dur in 1.0..5_000.0f64,
            seed in 0u64..50,
        ) {
            let pop = Population::uniform(4);
            let cfg = StreamConfig { seed, ..Default::default() };
            let events = generate(&pop, &cfg, dur);
            prop_assert!(events.iter().all(|e| e.at_ms >= 0.0 && e.at_ms < dur));
        }
    }
}
