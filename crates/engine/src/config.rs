//! Engine configuration.

use tvq_common::{Decoder, Encoder, Error, MemoConfig, Result, WindowSpec};
use tvq_core::{CompactionPolicy, MaintainerKind};

/// Configuration of the end-to-end engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Sliding-window specification (window length and duration threshold).
    pub window: WindowSpec,
    /// The MCOS-generation strategy.
    pub maintainer: MaintainerKind,
    /// Whether to enable the Section 5.3 pruning strategy when the query
    /// workload permits it (all conditions `>=`).
    pub pruning: bool,
    /// Interner-arena compaction between frames: `Some(policy)` lets the
    /// engine consult the policy every `policy.check_interval` frames and
    /// compact the maintainer's arena when live-set occupancy has fallen
    /// below the policy's ratio; `None` keeps the arena append-only (the
    /// pre-compaction behaviour — memory then grows with the number of
    /// distinct object sets ever seen by the feed). Compaction epochs also
    /// drive **object retirement**: the retire set each epoch reports is
    /// what lets the engine's class store and tracking maps forget dead
    /// identifiers, so disabling compaction also re-enables the
    /// grow-with-history engine-side footprint.
    pub compaction: Option<CompactionPolicy>,
    /// Size of the interner's intersection memo (4096 slots by default).
    pub memo: MemoConfig,
}

impl EngineConfig {
    /// Creates a configuration with the given window, MFS maintenance,
    /// pruning enabled, the default compaction policy and the default
    /// intersection memo. The paper (§6.2) expects SSG to win on dense
    /// feeds, but over this bitmap substrate MFS is faster on every
    /// measured workload (README, "SSG vs MFS"); both report the same
    /// results, and [`with_maintainer`](Self::with_maintainer) selects SSG.
    pub fn new(window: WindowSpec) -> Self {
        EngineConfig {
            window,
            maintainer: MaintainerKind::Mfs,
            pruning: true,
            compaction: Some(CompactionPolicy::default_policy()),
            memo: MemoConfig::default(),
        }
    }

    /// The paper's setting (w=300 frames, d=240 frames, pruning), with MFS
    /// where the paper ran SSG — see [`new`](Self::new) for why.
    pub fn paper_default() -> Self {
        EngineConfig::new(WindowSpec::paper_default())
    }

    /// Selects the maintenance strategy.
    pub fn with_maintainer(mut self, kind: MaintainerKind) -> Self {
        self.maintainer = kind;
        self
    }

    /// Enables or disables query-driven pruning.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Sets the interner-compaction policy (`None` disables compaction).
    pub fn with_compaction(mut self, compaction: Option<CompactionPolicy>) -> Self {
        self.compaction = compaction;
        self
    }

    /// Appends the configuration as `TVQE` version 1 lays it out. Two runs
    /// of legacy bytes outlive the knobs they described and are written as
    /// those knobs' fixed settings serialised:
    ///
    /// * three strategy bytes — a selection tag (always 1, "fixed"; 0 was
    ///   the removed `Auto` choice, written without the next byte), the
    ///   selected kind, and the kind that actually ran, now always equal;
    /// * four memo words of the removed adaptive memo — initial bits, max
    ///   bits, sample window, grow threshold. Only the first is read back.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.window.window());
        enc.put_usize(self.window.duration());
        enc.put_u8(1);
        enc.put_u8(self.maintainer.codec_tag());
        enc.put_u8(self.maintainer.codec_tag());
        enc.put_bool(self.pruning);
        enc.put_bool(self.compaction.is_some());
        if let Some(policy) = &self.compaction {
            policy.encode(enc);
        }
        enc.put_u32(self.memo.bits);
        enc.put_u32(self.memo.bits);
        enc.put_u32(u32::MAX);
        enc.put_f64(2.0);
    }

    /// Reads a configuration written by [`encode`](Self::encode), or by a
    /// build that still had `Auto` (tag 0: the maintainer is the resolved
    /// kind that follows) or the adaptive memo (restored at its initial
    /// size).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<EngineConfig> {
        let window = WindowSpec::new(dec.take_usize()?, dec.take_usize()?)
            .map_err(|e| Error::Corrupt(format!("snapshot window spec: {e}")))?;
        let selected = match dec.take_u8()? {
            0 => None,
            1 => Some(MaintainerKind::from_codec_tag(dec.take_u8()?)?),
            other => {
                return Err(Error::Codec(format!("unknown selection tag {other}")));
            }
        };
        let maintainer = MaintainerKind::from_codec_tag(dec.take_u8()?)?;
        if let Some(selected) = selected.filter(|&selected| selected != maintainer) {
            return Err(Error::Corrupt(format!(
                "snapshot selects {selected} but ran {maintainer}"
            )));
        }
        let pruning = dec.take_bool()?;
        let compaction = (dec.take_bool()?)
            .then(|| CompactionPolicy::decode(dec))
            .transpose()?;
        let memo = MemoConfig {
            bits: dec.take_u32()?,
        };
        dec.take_u32()?;
        dec.take_u32()?;
        dec.take_f64()?;
        Ok(EngineConfig {
            window,
            maintainer,
            pruning,
            compaction,
            memo,
        })
    }
}

impl Default for EngineConfig {
    /// [`EngineConfig::paper_default`] (MFS, where the paper ran SSG).
    fn default() -> Self {
        EngineConfig::paper_default()
    }
}

/// Configuration of the sharded multi-feed engine
/// ([`MultiFeedEngine`](crate::MultiFeedEngine)).
///
/// Every camera feed is served by a per-feed single-feed engine configured
/// with the embedded [`EngineConfig`]; feeds are sharded across `workers`
/// shares, and each batch runs every non-empty share on its own scoped
/// thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFeedConfig {
    /// Configuration applied to every per-feed engine.
    pub engine: EngineConfig,
    /// Number of workers (shares, hence threads per batch) the feeds are
    /// sharded across. Must be at least 1; feed `f` starts on worker
    /// `f mod workers`.
    pub workers: usize,
    /// How many ingested batches pass between automatic rebalance passes of
    /// the work-stealing scheduler. `0` disables automatic rebalancing
    /// entirely (feeds stay on their static `feed mod workers` shards unless
    /// migrated manually) — the pre-scheduler behaviour, and the baseline
    /// the skew benchmarks compare against. Rebalancing never changes
    /// results, only which worker computes them.
    pub rebalance_interval: u64,
    /// How lopsided the load must be before a rebalance pass migrates
    /// anything: the busiest worker must carry more than `steal_threshold`
    /// times the idlest worker's load. Must be at least `1.0` (enforced at
    /// build time); higher values tolerate more skew before stealing,
    /// `1.0` rebalances on any imbalance the planner can improve.
    pub steal_threshold: f64,
}

impl MultiFeedConfig {
    /// Default worker count when none is requested explicitly.
    pub const DEFAULT_WORKERS: usize = 4;

    /// Default automatic-rebalance cadence, in batches.
    pub const DEFAULT_REBALANCE_INTERVAL: u64 = 8;

    /// Default skew tolerance of the rebalancer.
    pub const DEFAULT_STEAL_THRESHOLD: f64 = 1.5;

    /// Creates a multi-feed configuration with the given per-feed engine
    /// configuration and [`Self::DEFAULT_WORKERS`] workers.
    pub fn new(engine: EngineConfig) -> Self {
        MultiFeedConfig {
            engine,
            workers: Self::DEFAULT_WORKERS,
            rebalance_interval: Self::DEFAULT_REBALANCE_INTERVAL,
            steal_threshold: Self::DEFAULT_STEAL_THRESHOLD,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the automatic-rebalance cadence (`0` disables rebalancing).
    pub fn with_rebalance_interval(mut self, batches: u64) -> Self {
        self.rebalance_interval = batches;
        self
    }

    /// Sets the rebalancer's skew tolerance (must be ≥ 1.0 — validated when
    /// the engine is built).
    pub fn with_steal_threshold(mut self, threshold: f64) -> Self {
        self.steal_threshold = threshold;
        self
    }
}

impl Default for MultiFeedConfig {
    fn default() -> Self {
        MultiFeedConfig::new(EngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = EngineConfig::default();
        assert_eq!(config.window.window(), 300);
        assert_eq!(config.window.duration(), 240);
        assert!(config.pruning);
        assert_eq!(config.maintainer, MaintainerKind::Mfs);
        assert_eq!(config.memo, MemoConfig { bits: 12 });
    }

    #[test]
    fn multi_feed_config_defaults_and_setters() {
        let config = MultiFeedConfig::default();
        assert_eq!(config.workers, MultiFeedConfig::DEFAULT_WORKERS);
        assert_eq!(config.engine, EngineConfig::default());
        assert_eq!(
            config.rebalance_interval,
            MultiFeedConfig::DEFAULT_REBALANCE_INTERVAL
        );
        assert_eq!(
            config.steal_threshold,
            MultiFeedConfig::DEFAULT_STEAL_THRESHOLD
        );
        assert_eq!(config.with_rebalance_interval(0).rebalance_interval, 0);
        assert_eq!(config.with_steal_threshold(2.0).steal_threshold, 2.0);
        let config = MultiFeedConfig::new(
            EngineConfig::new(WindowSpec::new(5, 2).unwrap()).with_maintainer(MaintainerKind::Mfs),
        )
        .with_workers(2);
        assert_eq!(config.workers, 2);
        assert_eq!(config.engine.window.window(), 5);
    }

    #[test]
    fn builder_style_setters() {
        let config = EngineConfig::new(WindowSpec::new(10, 5).unwrap())
            .with_maintainer(MaintainerKind::Mfs)
            .with_pruning(false);
        assert_eq!(config.maintainer, MaintainerKind::Mfs);
        assert!(!config.pruning);
    }
}
