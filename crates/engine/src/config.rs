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
    /// compact the maintainer's arena when the live states have fallen
    /// below the policy's ratio of the sets minted this epoch; `None` never
    /// compacts (sets still die with their last state, but every object
    /// keeps its bit slot, so the bitmaps widen with the number of distinct
    /// objects ever seen by the feed). Compaction epochs also
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
    /// benchmark workload, at w=60 (README, "SSG vs MFS"); at w=300 SSG is
    /// 1.04–1.88× slower with 21–40 % of MFS's visits (ROADMAP item 4).
    /// Both report the same results; [`with_maintainer`](Self::with_maintainer)
    /// selects SSG.
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

    /// Appends the configuration to a `TVQE` snapshot payload.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.window.window());
        enc.put_usize(self.window.duration());
        enc.put_u8(self.maintainer.codec_tag());
        enc.put_bool(self.pruning);
        enc.put_bool(self.compaction.is_some());
        if let Some(policy) = &self.compaction {
            policy.encode(enc);
        }
        enc.put_u32(self.memo.bits);
    }

    /// Reads a configuration written by [`encode`](Self::encode).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<EngineConfig> {
        let window = WindowSpec::new(dec.take_usize()?, dec.take_usize()?)
            .map_err(|e| Error::Corrupt(format!("snapshot window spec: {e}")))?;
        let maintainer = MaintainerKind::from_codec_tag(dec.take_u8()?)?;
        let pruning = dec.take_bool()?;
        let compaction = (dec.take_bool()?)
            .then(|| CompactionPolicy::decode(dec))
            .transpose()?;
        let memo = MemoConfig {
            bits: dec.take_u32()?,
        };
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
/// with the embedded [`EngineConfig`]; each batch places its feeds on
/// `workers` shares and runs every non-empty share on its own scoped
/// thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFeedConfig {
    /// Configuration applied to every per-feed engine.
    pub engine: EngineConfig,
    /// Number of workers: the shares, hence at most the threads, each batch
    /// is split into. Must be at least 1. Every batch places its own feeds
    /// on the shares by the batch's costs (see
    /// [`MultiFeedEngine::push_batch`](crate::MultiFeedEngine::push_batch)),
    /// which never changes results, only which thread computes them.
    pub workers: usize,
}

impl MultiFeedConfig {
    /// Default worker count when none is requested explicitly.
    pub const DEFAULT_WORKERS: usize = 4;

    /// Creates a multi-feed configuration with the given per-feed engine
    /// configuration and [`Self::DEFAULT_WORKERS`] workers.
    pub fn new(engine: EngineConfig) -> Self {
        MultiFeedConfig {
            engine,
            workers: Self::DEFAULT_WORKERS,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
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
