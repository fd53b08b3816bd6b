//! The immutable per-domain context shared by every router.

use super::ScmpConfig;
use scmp_net::{provider_for, PathProvider, Topology};
use std::sync::{Arc, OnceLock};

/// Immutable domain context shared by all routers (the m-router's global
/// knowledge; i-routers only use the topology for neighbour checks).
#[derive(Debug)]
pub struct ScmpDomain {
    /// The domain topology.
    pub topo: Topology,
    /// `P_sl`/`P_lc` path tables (link-state database) — eager all-pairs
    /// at paper scale, on-demand memoized source trees for large domains.
    pub paths: Box<dyn PathProvider>,
    /// Protocol configuration.
    pub config: ScmpConfig,
    /// Failover view: the topology with the primary m-router's links
    /// removed, plus its path tables. Built on the first
    /// [`ScmpDomain::failover`] call, i.e. by a standby's takeover.
    failover: OnceLock<(Topology, Box<dyn PathProvider>)>,
}

impl ScmpDomain {
    /// Build the shared context (the path provider is chosen by domain
    /// size; see [`provider_for`]).
    pub fn new(topo: Topology, config: ScmpConfig) -> Arc<Self> {
        let paths = provider_for(&topo);
        Arc::new(ScmpDomain {
            topo,
            paths,
            config,
            failover: OnceLock::new(),
        })
    }

    /// The view a promoted standby plans trees in: the topology without
    /// the primary m-router's links, and its path tables. `None` when no
    /// standby is configured. Built on first use.
    pub fn failover(&self) -> Option<(&Topology, &dyn PathProvider)> {
        self.config.standby?;
        let (topo, paths) = self.failover.get_or_init(|| {
            let topo = self.topo.without_node(self.config.m_router);
            let paths = provider_for(&topo);
            (topo, paths)
        });
        Some((topo, &**paths))
    }

    /// True once [`ScmpDomain::failover`] has built the failover view.
    #[cfg(test)]
    pub(super) fn failover_is_built(&self) -> bool {
        self.failover.get().is_some()
    }
}
