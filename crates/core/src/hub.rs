//! The one-stop enablement hub (Recommendation 7).

use crate::enablement::EnablementComparison;
use crate::tiers::{Tier, TierStrategy};
use chipforge_cloud::{
    simulate_hub, simulate_local, ConfigError, HubModel, ScenarioResult, WorkloadSpec,
};
use chipforge_flow::{FlowCtx, FlowError, FlowReport, Pipeline};
use chipforge_obs::Tracer;
use chipforge_pdk::TechnologyNode;
use std::error::Error;
use std::fmt;

/// Report of one hub-mediated design run.
#[derive(Debug, Clone)]
pub struct TierRunReport {
    /// The strategy used.
    pub strategy: TierStrategy,
    /// The flow report.
    pub flow: FlowReport,
    /// The GDSII produced.
    pub gds: Vec<u8>,
    /// MPW seat cost for the tier's die budget, EUR.
    pub seat_cost_eur: f64,
    /// Silicon turnaround, weeks.
    pub turnaround_weeks: f64,
    /// Onboarding effort for a new user at this tier, hours.
    pub onboarding_hours: f64,
}

/// Errors from hub operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum HubError {
    /// The underlying flow failed.
    Flow(FlowError),
}

impl fmt::Display for HubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HubError::Flow(e) => write!(f, "flow failed: {e}"),
        }
    }
}

impl Error for HubError {}

impl From<FlowError> for HubError {
    fn from(e: FlowError) -> Self {
        HubError::Flow(e)
    }
}

/// The centralized design-enablement hub.
///
/// One access point that provisions PDKs, flow templates and tier
/// strategies, so a user goes from RTL to GDSII without performing any
/// enablement work themselves — the platform the paper's Recommendation 7
/// asks Europractice to build.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct EnablementHub {
    strategies: Vec<TierStrategy>,
}

impl EnablementHub {
    /// Creates a hub with the recommended strategy per tier.
    #[must_use]
    pub fn new() -> Self {
        Self {
            strategies: Tier::ALL
                .into_iter()
                .map(TierStrategy::recommended)
                .collect(),
        }
    }

    /// The strategy served to a tier.
    #[must_use]
    pub fn strategy(&self, tier: Tier) -> &TierStrategy {
        self.strategies
            .iter()
            .find(|s| s.tier == tier)
            .expect("hub serves every tier")
    }

    /// Technology nodes offered by the hub across all tiers.
    #[must_use]
    pub fn catalog(&self) -> Vec<TechnologyNode> {
        let mut nodes: Vec<TechnologyNode> = self.strategies.iter().map(|s| s.node).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Runs a design through the tier's recommended flow.
    ///
    /// # Errors
    ///
    /// Returns [`HubError::Flow`] on flow failures (e.g. invalid RTL).
    pub fn run(&self, source: &str, tier: Tier) -> Result<TierRunReport, HubError> {
        let strategy = self.strategy(tier).clone();
        let outcome =
            Pipeline::standard().run(source, &strategy.flow_config(), &FlowCtx::default())?;
        Ok(TierRunReport {
            seat_cost_eur: strategy.seat_cost_eur(),
            turnaround_weeks: strategy.turnaround_weeks(),
            onboarding_hours: strategy.onboarding_hours(),
            strategy,
            flow: outcome.report,
            gds: outcome.gds,
        })
    }

    /// Quantifies availability-vs-enablement on a node (experiment E7).
    #[must_use]
    pub fn enablement_comparison(&self, node: TechnologyNode) -> EnablementComparison {
        EnablementComparison::for_node(node)
    }

    /// Simulates serving `spec` from this hub with `servers` flow servers
    /// vs. every university building its own environment (experiment E8).
    ///
    /// Setup efforts come from the enablement model of the intermediate
    /// tier's node; the hub dispatches by strict tier priority.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid workload or zero servers.
    pub fn adoption_scenarios(
        &self,
        spec: &WorkloadSpec,
        servers: usize,
    ) -> Result<(ScenarioResult, ScenarioResult), ConfigError> {
        let node = self.strategy(Tier::Intermediate).node;
        let cmp = EnablementComparison::for_node(node);
        // Local groups script from scratch; the hub amortizes one
        // template-based setup.
        let local = simulate_local(spec, cmp.from_scratch.hours)?;
        let central = simulate_hub(
            &spec.arrival_trace(),
            &HubModel::new(servers, cmp.with_template.hours),
            &Tracer::disabled(),
        )?;
        Ok((local, central))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;

    #[test]
    fn hub_runs_all_tiers_on_the_same_design() {
        let hub = EnablementHub::new();
        let design = designs::counter(8);
        for tier in Tier::ALL {
            let report = hub.run(design.source(), tier).unwrap();
            assert!(report.flow.ppa.cells > 0, "{tier}");
            assert!(!report.gds.is_empty());
        }
    }

    #[test]
    fn tier_envelopes_are_ordered() {
        let hub = EnablementHub::new();
        let design = designs::counter(8);
        let b = hub.run(design.source(), Tier::Beginner).unwrap();
        let a = hub.run(design.source(), Tier::Advanced).unwrap();
        assert!(b.seat_cost_eur < a.seat_cost_eur);
        assert!(b.onboarding_hours < a.onboarding_hours);
        assert!(b.turnaround_weeks < a.turnaround_weeks);
        // Advanced silicon is faster.
        assert!(a.flow.ppa.fmax_mhz > b.flow.ppa.fmax_mhz);
    }

    #[test]
    fn catalog_lists_offered_nodes() {
        let hub = EnablementHub::new();
        let catalog = hub.catalog();
        assert!(catalog.contains(&TechnologyNode::N130));
        assert!(catalog.contains(&TechnologyNode::N16));
    }

    #[test]
    fn bad_rtl_surfaces_as_hub_error() {
        let hub = EnablementHub::new();
        let err = hub
            .run("module x() { output y; }", Tier::Beginner)
            .unwrap_err();
        assert!(matches!(err, HubError::Flow(_)));
    }

    #[test]
    fn adoption_scenarios_favor_the_hub() {
        let hub = EnablementHub::new();
        let spec = WorkloadSpec::new(6, 15, 72.0, 17);
        let (local, central) = hub.adoption_scenarios(&spec, 6).unwrap();
        assert!(central.setup_hours_total < local.setup_hours_total / 5.0);
        assert_eq!(local.completed, central.completed);
    }
}
