//! Optimization profiles: open-source-grade vs. commercial-grade flows.

use chipforge_pdk::LibraryKind;
use chipforge_synth::SynthEffort;
use serde::{Deserialize, Serialize};

/// A bundle of optimization knobs modelling a flow's maturity.
///
/// The *open* profile mirrors an OpenROAD/OpenLane-class flow on an open
/// library; the *commercial* profile mirrors a foundry-qualified flow:
/// richer library, higher synthesis effort, denser placement, more
/// routing rounds and more aggressive timing closure. The resulting PPA
/// gap is measured by experiment E6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationProfile {
    /// Profile name.
    pub name: String,
    /// Which library variant to use (downgraded automatically on open
    /// PDKs).
    pub library: LibraryKind,
    /// Synthesis effort.
    pub synth_effort: SynthEffort,
    /// Target placement utilization.
    pub utilization: f64,
    /// Router rip-up iterations.
    pub route_iterations: usize,
    /// Gate-sizing iterations for timing closure.
    pub sizing_iterations: usize,
}

impl OptimizationProfile {
    /// Open-source-grade flow.
    #[must_use]
    pub fn open() -> Self {
        Self {
            name: "open".into(),
            library: LibraryKind::Open,
            synth_effort: SynthEffort::Standard,
            utilization: 0.65,
            route_iterations: 3,
            sizing_iterations: 2,
        }
    }

    /// Commercial-grade flow.
    #[must_use]
    pub fn commercial() -> Self {
        Self {
            name: "commercial".into(),
            library: LibraryKind::Commercial,
            synth_effort: SynthEffort::High,
            utilization: 0.75,
            route_iterations: 6,
            sizing_iterations: 8,
        }
    }

    /// A relaxed variant of this profile for degraded retries: lower
    /// placement utilization and reduced optimization effort, trading
    /// PPA for closure when a route or clock-tree stage fails
    /// transiently (chipforge-resil's graceful-degradation path).
    #[must_use]
    pub fn relaxed(&self) -> Self {
        Self {
            name: format!("{}-relaxed", self.name),
            library: self.library,
            synth_effort: self.synth_effort,
            utilization: (self.utilization - 0.10).max(0.40),
            route_iterations: self.route_iterations.max(2),
            sizing_iterations: self.sizing_iterations / 2,
        }
    }

    /// A minimal-effort profile for fast smoke runs and beginner tiers.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            name: "quick".into(),
            library: LibraryKind::Open,
            synth_effort: SynthEffort::Fast,
            utilization: 0.55,
            route_iterations: 2,
            sizing_iterations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commercial_tries_harder_everywhere() {
        let open = OptimizationProfile::open();
        let comm = OptimizationProfile::commercial();
        assert!(comm.route_iterations > open.route_iterations);
        assert!(comm.sizing_iterations > open.sizing_iterations);
        assert!(comm.utilization > open.utilization);
        assert_eq!(comm.library, LibraryKind::Commercial);
    }

    #[test]
    fn relaxed_lowers_effort_but_keeps_the_library() {
        for profile in [
            OptimizationProfile::open(),
            OptimizationProfile::commercial(),
            OptimizationProfile::quick(),
        ] {
            let relaxed = profile.relaxed();
            assert!(relaxed.utilization < profile.utilization);
            assert!(relaxed.sizing_iterations <= profile.sizing_iterations);
            assert_eq!(relaxed.library, profile.library);
            assert_eq!(relaxed.name, format!("{}-relaxed", profile.name));
            assert!(relaxed.utilization >= 0.40, "floor keeps layouts legal");
        }
    }

    #[test]
    fn quick_is_cheapest() {
        let quick = OptimizationProfile::quick();
        assert_eq!(quick.sizing_iterations, 0);
        assert_eq!(quick.synth_effort, SynthEffort::Fast);
    }
}
