//! Property tests for cache-key canonicalization: the key must be a
//! function of exactly the inputs that determine the artifact — labels
//! never matter, behavioral knobs always do.

use chipforge_exec::{CacheKey, JobSpec};
use chipforge_flow::OptimizationProfile;
use chipforge_pdk::{LibraryKind, TechnologyNode};
use chipforge_synth::SynthEffort;
use proptest::prelude::*;
use proptest::sample::select;

fn any_node() -> BoxedStrategy<TechnologyNode> {
    select(vec![
        TechnologyNode::N180,
        TechnologyNode::N130,
        TechnologyNode::N90,
        TechnologyNode::N65,
        TechnologyNode::N28,
    ])
    .boxed()
}

fn any_profile() -> impl Strategy<Value = OptimizationProfile> {
    (
        select(vec![LibraryKind::Open, LibraryKind::Commercial]),
        select(vec![
            SynthEffort::Fast,
            SynthEffort::Standard,
            SynthEffort::High,
        ]),
        (40usize..90, 1usize..8, 1usize..10),
    )
        .prop_map(
            |(library, synth_effort, (util_pct, route, sizing))| OptimizationProfile {
                name: "generated".into(),
                library,
                synth_effort,
                utilization: util_pct as f64 / 100.0,
                route_iterations: route,
                sizing_iterations: sizing,
            },
        )
}

fn any_spec() -> impl Strategy<Value = JobSpec> {
    (
        "[a-z][a-z0-9_]{0,10}",
        any_node(),
        any_profile(),
        (10u64..2_000, 1u64..1_000, any::<bool>()),
    )
        .prop_map(|(source_tag, node, profile, (clock_x10, seed, scan))| {
            let mut spec = JobSpec::new("job", format!("module {source_tag};"), node, profile)
                .with_clock_mhz(clock_x10 as f64 / 10.0)
                .with_seed(seed);
            if scan {
                spec = spec.with_scan();
            }
            spec
        })
}

proptest! {
    #[test]
    fn labels_never_affect_the_key(
        spec in any_spec(),
        job_label in "[A-Za-z][A-Za-z0-9_-]{0,16}",
        profile_label in "[A-Za-z][A-Za-z0-9_-]{0,16}",
    ) {
        let mut relabelled = spec.clone();
        relabelled.name = job_label;
        relabelled.profile.name = profile_label;
        prop_assert_eq!(CacheKey::of(&relabelled), CacheKey::of(&spec));
    }

    #[test]
    fn equal_configs_hash_equal(spec in any_spec()) {
        let clone = spec.clone();
        prop_assert_eq!(CacheKey::of(&clone), CacheKey::of(&spec));
    }

    #[test]
    fn every_differing_knob_changes_the_key(spec in any_spec(), knob in 0usize..8) {
        let mut mutated = spec.clone();
        match knob {
            0 => mutated.source.push('x'),
            1 => {
                mutated.node = if mutated.node == TechnologyNode::N65 {
                    TechnologyNode::N90
                } else {
                    TechnologyNode::N65
                };
            }
            2 => {
                mutated.profile.library = match mutated.profile.library {
                    LibraryKind::Open => LibraryKind::Commercial,
                    LibraryKind::Commercial => LibraryKind::Open,
                };
            }
            3 => {
                mutated.profile.synth_effort = match mutated.profile.synth_effort {
                    SynthEffort::Fast => SynthEffort::Standard,
                    SynthEffort::Standard => SynthEffort::High,
                    SynthEffort::High => SynthEffort::Fast,
                };
            }
            4 => mutated.profile.utilization += 0.001,
            5 => mutated.profile.route_iterations += 1,
            6 => mutated.profile.sizing_iterations += 1,
            _ => {
                mutated.clock_mhz += 0.1;
                mutated.seed += 1;
                mutated.insert_scan = !mutated.insert_scan;
            }
        }
        prop_assert_ne!(CacheKey::of(&mutated), CacheKey::of(&spec), "knob {}", knob);
    }

    #[test]
    fn key_display_is_stable_32_hex_chars(spec in any_spec()) {
        let shown = CacheKey::of(&spec).to_string();
        prop_assert_eq!(shown.len(), 32);
        prop_assert!(shown.chars().all(|c| c.is_ascii_hexdigit()));
        prop_assert_eq!(CacheKey::of(&spec).to_string(), shown);
    }
}
