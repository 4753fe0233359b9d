//! Property tests for the stage pipeline: cached-prefix restoration and
//! stage-key canonicalization.

use chipforge_flow::{
    canonical_outcome_json, FlowConfig, FlowCtx, FlowStep, OptimizationProfile, Pipeline,
    StageSnapshot, StageStore,
};
use chipforge_hdl::designs::{self, Design};
use chipforge_obs::Tracer;
use chipforge_pdk::TechnologyNode;
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// In-memory stage store that records every snapshot but only serves
/// restores for stages with index below `serve_below` — so a warm run
/// replays exactly a prefix of the pipeline and recomputes the suffix.
struct PrefixStore {
    map: RefCell<HashMap<u128, StageSnapshot>>,
    serve_below: Cell<usize>,
    served: Cell<usize>,
}

impl PrefixStore {
    fn new() -> Self {
        Self {
            map: RefCell::new(HashMap::new()),
            serve_below: Cell::new(0),
            served: Cell::new(0),
        }
    }
}

impl StageStore for PrefixStore {
    fn load(&self, key: u128, step: FlowStep) -> Option<StageSnapshot> {
        if step.index() >= self.serve_below.get() {
            return None;
        }
        let snap = self.map.borrow().get(&key).cloned()?;
        (snap.step == step).then(|| {
            self.served.set(self.served.get() + 1);
            snap
        })
    }

    fn store(&self, key: u128, snapshot: &StageSnapshot) {
        self.map.borrow_mut().insert(key, snapshot.clone());
    }
}

fn pick_design(index: usize, width: u8) -> Design {
    match index % 4 {
        0 => designs::counter(width),
        1 => designs::gray_encoder(width),
        2 => designs::popcount(width),
        _ => designs::shift_register(width),
    }
}

fn quick_config(clock_mhz: f64, seed: u64) -> FlowConfig {
    let mut config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
    config.clock_mhz = clock_mhz;
    config.seed = seed;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Restoring any cached prefix and recomputing the suffix yields an
    /// outcome byte-identical (modulo wall-clock) to the cold run.
    #[test]
    fn cached_prefix_plus_recomputed_suffix_is_byte_identical(
        index in 0usize..4,
        width in 3u8..7,
        prefix in 0usize..9,
        clock in 40.0f64..160.0,
    ) {
        let design = pick_design(index, width);
        let config = quick_config(clock, 7);
        let tracer = Tracer::disabled();
        let store = PrefixStore::new();

        let ctx = FlowCtx::new(&tracer).with_stages(&store);
        let cold = Pipeline::standard()
            .run(design.source(), &config, &ctx)
            .expect("cold run succeeds");
        let cold_json = canonical_outcome_json(&cold);

        store.serve_below.set(prefix);
        let warm = Pipeline::standard()
            .run(design.source(), &config, &ctx)
            .expect("warm run succeeds");
        let warm_json = canonical_outcome_json(&warm);

        prop_assert_eq!(store.served.get(), prefix.min(8), "restored-stage count");
        prop_assert_eq!(cold_json, warm_json);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stage keys are canonical: renaming the profile (a display-only
    /// field) never changes any key.
    #[test]
    fn stage_keys_ignore_the_profile_name(
        width in 3u8..9,
        clock in 10.0f64..500.0,
        seed in 0u64..1000,
        name in "[a-z]{1,12}",
    ) {
        let design = designs::counter(width);
        let mut config = quick_config(clock, seed);
        let baseline = Pipeline::stage_keys(design.source(), &config);
        config.profile.name = name;
        let renamed = Pipeline::stage_keys(design.source(), &config);
        prop_assert_eq!(baseline, renamed);
    }

    /// Stage keys pin exactly the config that reaches each stage: a seed
    /// change leaves the front-end (elaborate/synthesize/size) keys
    /// intact and changes every key from placement onward.
    #[test]
    fn seed_changes_invalidate_only_the_backend(
        width in 3u8..9,
        seed in 0u64..1000,
        bump in 1u64..50,
    ) {
        let design = designs::counter(width);
        let base = quick_config(100.0, seed);
        let moved = quick_config(100.0, seed + bump);
        let a = Pipeline::stage_keys(design.source(), &base);
        let b = Pipeline::stage_keys(design.source(), &moved);
        for (step, key) in &a[..FlowStep::Place.index()] {
            let other = b.iter().find(|(s, _)| s == step).expect("same stages");
            prop_assert_eq!(*key, other.1, "front-end key for {} moved", step);
        }
        for (step, key) in &a[FlowStep::Place.index()..] {
            let other = b.iter().find(|(s, _)| s == step).expect("same stages");
            prop_assert_ne!(*key, other.1, "backend key for {} unchanged", step);
        }
    }

    /// With zero sizing iterations the clock target first binds at
    /// signoff, so a clock sweep shares the six keys before it.
    #[test]
    fn quick_profile_clock_sweeps_share_the_pre_signoff_prefix(
        width in 3u8..9,
        clock in 10.0f64..200.0,
        scale in 1.5f64..4.0,
    ) {
        let design = designs::counter(width);
        let a = Pipeline::stage_keys(design.source(), &quick_config(clock, 3));
        let b = Pipeline::stage_keys(design.source(), &quick_config(clock * scale, 3));
        for i in 0..FlowStep::Signoff.index() {
            prop_assert_eq!(a[i].1, b[i].1, "pre-signoff key {} moved", a[i].0);
        }
        prop_assert_ne!(a[FlowStep::Signoff.index()].1, b[FlowStep::Signoff.index()].1);
        prop_assert_ne!(a[FlowStep::Export.index()].1, b[FlowStep::Export.index()].1);
    }
}

/// Which kernels run is no longer a config field framed into the place
/// and route slices: it is fixed at build time and pinned by
/// `STAGE_KEY_SCHEMA`. So the keys of one fixed config are pinned here
/// as literals, next to the values the last annealing binary (schema 1,
/// kernel names and move budget framed) computed for the same config.
/// They differ from the very first stage on, so a stage-cache directory
/// or journal that binary wrote can only miss — never restore an
/// annealed placement as this binary's result. Bump the schema, and
/// these literals with it, whenever a stage's kernel changes.
///
/// The equivalence engine is framed into the signoff slice instead
/// (`chipforge_verify::ENGINE_VERSION`): a new engine moves the signoff
/// and export keys and leaves place and route, and every stage before
/// them, where they were, so those still restore from an older cache.
#[test]
fn kernel_selection_is_pinned_by_the_backend_keys() {
    const SCHEMA_1: [u128; 8] = [
        0xf3767e4b5511ef014b6ad7acc1abb8eb,
        0x66b53cc513150d469a8bceb5e6e8dcf5,
        0xcbea0fcfe359472151ca7721008f3366,
        0x907847c2d29a471ce155e77fcc102eca,
        0xba7e0e6de98a512259bfbea139ed1070,
        0x3f8bb5cf6dfd41adbe36aadba4646646,
        0xc8e29ce2c563545178f825291b04592c,
        0xd48de1c63f4923201ffea65c2397ea64,
    ];
    assert_eq!(chipforge_flow::STAGE_KEY_SCHEMA, 2);
    let keys = Pipeline::stage_keys(designs::counter(8).source(), &quick_config(100.0, 3));
    let key = |step: FlowStep| keys[step.index()].1;
    assert_eq!(key(FlowStep::Place), 0x32eb7bd1139edf5bc53634bc0bb0f70c);
    assert_eq!(key(FlowStep::Route), 0xd18707cb7fc921425716873ec209ed74);
    assert_eq!(key(FlowStep::Export), 0x75b083ff2a67e54ae1212a96cae821e5);
    assert_ne!(
        key(FlowStep::Export),
        0x4f2dddf89c088667a88eec68a9662622,
        "the engine-1 binary's export key"
    );
    for ((step, now), then) in keys.iter().zip(SCHEMA_1) {
        assert_ne!(*now, then, "{step} key collides with the schema-1 binary's");
    }
}
