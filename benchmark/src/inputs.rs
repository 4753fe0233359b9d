//! Seeded inputs: design lists, job mixes, shuffles and the open-loop
//! arrival schedule. Everything here is a pure function of `--seed`;
//! the program under test only ever sees what these functions return.
//!
//! The *work* of each workload is pinned: `seed=1` in the `gen:` specs of
//! the fixed lists, `gen` seeds counted up from 1 for the hub's fresh
//! submissions, and one flow seed ([`FLOW_SEED`]) for every job. Across
//! `gen` seeds one design's flow time varies up to sixfold and an
//! 18-design pass by ±8 %; across flow seeds a pass still varies by ±6 %
//! (placement moves routing). The driver compares runs of different
//! seeds, and no regression bound could absorb that. `--seed` drives
//! what may vary without changing how much work a run holds: the order
//! of the designs, which jobs are duplicated and where, where a sweep
//! starts, and the hub's arrival offsets, the order of its tier and kind
//! mix, its clocks and which earlier job a resubmission repeats.

use chipforge_exec::JobSpec;
use chipforge_flow::{FlowConfig, OptimizationProfile};
use chipforge_gen::{Family, GenSpec};
use chipforge_hdl::designs::Design;
use chipforge_pdk::TechnologyNode;

/// SplitMix64: tiny, seedable, and owned by the harness so a schedule
/// never changes because a vendored crate did.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`) of one seed.
    pub fn stream(seed: u64, label: &str) -> Self {
        Rng(seed ^ chipforge_resil::fnv64(label.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The placement seed of every flow the benchmark runs.
pub const FLOW_SEED: u64 = 1;

fn spec(family: Family, width: u8, depth: u8, unroll: u8) -> GenSpec {
    GenSpec {
        family,
        width,
        depth,
        unroll,
        seed: 1,
    }
}

/// Resolves a spec through the one public name-to-design function, as
/// the CLI, batch manifests and the hub do.
pub fn resolve(spec: &GenSpec) -> Design {
    chipforge_gen::resolve(&spec.to_string()).expect("corpus specs are inside the knob ranges")
}

/// `flow_cold`: the 15-spec reference corpus plus three wide, deep,
/// fully unrolled designs — 73 to about 4 000 cells, the range of a
/// TinyTapeout tile.
pub fn flow_cold_specs() -> Vec<GenSpec> {
    let mut specs = chipforge_gen::corpus();
    for family in [Family::NocRouter, Family::CryptoRound, Family::CpuCtrl] {
        specs.push(spec(family, 32, 8, 4));
    }
    specs
}

/// The flow configuration of `flow_cold`: open profile, 130 nm, 50 MHz,
/// default kernels.
pub fn flow_cold_config() -> FlowConfig {
    FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open())
        .with_clock_mhz(50.0)
        .with_seed(FLOW_SEED)
}

fn profile(name: &str) -> OptimizationProfile {
    match name {
        "quick" => OptimizationProfile::quick(),
        _ => OptimizationProfile::open(),
    }
}

fn job(design: &Design, profile_name: &str, clock_mhz: f64) -> JobSpec {
    JobSpec::new(
        design.name(),
        design.source(),
        TechnologyNode::N130,
        profile(profile_name),
    )
    .with_clock_mhz(clock_mhz)
    .with_seed(FLOW_SEED)
}

/// Every clock × profile × design combination, clock outermost: the whole
/// class at one clock, then again at the next. Jobs that share a front
/// end are then a class apart, so the second finds the first's stages
/// stored instead of racing it for them — adjacent, two workers pick both
/// up at once and whether the second restores or recomputes is a matter
/// of microseconds (throughput then spread ±10 % over seeds).
fn sweep(designs: &[GenSpec], clocks: &[f64]) -> Vec<JobSpec> {
    let designs: Vec<Design> = designs.iter().map(resolve).collect();
    let mut jobs = Vec::new();
    for &clock in clocks {
        for profile_name in ["quick", "open"] {
            for design in &designs {
                jobs.push(job(design, profile_name, clock));
            }
        }
    }
    jobs
}

/// `batch_classroom`: six designs × {quick, open} × {50, 100 MHz} = 24
/// distinct jobs, the class at 50 MHz and then at 100 MHz, followed by
/// 12 exact duplicates (the ≈35 % resubmission share of the semester
/// model): the whole first class resubmitted, in seeded order.
///
/// Only the order of the duplicates is seeded. With two workers and four
/// 0.4 s jobs among 10 ms ones, the order of the distinct jobs decides
/// the makespan, and a duplicate that arrives while its 0.4 s original is
/// still running is computed a second time (the engine has no
/// single-flight): with duplicates of seeded choice at seeded positions,
/// throughput spread ±10 % over seeds.
pub fn classroom_jobs(seed: u64) -> Vec<JobSpec> {
    let designs = [
        spec(Family::CpuCtrl, 16, 4, 1),
        spec(Family::DspFft, 16, 4, 1),
        spec(Family::NocRouter, 32, 8, 4),
        spec(Family::CryptoRound, 24, 6, 2),
        spec(Family::DspFir, 12, 2, 2),
        spec(Family::NocRouter, 16, 4, 2),
    ];
    let mut jobs = sweep(&designs, &[50.0, 100.0]);
    let mut duplicates = jobs[..12].to_vec();
    Rng::stream(seed, "classroom").shuffle(&mut duplicates);
    jobs.extend(duplicates);
    jobs
}

/// One job of each of the `n` smallest designs (by source length), for
/// warming a process up and for capturing real stage snapshots cheaply.
pub fn cheapest_jobs(jobs: &[JobSpec], n: usize) -> Vec<JobSpec> {
    let mut cheapest: Vec<&JobSpec> = jobs.iter().collect();
    cheapest.sort_by_key(|j| j.source.len());
    cheapest.dedup_by_key(|j| j.name.clone());
    cheapest.into_iter().take(n).cloned().collect()
}

/// Distinct jobs in a list, by artifact cache key.
pub fn distinct_jobs(jobs: &[JobSpec]) -> usize {
    let mut keys: Vec<String> = jobs
        .iter()
        .map(|j| chipforge_exec::CacheKey::of(j).to_string())
        .collect();
    keys.sort();
    keys.dedup();
    keys.len()
}

/// The remote sweeps: four designs × {quick, open} × {25, 50, 100, 200
/// MHz} = 32 jobs sharing front ends, in listing order, starting at a
/// seeded job and wrapping around.
///
/// The designs are the largest of each family whose every stage snapshot
/// stays under the hub's 1 MiB request-body cap (the largest is 0.62 MB).
/// Above it — from about 700 cells, where the export snapshot's GDS bytes
/// alone pass 1 MiB as JSON — the hub answers 413 before reading the
/// body, the client sees a broken pipe, retries with back-off and gives
/// up, so nothing is stored and the "fetching" engine recomputes.
pub fn remote_sweep_jobs(seed: u64) -> Vec<JobSpec> {
    let designs = [
        spec(Family::CpuCtrl, 12, 2, 2),
        spec(Family::DspFir, 12, 2, 2),
        spec(Family::CryptoRound, 24, 4, 1),
        spec(Family::NocRouter, 16, 4, 2),
    ];
    let mut jobs = sweep(&designs, &[25.0, 50.0, 100.0, 200.0]);
    let start = Rng::stream(seed, "remote-sweep").below(jobs.len());
    jobs.rotate_left(start);
    jobs
}

/// Arrival rate of `hub_open_loop`, frozen after measuring hub worker
/// utilisation on the 2-core reference machine (see the README).
pub const HUB_RATE_PER_S: f64 = 30.0;

const TIER_PROFILES: [&str; 3] = ["quick", "open", "open"];
pub const TIER_KEYS: [&str; 3] = ["demo-beginner", "demo-intermediate", "demo-advanced"];
const HUB_CLOCKS: [f64; 4] = [25.0, 50.0, 100.0, 200.0];

/// How an arrival relates to earlier ones of its tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// A design nobody submitted before (new `gen` seed).
    Fresh,
    /// An earlier submission, byte for byte.
    Resubmit,
    /// An earlier design at a new clock.
    Incremental,
}

/// One scheduled hub submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the loop starts at which the job is due.
    pub due_s: f64,
    /// 0 beginner, 1 intermediate, 2 advanced.
    pub tier: usize,
    pub kind: ArrivalKind,
    /// The `gen:` spec submitted as `design`.
    pub design: GenSpec,
    pub profile: &'static str,
    pub clock_mhz: f64,
    pub flow_seed: u64,
}

impl Arrival {
    /// The `POST /api/v1/jobs` body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"design":"{}","profile":"{}","clock_mhz":{},"seed":{}}}"#,
            self.design, self.profile, self.clock_mhz, self.flow_seed
        )
    }

    /// Identity of the artifact this arrival asks for: equal identities
    /// must come back with equal PPA and GDS.
    pub fn identity(&self) -> String {
        format!("{}|{}|{}", self.design, self.profile, self.clock_mhz)
    }
}

/// Deals `pattern` out in shuffled blocks: every run of `pattern.len()`
/// draws holds each entry exactly once, in seeded order. The shares are
/// then exact over the run, and a rare heavy entry never clusters.
struct Dealer<T: Copy> {
    pattern: Vec<T>,
    hand: Vec<T>,
}

impl<T: Copy> Dealer<T> {
    fn new(pattern: Vec<T>) -> Self {
        Dealer {
            pattern,
            hand: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.hand.is_empty() {
            self.hand = self.pattern.clone();
            rng.shuffle(&mut self.hand);
        }
        self.hand.pop().expect("patterns are never empty")
    }
}

fn pattern<T: Copy>(counts: &[(T, usize)]) -> Vec<T> {
    counts
        .iter()
        .flat_map(|&(item, count)| std::iter::repeat_n(item, count))
        .collect()
}

/// The open-loop schedule: `rate × seconds` arrivals, one per slot of
/// `1/rate` seconds at a seeded uniform offset inside its slot. Of every
/// 20 slots one is the advanced tier's (drawn once per seed), five at
/// fixed distances from it the intermediate tier's and 14 the beginner
/// tier's, so the heavier jobs arrive evenly spaced. Within a tier, kinds
/// (35 % exact resubmission, 20 % incremental, 45 % fresh) are dealt in
/// shuffled blocks of twenty. A tier's fresh jobs alternate between its
/// two calibration designs and count `gen` seeds up from 1: every seed
/// submits the same designs, in another order, at other times and clocks.
///
/// Independent (Poisson) arrivals with independently drawn tiers were
/// measured first and could not be kept: with only ~15 heavy advanced
/// jobs in a run, whether two of them overlap on the hub's two workers
/// decided the tail, and the p95 spread over seeds was 84 % of its
/// median. Spacing the heavy jobs evenly removes that lottery; what
/// queueing remains comes from the load, not from the draw.
pub fn hub_schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::stream(seed, "hub-schedule");
    let count = (HUB_RATE_PER_S * seconds).round().max(1.0) as usize;
    let due: Vec<f64> = (0..count)
        .map(|slot| (slot as f64 + rng.unit()) / HUB_RATE_PER_S)
        .collect();
    let tier_designs = chipforge_gen::calibration_specs();
    let advanced_slot = rng.below(20);
    let kinds = pattern(&[
        (ArrivalKind::Resubmit, 7),
        (ArrivalKind::Incremental, 4),
        (ArrivalKind::Fresh, 9),
    ]);
    let mut tier_kinds = [0, 1, 2].map(|_| Dealer::new(kinds.clone()));
    let mut tier_picks = [0, 1, 2]
        .map(|tier: usize| Dealer::new((0..tier_designs[tier].len()).collect::<Vec<usize>>()));
    let mut next_gen_seed = [0, 1, 2].map(|tier: usize| vec![1u64; tier_designs[tier].len()]);
    let mut history: [Vec<Arrival>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut schedule = Vec::with_capacity(count);
    for (slot, due_s) in due.into_iter().enumerate() {
        let tier = match (slot + 20 - advanced_slot) % 20 {
            0 => 2,
            3 | 7 | 11 | 14 | 17 => 1,
            _ => 0,
        };
        let earlier = &history[tier];
        let kind = match tier_kinds[tier].deal(&mut rng) {
            // Nothing to repeat yet: the tier's first job is fresh.
            _ if earlier.is_empty() => ArrivalKind::Fresh,
            kind => kind,
        };
        let arrival = match kind {
            ArrivalKind::Fresh => {
                let pick = tier_picks[tier].deal(&mut rng);
                let mut design = tier_designs[tier][pick];
                design.seed = next_gen_seed[tier][pick];
                next_gen_seed[tier][pick] += 1;
                Arrival {
                    due_s,
                    tier,
                    kind,
                    design,
                    profile: TIER_PROFILES[tier],
                    clock_mhz: HUB_CLOCKS[rng.below(HUB_CLOCKS.len())],
                    flow_seed: FLOW_SEED,
                }
            }
            ArrivalKind::Resubmit => Arrival {
                due_s,
                kind,
                ..earlier[rng.below(earlier.len())].clone()
            },
            ArrivalKind::Incremental => {
                let base = earlier[rng.below(earlier.len())].clone();
                // A clock the base did not use: the front end is shared,
                // signoff (and, with sizing, everything after it) is not.
                let others: Vec<f64> = HUB_CLOCKS
                    .into_iter()
                    .filter(|&c| c != base.clock_mhz)
                    .collect();
                Arrival {
                    due_s,
                    kind,
                    clock_mhz: others[rng.below(others.len())],
                    ..base
                }
            }
        };
        history[tier].push(arrival.clone());
        schedule.push(arrival);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canonical text form of a schedule, for byte-identity checks.
    fn schedule_text(schedule: &[Arrival]) -> String {
        schedule
            .iter()
            .map(|a| format!("{:.9} {} {}\n", a.due_s, TIER_KEYS[a.tier], a.body()))
            .collect()
    }

    #[test]
    fn equal_seeds_give_byte_identical_schedules_and_different_seeds_differ() {
        let a = schedule_text(&hub_schedule(7, 5.0));
        let b = schedule_text(&hub_schedule(7, 5.0));
        let c = schedule_text(&hub_schedule(8, 5.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_fixed_count_sorted_dues_and_the_stated_mix() {
        let schedule = hub_schedule(3, 50.0);
        assert_eq!(schedule.len(), (HUB_RATE_PER_S * 50.0) as usize);
        assert!(schedule.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(schedule.iter().all(|a| (0.0..50.0).contains(&a.due_s)));
        let share = |f: &dyn Fn(&Arrival) -> bool| {
            schedule.iter().filter(|a| f(a)).count() as f64 / schedule.len() as f64
        };
        assert!((share(&|a| a.tier == 0) - 0.70).abs() < 1e-9);
        assert!((share(&|a| a.tier == 2) - 0.05).abs() < 1e-9);
        assert!((share(&|a| a.kind == ArrivalKind::Resubmit) - 0.35).abs() < 0.02);
        assert!((share(&|a| a.kind == ArrivalKind::Incremental) - 0.20).abs() < 0.02);
        // A resubmission repeats an earlier body of its tier exactly; an
        // incremental one keeps the design and changes the clock.
        for (i, a) in schedule.iter().enumerate() {
            let earlier = &schedule[..i];
            match a.kind {
                ArrivalKind::Fresh => {
                    assert!(earlier.iter().all(|e| e.design != a.design));
                }
                ArrivalKind::Resubmit => {
                    assert!(earlier
                        .iter()
                        .any(|e| e.tier == a.tier && e.body() == a.body()));
                }
                ArrivalKind::Incremental => {
                    assert!(earlier.iter().any(|e| e.tier == a.tier
                        && e.design == a.design
                        && e.clock_mhz != a.clock_mhz));
                }
            }
        }
    }

    #[test]
    fn job_mixes_are_seeded() {
        let text = |jobs: &[JobSpec]| -> String {
            jobs.iter()
                .map(|j| format!("{} {} {} {}\n", j.name, j.profile.name, j.clock_mhz, j.seed))
                .collect()
        };
        assert_eq!(text(&classroom_jobs(5)), text(&classroom_jobs(5)));
        assert_ne!(text(&classroom_jobs(5)), text(&classroom_jobs(6)));
        assert_eq!(text(&remote_sweep_jobs(5)), text(&remote_sweep_jobs(5)));
        assert_ne!(text(&remote_sweep_jobs(5)), text(&remote_sweep_jobs(6)));
    }

    #[test]
    fn job_mixes_have_the_stated_shape() {
        let classroom = classroom_jobs(1);
        assert_eq!(classroom.len(), 36);
        assert_eq!(distinct_jobs(&classroom), 24);
        let sweep = remote_sweep_jobs(1);
        assert_eq!(sweep.len(), 32);
        assert_eq!(distinct_jobs(&sweep), 32);
        assert_eq!(flow_cold_specs().len(), 18);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::stream(9, "test").shuffle(&mut items);
        let mut back = items.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<u32>>());
        assert_ne!(items, back);
    }
}
