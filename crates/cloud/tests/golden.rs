//! Golden values for the hub simulation, recorded before its strict-
//! priority/outage and admission/fair-share loops were merged into one.
//! Counts are exact; floats must agree to within 1e-9 (the merged loop
//! sums turnarounds in trace order, so the last bits of a mean may move).

use chipforge_admit::AdmissionPolicy;
use chipforge_cloud::{simulate_hub, Dispatch, HubArrival, HubModel, ScenarioResult, WorkloadSpec};
use chipforge_obs::Tracer;
use chipforge_resil::OutagePlan;

fn close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= 1e-9,
        "{what}: got {got:?}, recorded {want:?}"
    );
}

/// E15b: `(mean uptime h or none, requeue, completed, lost, outages,
/// mean turnaround h, p95 h, utilization)`, 240 jobs on 4 servers.
type Outage = (Option<f64>, bool, usize, usize, usize, f64, f64, f64);

const E15B: [Outage; 7] = [
    (
        None,
        true,
        240,
        0,
        0,
        3.0743224261477424,
        15.30041114966889,
        0.09764837170057097,
    ),
    (
        Some(400.0),
        true,
        240,
        0,
        19,
        3.40922563862331,
        15.34350971663821,
        0.10816365856366325,
    ),
    (
        Some(400.0),
        false,
        235,
        5,
        19,
        2.587103230828715,
        11.621886089729173,
        0.0906507557843557,
    ),
    (
        Some(200.0),
        true,
        240,
        0,
        32,
        3.260661360903951,
        15.34350971663821,
        0.10356697457989313,
    ),
    (
        Some(200.0),
        false,
        235,
        5,
        32,
        2.9261471354124953,
        14.857390463386764,
        0.0969242564940939,
    ),
    (
        Some(100.0),
        true,
        240,
        0,
        58,
        3.5561901807716816,
        16.71568835427206,
        0.10733042561482212,
    ),
    (
        Some(100.0),
        false,
        235,
        5,
        58,
        2.5270893694518635,
        11.621886089729173,
        0.08708596776600319,
    ),
];

#[test]
fn e15b_outage_configurations_match_the_recorded_values() {
    let trace = WorkloadSpec::new(8, 30, 48.0, 7).arrival_trace();
    for (uptime, requeue, completed, lost, outages, mean, p95, utilization) in E15B {
        let model = HubModel {
            outage: uptime.map(|h| OutagePlan::new(9, h, 24.0)),
            requeue,
            ..HubModel::new(4, 0.0)
        };
        let r = simulate_hub(&trace, &model, &Tracer::disabled()).unwrap();
        let case = format!("uptime {uptime:?}, requeue {requeue}");
        assert_eq!(
            (r.completed, r.lost, r.outages),
            (completed, lost, outages),
            "{case}"
        );
        close(&format!("{case} mean"), r.mean_turnaround_h, mean);
        close(&format!("{case} p95"), r.p95_turnaround_h, p95);
        close(&format!("{case} utilization"), r.utilization, utilization);
    }
}

/// Per tier: `(offered, admitted, rejected, shed, completed, peak depth,
/// max wait h, mean turnaround h, p99 h)`.
type Tier = (usize, usize, usize, usize, usize, usize, f64, f64, f64);

/// E16: `(load multiplier, policy, completed, mean turnaround h, p95 h,
/// p99 h, horizon h, utilization, tiers)`, 1800 jobs on 6 servers.
type Cell = (f64, &'static str, usize, f64, f64, f64, f64, f64, [Tier; 3]);

const E16: [Cell; 9] = [
    (
        0.5,
        "unbounded",
        1800,
        3.962734374407167,
        19.686520013616928,
        54.225110492631984,
        2602.460821406885,
        0.4464952739298702,
        [
            (
                1069,
                1069,
                0,
                0,
                1069,
                3,
                3.6426777854094325,
                0.5687497811351414,
                3.020898003711409,
            ),
            (
                549,
                549,
                0,
                0,
                549,
                4,
                7.919800331321767,
                4.181706598671464,
                18.858376550226694,
            ),
            (
                182,
                182,
                0,
                0,
                182,
                1,
                9.209637064080198,
                23.23720568807028,
                87.9249297651888,
            ),
        ],
    ),
    (
        0.5,
        "bounded-reject",
        1800,
        3.962734374407167,
        19.686520013616928,
        54.225110492631984,
        2602.460821406885,
        0.4464952739298702,
        [
            (
                1069,
                1069,
                0,
                0,
                1069,
                3,
                3.6426777854094325,
                0.5687497811351414,
                3.020898003711409,
            ),
            (
                549,
                549,
                0,
                0,
                549,
                4,
                7.919800331321767,
                4.181706598671464,
                18.858376550226694,
            ),
            (
                182,
                182,
                0,
                0,
                182,
                1,
                9.209637064080198,
                23.23720568807028,
                87.9249297651888,
            ),
        ],
    ),
    (
        0.5,
        "bounded-shed",
        1800,
        3.962734374407167,
        19.686520013616928,
        54.225110492631984,
        2602.460821406885,
        0.4464952739298702,
        [
            (
                1069,
                1069,
                0,
                0,
                1069,
                3,
                3.6426777854094325,
                0.5687497811351414,
                3.020898003711409,
            ),
            (
                549,
                549,
                0,
                0,
                549,
                4,
                7.919800331321767,
                4.181706598671464,
                18.858376550226694,
            ),
            (
                182,
                182,
                0,
                0,
                182,
                1,
                9.209637064080198,
                23.23720568807028,
                87.9249297651888,
            ),
        ],
    ),
    (
        1.0,
        "unbounded",
        1800,
        9.150440112759748,
        50.0916862018106,
        102.91734602055561,
        1301.988939863941,
        0.8924702981480398,
        [
            (
                1069,
                1069,
                0,
                0,
                1069,
                20,
                18.092287012355314,
                2.120518026711767,
                14.91704881790929,
            ),
            (
                549,
                549,
                0,
                0,
                549,
                16,
                46.683075288216656,
                8.875301638145222,
                46.62954099075188,
            ),
            (
                182,
                182,
                0,
                0,
                182,
                14,
                115.75854978766819,
                51.271526555334574,
                151.1663134529757,
            ),
        ],
    ),
    (
        1.0,
        "bounded-reject",
        1693,
        5.4399359022928975,
        23.961502187059324,
        59.71340373134046,
        1301.988939863941,
        0.8179798744144676,
        [
            (
                1069,
                1017,
                52,
                0,
                1017,
                4,
                8.614132689947759,
                1.3226761556561488,
                6.901136306494152,
            ),
            (
                549,
                507,
                42,
                0,
                507,
                4,
                15.680483857530476,
                5.813444422066675,
                22.18828754486094,
            ),
            (
                182,
                169,
                13,
                0,
                169,
                4,
                41.050307711468065,
                29.096056273915828,
                105.90367491034311,
            ),
        ],
    ),
    (
        1.0,
        "bounded-shed",
        1707,
        5.287488476343702,
        24.57337489255019,
        59.71340373134046,
        1301.988939863941,
        0.8272804291738881,
        [
            (
                1069,
                1069,
                0,
                42,
                1027,
                4,
                6.016424698971605,
                1.2230556458792148,
                4.970365184103599,
            ),
            (
                549,
                549,
                0,
                39,
                510,
                4,
                11.008342821189899,
                5.601191898361387,
                21.91580566067603,
            ),
            (
                182,
                182,
                0,
                12,
                170,
                4,
                39.48952956610705,
                28.900334191979034,
                103.96630427935334,
            ),
        ],
    ),
    (
        2.0,
        "unbounded",
        1800,
        87.39690919404607,
        525.4390538057236,
        571.1602492423056,
        1203.5313747868886,
        0.9654808189371675,
        [
            (
                1069,
                1069,
                0,
                0,
                1069,
                13,
                6.91711630008831,
                1.6174337276707795,
                6.263617513120607,
            ),
            (
                549,
                549,
                0,
                0,
                549,
                186,
                239.74603688014747,
                134.45391943541594,
                240.8810929649518,
            ),
            (
                182,
                182,
                0,
                0,
                182,
                124,
                554.9067741850257,
                449.2868028810964,
                617.6705270937566,
            ),
        ],
    ),
    (
        2.0,
        "bounded-reject",
        1423,
        5.455642851477127,
        21.32192378959968,
        67.62225570560594,
        651.7529990924687,
        0.942529309495048,
        [
            (
                1069,
                961,
                108,
                0,
                961,
                4,
                10.335255187967675,
                1.4092057440116372,
                5.837943078061244,
            ),
            (
                549,
                382,
                167,
                0,
                382,
                4,
                16.257274190855014,
                7.455423294393213,
                24.937861503844175,
            ),
            (
                182,
                80,
                102,
                0,
                80,
                4,
                70.52204209468545,
                44.51451698998202,
                117.3348638215759,
            ),
        ],
    ),
    (
        2.0,
        "bounded-shed",
        1368,
        4.295215922996779,
        15.577909058788919,
        54.27570722278604,
        661.9516953243201,
        0.9345156609070123,
        [
            (
                1069,
                1069,
                0,
                157,
                912,
                4,
                5.9542805984718825,
                1.2839404389627704,
                4.076453206926411,
            ),
            (
                549,
                549,
                0,
                168,
                381,
                4,
                9.408913118365376,
                6.230647725687195,
                21.91349824382715,
            ),
            (
                182,
                182,
                0,
                107,
                75,
                4,
                24.041618956097096,
                31.08033225118288,
                103.73881878331704,
            ),
        ],
    ),
];

fn e16_policy(name: &str) -> AdmissionPolicy {
    match name {
        "unbounded" => AdmissionPolicy::unbounded(3),
        "bounded-reject" => AdmissionPolicy::bounded(3, 4)
            .with_weights(vec![2.0, 1.5, 1.0])
            .with_aging(0.25),
        "bounded-shed" => AdmissionPolicy::bounded(3, 4)
            .with_shed_oldest()
            .with_weights(vec![2.0, 1.5, 1.0])
            .with_aging(0.25),
        other => panic!("unknown policy {other}"),
    }
}

#[test]
fn e16_grid_matches_the_recorded_values() {
    for (multiplier, policy, completed, mean, p95, p99, horizon, utilization, tiers) in E16 {
        let trace = WorkloadSpec::new(12, 150, 7.8 / multiplier, 416).arrival_trace();
        let model = HubModel {
            admission: e16_policy(policy),
            dispatch: Dispatch::FairShare,
            ..HubModel::new(6, 0.0)
        };
        let r: ScenarioResult = simulate_hub(&trace, &model, &Tracer::disabled()).unwrap();
        let case = format!("{multiplier}x {policy}");
        assert_eq!(r.completed, completed, "{case}");
        close(&format!("{case} mean"), r.mean_turnaround_h, mean);
        close(&format!("{case} p95"), r.p95_turnaround_h, p95);
        close(&format!("{case} p99"), r.p99_turnaround_h, p99);
        close(&format!("{case} horizon"), r.horizon_h, horizon);
        close(&format!("{case} utilization"), r.utilization, utilization);
        for (class, (got, want)) in r.tiers.iter().zip(tiers).enumerate() {
            let (offered, admitted, rejected, shed, done, peak, max_wait, tier_mean, tier_p99) =
                want;
            let case = format!("{case} tier {class}");
            assert_eq!(
                (
                    got.offered,
                    got.admitted,
                    got.rejected,
                    got.shed,
                    got.completed,
                    got.peak_depth
                ),
                (offered, admitted, rejected, shed, done, peak),
                "{case}"
            );
            close(&format!("{case} max wait"), got.max_wait_h, max_wait);
            close(&format!("{case} mean"), got.mean_turnaround_h, tier_mean);
            close(&format!("{case} p99"), got.p99_turnaround_h, tier_p99);
        }
    }
}

/// Two beginner jobs arrive together and take servers 0 and 1. The plan
/// fails server 1 first and server 0 while server 1 is still down, both
/// before either job can finish, so the later arrival is requeued first.
/// When a server returns it must still take the earlier arrival.
#[test]
fn requeued_jobs_are_dispatched_in_arrival_order() {
    let plan = (0..1_000)
        .map(|seed| OutagePlan::new(seed, 10.0, 10.0))
        .find(|p| {
            let (down0, down1) = (p.uptime_h(0, 0), p.uptime_h(1, 0));
            down1 < down0 && down0 < down1 + p.repair_h(1, 0)
        })
        .expect("some seed fails server 1 first");
    let job = |university| HubArrival {
        university,
        arrival_h: 0.0,
        tier: chipforge_cloud::AccessTier::Beginner,
        service_h: 10.0 * plan.uptime_h(0, 0),
    };
    let model = HubModel {
        outage: Some(plan),
        ..HubModel::new(2, 0.0)
    };
    let tracer = Tracer::new();
    let r = simulate_hub(&[job(0), job(1)], &model, &tracer).unwrap();
    assert_eq!(r.completed, 2);

    let requeues: Vec<_> = tracer
        .instants()
        .into_iter()
        .filter(|i| i.name == "requeue")
        .collect();
    assert_eq!(
        requeues[0].detail, "job 1",
        "the later arrival is interrupted first"
    );
    assert_eq!(requeues[1].detail, "job 0");
    let first_back = tracer
        .spans()
        .into_iter()
        .filter(|s| s.name == "queue")
        .min_by(|a, b| a.end_us().total_cmp(&b.end_us()))
        .expect("a requeued job waits");
    assert_eq!(first_back.detail, "job 0", "dispatch keeps arrival order");
}
