//! The vendored `serde` has two ways through every type: the `Value`
//! tree (`to_value` / `from_value`, rendered and parsed by `json`) and
//! the one-pass text codec (`write_json` / `read_json`) that
//! `json::to_string` / `json::from_str` run. The tree is the
//! specification; these tests hold the streaming codec to it, on every
//! shape the derive supports and on the artefacts the caches, the
//! journal and the reports actually write.

use chipforge::exec::{BatchEngine, EngineConfig, JobSpec};
use chipforge::flow::{
    FlowConfig, FlowCtx, FlowOutcome, FlowStep, OptimizationProfile, Pipeline, StageSnapshot,
    StageStore,
};
use chipforge::hdl::designs;
use chipforge::obs::Tracer;
use chipforge::pdk::TechnologyNode;
use chipforge::resil::JournalRecord;
use proptest::prelude::*;
use serde::{json, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

// --- one type per derive shape ---

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct NoFields {}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct OnlySkipped {
    #[serde(skip)]
    scratch: u8,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct EmptyTuple();

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Newtype(String);

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Pair(i32, Option<f64>);

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
enum Kind {
    #[default]
    Plain,
    Other,
    One(u8),
    Two(i16, String),
    Zero(),
    Fields {
        a: Option<u8>,
        #[serde(skip)]
        b: u8,
        c: Vec<Kind>,
    },
    Bare {},
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Scalars {
    unsigned: u64,
    signed: i64,
    tiny: i8,
    byte: u8,
    size: usize,
    ratio: f64,
    single: f32,
    flag: bool,
    letter: char,
    text: String,
    nothing: (),
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Document {
    scalars: Scalars,
    #[serde(skip)]
    cache: u32,
    maybe: Option<Box<Document>>,
    nested: Option<Option<u8>>,
    bytes: Vec<u8>,
    items: Vec<Option<i32>>,
    pair: (u8, String),
    triple: (i32, bool, Option<f64>),
    single: (String,),
    fixed: [u16; 3],
    by_name: BTreeMap<String, Vec<i32>>,
    unordered: HashMap<String, u8>,
    unit: Unit,
    no_fields: NoFields,
    only_skipped: OnlySkipped,
    empty_tuple: EmptyTuple,
    wrapped: Newtype,
    point: Pair,
    kind: Kind,
    kinds: Vec<Kind>,
}

/// Maps whose keys are not strings are written with stringified keys and
/// (in both codecs) refuse to read back; kept apart so `Document` can
/// round-trip.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct OddKeys {
    by_id: BTreeMap<u32, bool>,
    by_pair: BTreeMap<(u8, i8), String>,
    by_kind: BTreeMap<Option<String>, u8>,
    by_char: BTreeMap<char, Newtype>,
}

// --- generators ---

fn draw<S: Strategy>(strategy: S, rng: &mut TestRng) -> S::Value {
    strategy.generate(rng)
}

fn text(rng: &mut TestRng) -> String {
    const PARTS: [&str; 12] = [
        "",
        "plain",
        "quo\"te",
        "back\\slash",
        "line\nfeed\ttab\rreturn",
        "\u{1}\u{8}\u{c}\u{1f}",
        "\u{7f}",
        "é✓",
        "😀",
        "/slash",
        "null",
        " spaced ",
    ];
    (0..draw(0usize..4, rng))
        .map(|_| PARTS[draw(0usize..PARTS.len(), rng)])
        .collect()
}

/// Any `f64`; with `finite`, only those that are written as numbers (a
/// non-finite one is written as `null` and does not read back).
fn float(rng: &mut TestRng, finite: bool) -> f64 {
    let x = match draw(0u8..10, rng) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => draw(-1000i32..1000, rng).into(),
        5 => 1e300,
        6 => 5e-324,
        7 => f64::from_bits(draw(any::<u64>(), rng)),
        _ => draw(any::<f64>(), rng),
    };
    if finite && !x.is_finite() {
        0.25
    } else {
        x
    }
}

fn single(rng: &mut TestRng, finite: bool) -> f32 {
    let x = float(rng, finite) as f32;
    if finite && !x.is_finite() {
        f32::MAX
    } else {
        x
    }
}

fn unsigned(rng: &mut TestRng) -> u64 {
    match draw(0u8..4, rng) {
        0 => 0,
        1 => u64::MAX,
        2 => draw(0u64..1000, rng),
        _ => draw(any::<u64>(), rng),
    }
}

fn signed(rng: &mut TestRng) -> i64 {
    match draw(0u8..5, rng) {
        0 => 0,
        1 => i64::MAX,
        2 => i64::MIN,
        3 => draw(-1000i64..1000, rng),
        _ => draw(any::<i64>(), rng),
    }
}

fn letter(rng: &mut TestRng) -> char {
    ['a', '"', '\\', '\n', '\u{0}', 'é', '😀'][draw(0usize..7, rng)]
}

fn kind(rng: &mut TestRng, depth: u32) -> Kind {
    match draw(0u8..7, rng) {
        0 => Kind::Plain,
        1 => Kind::Other,
        2 => Kind::One(draw(any::<u8>(), rng)),
        3 => Kind::Two(draw(any::<i16>(), rng), text(rng)),
        4 => Kind::Zero(),
        5 => Kind::Bare {},
        _ => Kind::Fields {
            a: draw(any::<bool>(), rng).then(|| draw(any::<u8>(), rng)),
            b: 0,
            c: if depth == 0 {
                Vec::new()
            } else {
                (0..draw(0usize..3, rng))
                    .map(|_| kind(rng, depth - 1))
                    .collect()
            },
        },
    }
}

fn scalars(rng: &mut TestRng, finite: bool) -> Scalars {
    Scalars {
        unsigned: unsigned(rng),
        signed: signed(rng),
        tiny: draw(any::<i8>(), rng),
        byte: draw(any::<u8>(), rng),
        size: draw(any::<usize>(), rng),
        ratio: float(rng, finite),
        single: single(rng, finite),
        flag: draw(any::<bool>(), rng),
        letter: letter(rng),
        text: text(rng),
        nothing: (),
    }
}

fn document(rng: &mut TestRng, depth: u32, finite: bool) -> Document {
    let some = |rng: &mut TestRng| draw(any::<bool>(), rng);
    Document {
        scalars: scalars(rng, finite),
        cache: 7,
        maybe: (depth > 0 && some(rng)).then(|| Box::new(document(rng, depth - 1, finite))),
        nested: some(rng).then(|| some(rng).then(|| draw(any::<u8>(), rng))),
        bytes: draw(proptest::collection::vec(any::<u8>(), 0..12), rng),
        items: (0..draw(0usize..4, rng))
            .map(|_| some(rng).then(|| draw(any::<i32>(), rng)))
            .collect(),
        pair: (draw(any::<u8>(), rng), text(rng)),
        triple: (
            draw(any::<i32>(), rng),
            some(rng),
            some(rng).then(|| float(rng, finite)),
        ),
        single: (text(rng),),
        fixed: [
            draw(any::<u16>(), rng),
            draw(any::<u16>(), rng),
            draw(any::<u16>(), rng),
        ],
        by_name: (0..draw(0usize..3, rng))
            .map(|_| {
                (
                    text(rng),
                    draw(proptest::collection::vec(-9i32..9, 0..3), rng),
                )
            })
            .collect(),
        unordered: (0..draw(0usize..4, rng))
            .map(|_| (text(rng), draw(any::<u8>(), rng)))
            .collect(),
        unit: Unit,
        no_fields: NoFields {},
        only_skipped: OnlySkipped { scratch: 9 },
        empty_tuple: EmptyTuple(),
        wrapped: Newtype(text(rng)),
        point: Pair(
            draw(any::<i32>(), rng),
            some(rng).then(|| float(rng, finite)),
        ),
        kind: kind(rng, 2),
        kinds: (0..draw(0usize..3, rng)).map(|_| kind(rng, 1)).collect(),
    }
}

struct Documents {
    finite: bool,
}

impl Strategy for Documents {
    type Value = Document;

    fn generate(&self, rng: &mut TestRng) -> Document {
        document(rng, 2, self.finite)
    }
}

struct OddKeyMaps;

impl Strategy for OddKeyMaps {
    type Value = OddKeys;

    fn generate(&self, rng: &mut TestRng) -> OddKeys {
        let n = draw(0usize..3, rng);
        OddKeys {
            by_id: (0..n).map(|_| (draw(any::<u32>(), rng), true)).collect(),
            by_pair: (0..n)
                .map(|_| ((draw(any::<u8>(), rng), draw(any::<i8>(), rng)), text(rng)))
                .collect(),
            by_kind: (0..n)
                .map(|i| ((i > 0).then(|| text(rng)), draw(any::<u8>(), rng)))
                .collect(),
            by_char: (0..n).map(|_| (letter(rng), Newtype(text(rng)))).collect(),
        }
    }
}

// --- the two comparisons ---

/// The streamed text of `x` is the rendering of its tree.
fn same_text<T: Serialize>(x: &T) -> String {
    let streamed = json::to_string(x);
    assert_eq!(streamed, json::to_string(&x.to_value()));
    streamed
}

/// A typed value shown as its tree, for comparing two of them. A
/// `HashMap` lists its entries in an order of its own, so every map is
/// shown sorted (struct fields lose nothing: the derive fixes theirs).
fn shown<T: Serialize>(x: &T) -> Value {
    fn sorted(value: Value) -> Value {
        match value {
            Value::Seq(items) => Value::Seq(items.into_iter().map(sorted).collect()),
            Value::Map(pairs) => {
                let mut pairs: Vec<_> = pairs.into_iter().map(|(k, v)| (k, sorted(v))).collect();
                pairs.sort_by(|(a, _), (b, _)| a.as_str().cmp(&b.as_str()));
                Value::Map(pairs)
            }
            other => other,
        }
    }
    sorted(x.to_value())
}

/// What reading `text` as a `T` through the tree gives, or nothing when
/// either the parse or the conversion refuses.
fn via_tree<T: Serialize + Deserialize>(text: &str) -> Option<Value> {
    let tree = json::parse(text).ok()?;
    Some(shown(&T::from_value(&tree).ok()?))
}

/// Reading `text` as a `T` in one pass accepts, refuses and yields what
/// reading it through the tree does.
fn same_reading<T: Serialize + Deserialize>(text: &str) -> Option<Value> {
    let streamed = json::from_str::<T>(text).ok().map(|x| shown(&x));
    assert_eq!(streamed, via_tree::<T>(text), "reading {text:?}");
    streamed
}

/// `x` goes out as its tree's text and that text comes back as `x`.
fn round_trips<T: Serialize + Deserialize>(x: &T) -> String {
    let text = same_text(x);
    let back = same_reading::<T>(&text).expect("own text reads back");
    assert_eq!(back, shown(x));
    // Laid out with whitespace, it is still the same document.
    assert_eq!(same_reading::<T>(&json::to_string_pretty(x)), Some(back));
    text
}

/// Rewrites the maps of a tree the way a foreign or older writer might
/// have left them: entries reordered, repeated with another value,
/// dropped, and joined by keys no field knows.
fn scramble(value: &mut Value, rng: &mut TestRng) {
    match value {
        Value::Seq(items) => items.iter_mut().for_each(|item| scramble(item, rng)),
        Value::Map(pairs) => {
            pairs.iter_mut().for_each(|(_, item)| scramble(item, rng));
            for _ in 0..draw(0usize..3, rng) {
                let at = draw(0usize..pairs.len() + 1, rng);
                let stray = match draw(0u8..4, rng) {
                    0 => Value::Null,
                    1 => Value::U64(draw(0u64..300, rng)),
                    2 => Value::Seq(vec![Value::Str(text(rng)), Value::Map(Vec::new())]),
                    _ => Value::Map(vec![(Value::Str("a".into()), Value::F64(0.5))]),
                };
                match (draw(0u8..4, rng), pairs.is_empty()) {
                    (0, _) | (_, true) => {
                        pairs.insert(at, (Value::Str(format!("zz{}", text(rng))), stray));
                    }
                    (1, false) => {
                        let key = pairs[at % pairs.len()].0.clone();
                        pairs.insert(at, (key, stray));
                    }
                    (2, false) => {
                        pairs.remove(at % pairs.len());
                    }
                    (_, false) => {
                        let n = pairs.len();
                        pairs.swap(at % n, (at + 1) % n);
                    }
                }
            }
        }
        _ => {}
    }
}

/// Every text one byte away from `text`, and every proper prefix of it,
/// reads (or fails to read) the same both ways. Non-ASCII bytes are left
/// alone so the mutant stays a `str`.
fn same_reading_of_every_near_miss<T: Serialize + Deserialize>(text: &str) {
    for end in 0..text.len() {
        if text.is_char_boundary(end) {
            same_reading::<T>(&text[..end]);
        }
    }
    let mut mutant = text.as_bytes().to_vec();
    for at in 0..mutant.len() {
        let original = mutant[at];
        if !original.is_ascii() {
            continue;
        }
        for byte in *b"\"\\,:{}[]0-+.eEntu x\n" {
            mutant[at] = byte;
            same_reading::<T>(std::str::from_utf8(&mutant).expect("ascii for ascii"));
        }
        mutant[at] = original;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn generated_documents_round_trip_both_ways(doc in Documents { finite: true }) {
        let text = round_trips(&doc);
        // A skipped field is neither written nor read.
        let back: Document = json::from_str(&text).expect("reads back");
        prop_assert_eq!((doc.cache, doc.only_skipped.scratch), (7, 9));
        prop_assert_eq!((back.cache, back.only_skipped.scratch), (0, 0));
    }

    /// Non-finite floats go out as `null`, which no float reads back:
    /// the text is still the tree's, and both readers refuse it alike.
    #[test]
    fn any_float_is_written_and_refused_alike(doc in Documents { finite: false }) {
        same_reading::<Document>(&same_text(&doc));
    }

    #[test]
    fn non_string_keys_are_stringified_alike(maps in OddKeyMaps) {
        same_reading::<OddKeys>(&same_text(&maps));
    }

    #[test]
    fn foreign_key_layouts_read_alike(
        doc in Documents { finite: true },
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::for_test(&format!("scramble-{seed}"));
        let mut tree = doc.to_value();
        scramble(&mut tree, &mut rng);
        same_reading::<Document>(&json::to_string(&tree));
        same_reading::<Document>(&json::to_string_pretty(&tree));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn near_misses_of_a_small_document_read_alike(doc in Documents { finite: true }) {
        let doc = Document { maybe: None, ..doc };
        same_reading_of_every_near_miss::<Document>(&round_trips(&doc));
    }

    #[test]
    fn near_misses_of_each_shape_read_alike(seed in any::<u64>()) {
        let mut rng = TestRng::for_test(&format!("shapes-{seed}"));
        same_reading_of_every_near_miss::<Kind>(&round_trips(&kind(&mut rng, 2)));
        same_reading_of_every_near_miss::<Scalars>(&round_trips(&scalars(&mut rng, true)));
        same_reading_of_every_near_miss::<Pair>(&round_trips(&Pair(-7, Some(2.0))));
        same_reading_of_every_near_miss::<(u8, Option<Unit>)>(&round_trips(&(3u8, Some(Unit))));
        same_reading_of_every_near_miss::<OddKeys>(&same_text(&OddKeyMaps.generate(&mut rng)));
    }
}

#[test]
fn hand_picked_texts_read_alike() {
    for text in [
        // shapes no field looks at may be anything
        r#"{"unit":5,"no_fields":[1,2],"only_skipped":"x","empty_tuple":{"a":null}}"#,
        // escaped keys still name their field
        r#"{"kind":"Other","wrapped":"A\/\b\f"}"#,
        r#"{"wrapped":"\ud800"}"#,
        r#"{"wrapped":"\u+041"}"#,
        // first of two equal keys wins, whatever the second holds
        r#"{"kind":"Plain","kind":"Other"}"#,
        r#"{"kind":"Plain","kind":{"Nope":[}}"#,
        r#"{"nested":null,"nested":7}"#,
        // a data variant is a map of exactly one entry
        r#"{"kind":{}}"#,
        r#"{"kind":{"One":1,"One":1}}"#,
        r#"{"kind":{"One":1,"Other":2}}"#,
        r#"{"kind":{"Plain":null}}"#,
        r#"{"kind":"One"}"#,
        r#"{"kind":{"Zero":[1,"surplus"]}}"#,
        r#"{"kind":{"Zero":null}}"#,
        r#"{"kind":{"Two":[5]}}"#,
        r#"{"kind":{"Two":[5,"x",{"surplus":[]}]}}"#,
        r#"{"kind":{"Bare":17}}"#,
        r#"{"kind":{"Fields":{"c":[],"b":"skipped fields are not read"}}}"#,
        // short and long tuples, exact arrays
        r#"{"pair":[1]}"#,
        r#"{"pair":[]}"#,
        r#"{"pair":[1,"a","b"]}"#,
        r#"{"point":[]}"#,
        r#"{"fixed":[1,2]}"#,
        r#"{"fixed":[1,2,3,4]}"#,
        // number tokens
        r#"{"bytes":[007,-0,255]}"#,
        r#"{"bytes":[256]}"#,
        r#"{"bytes":[1.0]}"#,
        r#"{"bytes":[1e0]}"#,
        r#"{"bytes":[1-1]}"#,
        r#"{"bytes":[+1]}"#,
        r#"{"items":[-2147483648,2147483647,null]}"#,
        r#"{"items":[-2147483649]}"#,
        r#"{"items":[-99999999999999999999]}"#,
        r#"{"scalars":{"unsigned":18446744073709551615,"signed":-9223372036854775808}}"#,
        r#"{"scalars":{"unsigned":18446744073709551616}}"#,
        r#"{"scalars":{"ratio":1,"single":-3}}"#,
        r#"{"scalars":{"ratio":1e400}}"#,
        r#"{"scalars":{"ratio":1.}}"#,
        r#"{"scalars":{"ratio":-}}"#,
        r#"{"scalars":{"ratio":null}}"#,
        r#"{"scalars":{"letter":"ab"}}"#,
        r#"{"scalars":{"letter":""}}"#,
        r#"{"scalars":{"flag":truex}}"#,
        r#"{"scalars":{"nothing":[1,{"a":"b"}]}}"#,
        // maps
        r#"{"by_name":{"a":[1],"a":[2]}}"#,
        r#"{"by_name":{"a":[1],"a":"second is read too"}}"#,
        r#"{"by_name":[]}"#,
        // the document itself
        "[]",
        "null",
        "{}",
        " { } ",
        "{} {}",
        r#"{"maybe":{"maybe":{"maybe":null}}}"#,
        "",
    ] {
        same_reading::<Document>(text);
    }
    for text in ["5", "\"x\"", "[", "nul", "null"] {
        same_reading::<Unit>(text);
        same_reading::<NoFields>(text);
        same_reading::<OnlySkipped>(text);
        same_reading::<EmptyTuple>(text);
        same_reading::<Option<()>>(text);
        same_reading::<Option<Option<u8>>>(text);
        same_reading::<Value>(text);
    }
}

// --- what the caches, the journal and the reports write ---

/// A stage store that only listens.
#[derive(Default)]
struct Capture(RefCell<Vec<StageSnapshot>>);

impl StageStore for Capture {
    fn load(&self, _key: u128, _step: FlowStep) -> Option<StageSnapshot> {
        None
    }

    fn store(&self, _key: u128, snapshot: &StageSnapshot) {
        self.0.borrow_mut().push(snapshot.clone());
    }
}

#[test]
fn flow_artefacts_round_trip_to_identical_text() {
    let design = designs::counter(8);
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
    let tracer = Tracer::disabled();
    let capture = Capture::default();
    let outcome: FlowOutcome = Pipeline::standard()
        .run(
            design.source(),
            &config,
            &FlowCtx::new(&tracer).with_stages(&capture),
        )
        .expect("flow runs");

    let snapshots = capture.0.into_inner();
    let steps: Vec<FlowStep> = snapshots.iter().map(|s| s.step).collect();
    assert_eq!(steps, FlowStep::ALL, "one snapshot per stage");
    for snapshot in &snapshots {
        let text = round_trips(snapshot);
        let back: StageSnapshot = json::from_str(&text).expect("reads back");
        assert_eq!(json::to_string(&back), text, "{} snapshot", snapshot.step);
    }

    let text = round_trips(&outcome);
    let back: FlowOutcome = json::from_str(&text).expect("reads back");
    assert_eq!(json::to_string(&back), text);

    let record = JournalRecord {
        seq: 3,
        index: 1,
        key: format!("{:032x}", 0xfeed_u128),
        name: "counter8 \"quoted\"".to_string(),
        status: "succeeded".to_string(),
        attempts: 2,
        degraded: true,
        error: None,
        ppa: Some(outcome.report.ppa.clone()),
        gds_fnv: Some(u64::MAX),
    };
    let text = round_trips(&record);
    assert_eq!(
        json::from_str::<JournalRecord>(&text).expect("reads back"),
        record
    );
}

#[test]
fn an_execution_report_is_written_as_its_tree() {
    let design = designs::gray_encoder(6);
    let jobs: Vec<JobSpec> = (0..3)
        .map(|seed| {
            JobSpec::new(
                design.name(),
                design.source(),
                TechnologyNode::N130,
                OptimizationProfile::quick(),
            )
            .with_seed(seed % 2)
        })
        .collect();
    let batch = BatchEngine::new(EngineConfig::with_workers(1)).run_batch(jobs);
    assert_eq!(batch.report.totals.succeeded, 3);
    let text = same_text(&batch.report);
    assert_eq!(
        json::parse(&json::to_string_pretty(&batch.report)).expect("pretty parses"),
        json::parse(&text).expect("compact parses"),
    );
}
