//! Property test: the `slim_noc-spec-v1` JSON round trip is lossless
//! and byte-stable for every representable campaign spec.
//!
//! Byte stability matters beyond aesthetics here — the serialized
//! setup recipes feed the content-addressed cache keys, so any
//! serialize → parse → serialize drift would re-key (cold-start)
//! existing caches. For the same reason the recipe a built setup
//! reports must build that setup again.
//!
//! Also here: the parser's never-panic property. Specs arrive from the
//! network (`POST /campaign`), so `CampaignSpec::from_json` must turn
//! every byte string into `Ok` or `Err` — never a panic, a stack
//! overflow or a hang.
//!
//! And the grammar under it: `json::parse` is a tree builder over
//! `json::Reader`, which the cache loader and the `snoc submit` client
//! drive directly — so a tree must survive serialise → `parse`, and a
//! document `Reader::skip` validates must be exactly one `parse` takes.

use proptest::prelude::*;
use snoc_core::json::{self, JsonValue, Reader};
use snoc_core::{
    BufferPreset, CampaignResult, CampaignSpec, FaultsSpec, Setup, SetupSpec, StormSpec, SweepPoint,
};
use snoc_layout::SnLayout;
use snoc_power::TechNode;
use snoc_sim::RoutingKind;
use snoc_traffic::{benchmark_workloads, TrafficPattern};

const CONFIGS: [&str; 6] = ["sn54", "sn_s", "cm4", "t2d3", "df3", "fbf3"];
const PATTERNS: [TrafficPattern; 7] = [
    TrafficPattern::Random,
    TrafficPattern::BitShuffle,
    TrafficPattern::BitReversal,
    TrafficPattern::Adversarial1,
    TrafficPattern::Adversarial2,
    TrafficPattern::Asymmetric,
    TrafficPattern::Transpose,
];

/// Characters every JSON writer must escape or pass through intact.
const HOSTILE: [&str; 6] = ["\"", "\\", "\n", "\u{1}", "\u{2028}", "é日本🦀"];

/// A name holding the hostile pieces `bits` selects.
fn hostile_name(prefix: &str, bits: u64) -> String {
    let picked = HOSTILE
        .iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0);
    picked.fold(prefix.to_string(), |name, (_, piece)| name + piece)
}

/// Derives one arbitrary-but-deterministic setup recipe from an
/// integer seed (the vendored proptest only has range strategies, so
/// structured values are expanded from integers by hand).
fn setup_from(bits: u64) -> SetupSpec {
    let mut s = SetupSpec::new(CONFIGS[(bits % 6) as usize]);
    if bits & 0x40 != 0 {
        s.name = hostile_name(&format!("{}+v{}", s.config, bits % 97), bits >> 32);
    }
    s.sn_layout = match (bits >> 8) % 5 {
        0 => None,
        1 => Some(SnLayout::Basic),
        2 => Some(SnLayout::Subgroup),
        3 => Some(SnLayout::Group),
        _ => Some(SnLayout::Random(bits >> 16)),
    };
    s.smart = bits & 0x80 != 0;
    s.buffers = match (bits >> 3) % 5 {
        0 => BufferPreset::EbSmall,
        1 => BufferPreset::EbLarge,
        2 => BufferPreset::EbVar,
        3 => BufferPreset::ElLinks,
        _ => BufferPreset::Cbr(1 + usize::try_from((bits >> 24) % 64).expect("small")),
    };
    s.routing = match bits % 4 {
        0 => RoutingKind::Minimal,
        1 => RoutingKind::UgalL,
        2 => RoutingKind::UgalG,
        _ => RoutingKind::XyAdaptive,
    };
    s
}

/// A positive, finite, decimal-awkward load from an integer seed
/// (values like 1/3 exercise shortest-round-trip float printing).
fn load_from(bits: u64) -> f64 {
    (1 + bits % 99_991) as f64 / 99_989.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_json_round_trip_is_lossless_and_byte_stable(
        setup_bits in 1u64..u64::MAX,
        n_setups in 0usize..4,
        pattern_mask in 0u64..128,
        workload_mask in 0u64..(1 << 15),
        load_bits in 1u64..u64::MAX,
        n_loads in 1usize..6,
        warmup in 0u64..100_000,
        measure in 1u64..1_000_000,
        base_seed in 0u64..u64::MAX,
        refine in 0usize..5,
        options in 0u64..64,
    ) {
        let mut spec = CampaignSpec::new(hostile_name(&format!("prop c{options}"), setup_bits));
        spec.setups = (0..n_setups)
            .map(|i| setup_from(setup_bits.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64)))
            .collect();
        spec.patterns = PATTERNS
            .iter()
            .enumerate()
            .filter(|(i, _)| pattern_mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        // Bit 14 set: no workloads at all (the common spec).
        spec.workloads = benchmark_workloads()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| workload_mask >> 14 == 0 && workload_mask & (1 << i) != 0)
            .map(|(_, w)| w)
            .collect();
        spec.loads = (0..n_loads)
            .map(|i| load_from(load_bits.wrapping_add(0x1234_5678 * i as u64)))
            .collect();
        spec.warmup = warmup;
        spec.measure = measure;
        spec.base_seed = base_seed;
        spec.refine_rounds = refine;
        spec.stop_at_saturation = options & 1 != 0;
        spec.threads = usize::try_from(options >> 1).expect("small") % 9;
        spec.power_tech = match options % 4 {
            0 => None,
            1 => Some(TechNode::N45),
            2 => Some(TechNode::N22),
            _ => Some(TechNode::N11),
        };
        spec.cache_dir = if options & 8 != 0 {
            Some(format!("/tmp/cache \"{}\"", options))
        } else {
            None
        };

        let json1 = spec.to_json();
        let parsed = CampaignSpec::from_json(&json1)
            .map_err(|e| TestCaseError(format!("own output must parse: {e}\n{json1}")))?;
        prop_assert_eq!(json1.contains("\"workloads\":"), !spec.workloads.is_empty());
        // Lossless: every field (including f64 bits) survives.
        prop_assert_eq!(&parsed, &spec);
        for (a, b) in spec.loads.iter().zip(&parsed.loads) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Byte-stable: serialize → parse → serialize is the identity.
        let json2 = parsed.to_json();
        prop_assert_eq!(json1, json2);

        // The sweep documents keep the same names through `json::parse`.
        let names: Vec<String> = spec.setups.iter().map(|s| s.name.clone()).collect();
        let points: Vec<SweepPoint> = names
            .iter()
            .zip(&spec.loads)
            .map(|(setup, &load)| SweepPoint {
                setup: setup.clone(),
                pattern: "RND".to_string(),
                load,
                seed: base_seed,
                latency: load * 100.0,
                p99_latency: warmup,
                throughput: load,
                avg_hops: 2.5,
                acceptance: 1.0,
                delivered_packets: measure,
                dropped_packets: 0,
                saturated: false,
                drained: true,
                refined: false,
                power: None,
            })
            .collect();
        for p in &points {
            let line = json::parse(&p.to_json_line())
                .map_err(|e| TestCaseError(format!("{e}: {}", p.to_json_line())))?;
            prop_assert_eq!(line.get("setup").and_then(JsonValue::as_str), Some(&*p.setup));
        }
        let result = CampaignResult {
            name: spec.name.clone(),
            setups: names.clone(),
            patterns: vec!["RND".to_string()],
            warmup,
            measure,
            base_seed,
            tech: spec.power_tech,
            cache_hits: 0,
            cache_misses: 0,
            points,
        };
        let doc = json::parse(&result.to_json())
            .map_err(|e| TestCaseError(format!("{e}: {}", result.to_json())))?;
        prop_assert_eq!(doc.get("campaign").and_then(JsonValue::as_str), Some(&*spec.name));
        let list = |key| doc.get(key).and_then(JsonValue::as_arr).unwrap_or_default();
        let setups: Vec<_> = list("setups").iter().filter_map(JsonValue::as_str).collect();
        prop_assert_eq!(&setups, &names);
        let rows = list("points").iter().filter_map(|p| p.get("setup")?.as_str());
        prop_assert_eq!(rows.collect::<Vec<_>>(), names[..result.points.len()].to_vec());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A campaign keys its cache on the recipe of each setup *as
    /// built*, so that recipe must build the very setup that ran —
    /// including the recipes `build` normalises: a layout on a
    /// non-SN configuration (dropped) and an empty fault recipe (none).
    #[test]
    fn the_recipe_of_a_built_setup_rebuilds_it(bits in 1u64..u64::MAX, faults in 0u64..3) {
        let mut recipe = setup_from(bits);
        let storm = FaultsSpec {
            events: Vec::new(),
            storm: Some(StormSpec { links: 2, start: 10, window: 10, seed: bits }),
        };
        let kept_faults;
        (recipe.faults, kept_faults) = match faults {
            0 => (None, None),
            1 => (Some(FaultsSpec::default()), None),
            _ => (Some(storm.clone()), Some(storm)),
        };
        let slim_noc = ["sn54", "sn_s"].contains(&recipe.config.as_str());
        let normalised = SetupSpec {
            sn_layout: recipe.sn_layout.filter(|_| slim_noc),
            faults: kept_faults,
            ..recipe.clone()
        };
        let built = recipe.build().map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(built.to_spec(), Some(normalised.clone()));
        let rebuilt = normalised.build().map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(&rebuilt.sim, &built.sim);
        prop_assert_eq!(&rebuilt.layout, &built.layout);
        prop_assert_eq!(&rebuilt.faults, &built.faults);
        prop_assert_eq!(&rebuilt.name, &built.name);
        prop_assert_eq!(rebuilt.to_spec(), built.to_spec());
    }
}

/// A paper configuration's base setup carries the default recipe of
/// its name; a setup built on an arbitrary base carries none, so no
/// cache key can name it.
#[test]
fn base_setups_carry_their_recipes_and_custom_ones_none() {
    for name in snoc_topology::paper_config_names() {
        let base = Setup::paper(name).expect("paper config");
        assert_eq!(base.to_spec(), Some(SetupSpec::new(name)), "{name}");
    }
    let recipe = SetupSpec {
        sn_layout: Some(SnLayout::Group),
        buffers: BufferPreset::EbVar,
        ..SetupSpec::new("custom")
    };
    let topology = snoc_topology::Topology::slim_noc(5, 2).expect("q = 5");
    let base = Setup::from_topology("sn (custom)", topology, 0.5).expect("builds");
    let built = recipe.build_on(base);
    assert_eq!(built.name, "custom");
    assert_eq!(built.to_spec(), None);
    // Nor does one built on a paper configuration's base: only `build`
    // knows its base is the configuration's.
    let on_paper = recipe.build_on(Setup::paper("sn_s").unwrap());
    assert_eq!(on_paper.to_spec(), None);
}

/// `edits` random byte replacements (structural or arbitrary),
/// deletions and insertions, then possibly a truncation.
fn mutate(doc: &[u8], seed: u64, edits: usize) -> Vec<u8> {
    const SPICE: &[u8] = b"{}[]\",:\\-+.eE0919 \n\xff\x00u";
    let mut rng = TestRng::from_name(&seed.to_string());
    let mut out = doc.to_vec();
    for _ in 0..edits {
        if out.is_empty() {
            break;
        }
        let at = (rng.next_u64() % out.len() as u64) as usize;
        let byte = SPICE[(rng.next_u64() % SPICE.len() as u64) as usize];
        match rng.next_u64() % 4 {
            0 => out[at] = byte,
            1 => {
                out.remove(at);
            }
            2 => out.insert(at, byte),
            _ => out[at] = (rng.next_u64() & 0xff) as u8,
        }
    }
    if rng.next_u64() & 3 == 0 {
        out.truncate((rng.next_u64() % (out.len() as u64 + 1)) as usize);
    }
    out
}

/// A random tree at most `depth` containers deep: awkward strings,
/// numbers in every form our writers and `f64`'s `Display` emit.
fn value_from(rng: &mut TestRng, depth: usize) -> JsonValue {
    const STRINGS: [&str; 6] = ["", "plain", "q\"uo\\te", "tab\tnl\n\u{1}", "é日本🦀", "a/b"];
    let mut pick = |n: u64| rng.next_u64() % n;
    let kinds = if depth == 0 { 4 } else { 6 };
    match pick(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(pick(2) == 0),
        2 => JsonValue::Num(match pick(5) {
            0 => pick(u64::MAX).to_string(),
            1 => format!("-{}", pick(1000)),
            2 => format!("{}", f64::from_bits(pick(u64::MAX)).abs().min(1e300)),
            3 => format!("{:e}", (pick(1 << 40) as f64 - 5e11) / 977.0),
            _ => ["-0", "1E+2", "0.5e-7", "01"][pick(4) as usize].to_string(),
        }),
        3 => JsonValue::Str(STRINGS[pick(6) as usize].repeat(pick(3) as usize)),
        4 => {
            let len = pick(4);
            JsonValue::Arr((0..len).map(|_| value_from(rng, depth - 1)).collect())
        }
        _ => {
            let len = pick(4);
            let key = |i: u64| format!("{}{i}", STRINGS[(i % 6) as usize]);
            JsonValue::Obj(
                (0..len)
                    .map(|i| (key(i), value_from(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// `value` as JSON text, `ws` between every two tokens.
fn write_value(value: &JsonValue, ws: &str, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(&b.to_string()),
        JsonValue::Num(raw) => out.push_str(raw),
        JsonValue::Str(s) => *out += &format!("\"{}\"", json::escape(s)),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                *out += if i == 0 { ws } else { "," };
                write_value(item, ws, out);
                *out += ws;
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                *out += if i == 0 { ws } else { "," };
                *out += &format!("{ws}\"{}\"{ws}:{ws}", json::escape(key));
                write_value(item, ws, out);
                *out += ws;
            }
            out.push('}');
        }
    }
}

/// What `Reader::skip` + `finish` make of a document.
fn skipped(doc: &str) -> Result<(), String> {
    let mut reader = Reader::new(doc);
    reader.skip()?;
    reader.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_trees_survive_serialise_then_parse(seed in 0u64..u64::MAX, depth in 0usize..5) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let tree = value_from(&mut rng, depth);
        for ws in ["", " ", "\n\t "] {
            let mut doc = ws.to_string();
            write_value(&tree, ws, &mut doc);
            doc += ws;
            prop_assert_eq!(json::parse(&doc), Ok(tree.clone()));
            prop_assert_eq!(skipped(&doc), Ok(()));
        }
    }

    #[test]
    fn skip_accepts_exactly_the_documents_parse_accepts(
        seed in 0u64..u64::MAX,
        depth in 1usize..5,
        edits in 0usize..4,
    ) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let mut doc = String::new();
        write_value(&value_from(&mut rng, depth), " ", &mut doc);
        let golden = include_bytes!("golden/spec_v1.json");
        for source in [doc.as_bytes(), golden] {
            let mutated = mutate(source, seed, edits);
            let text = String::from_utf8_lossy(&mutated);
            // Same verdict, and the same words for it.
            prop_assert_eq!(skipped(&text), json::parse(&text).map(drop));
        }
    }

    #[test]
    fn from_json_never_panics_on_arbitrary_bytes(seed in 0u64..u64::MAX, len in 0usize..400) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let _ = CampaignSpec::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn from_json_never_panics_on_mutated_valid_documents(
        seed in 0u64..u64::MAX,
        edits in 1usize..6,
    ) {
        let golden = include_bytes!("golden/spec_v1.json");
        let doc = mutate(golden, seed, edits);
        if let Ok(spec) = CampaignSpec::from_json(&String::from_utf8_lossy(&doc)) {
            // Whatever still parses must also survive its own round trip.
            prop_assert!(CampaignSpec::from_json(&spec.to_json()).is_ok());
        }
    }
}

#[test]
fn from_json_rejects_pathological_nesting_without_overflowing_the_stack() {
    for open in ["[", "{\"a\":"] {
        let doc = open.repeat(200_000);
        assert!(CampaignSpec::from_json(&doc).is_err());
    }
}
