//! The scenario boundary, driven by its one field table: every
//! `scenario::FIELDS` row rejects each value outside its bound naming its
//! path and accepts the bound's edges, the catalog's list checks name
//! `fleet.products`, every numeric field is a row or listed unbounded,
//! and every block rejects a key it does not have.

use mercurial::scenario::{Bound, FIELDS, RETIRED_KEYS};
use mercurial::Scenario;
use serde_json::Value;

/// The small scenario's JSON with the field at table `path` (product `i`
/// on a per-product row) written as the JSON text `literal`.
fn json_with(path: &str, i: usize, literal: &str) -> String {
    let mut tree: Value = serde_json::from_str(&Scenario::small(7).to_json()).unwrap();
    let pointer = format!(
        "/{}",
        path.replace("[i]", &format!(".{i}")).replace('.', "/")
    );
    *tree.pointer_mut(&pointer).expect(path) = Value::String("@".to_string());
    serde_json::to_string(&tree)
        .unwrap()
        .replace("\"@\"", literal)
}

/// JSON numbers outside `bound`, and the bound's edges. A count is an
/// unsigned integer, so JSON cannot spell a negative or infinite one.
fn samples(bound: Bound) -> (&'static [&'static str], &'static [&'static str]) {
    const MAX: &str = "1.7976931348623157e308";
    match bound {
        Bound::AtLeastOne => (&["0"], &["1"]),
        Bound::Positive => (&["0", "-1", "1e999", "-1e999"], &["5e-324", MAX]),
        Bound::NonNegative => (&["-5e-324", "-72", "1e999", "-1e999"], &["0", MAX]),
        Bound::UnitInterval => (&["-5e-324", "-1", "1.5", "1e300", "1e999"], &["0", "1"]),
    }
}

#[test]
fn every_field_rejects_values_out_of_its_bound_naming_its_path() {
    let products = Scenario::small(7).fleet.products.len();
    for field in &FIELDS {
        let n = if field.path.contains("[i]") {
            products
        } else {
            1
        };
        for i in 0..n {
            let path = field.path.replace("[i]", &format!("[{i}]"));
            let (bad, edges) = samples(field.bound);
            for v in bad {
                let err = Scenario::from_json(&json_with(field.path, i, v)).unwrap_err();
                assert!(err.starts_with(&format!("{path} must be ")), "{v}: {err}");
            }
            for v in edges {
                let json = json_with(field.path, i, v);
                Scenario::from_json(&json).unwrap_or_else(|e| panic!("{path} = {v}: {e}"));
            }
        }
    }
}

/// JSON cannot carry NaN, so the bounds are asked directly.
#[test]
fn no_bound_holds_nan() {
    for bound in [
        Bound::AtLeastOne,
        Bound::Positive,
        Bound::NonNegative,
        Bound::UnitInterval,
    ] {
        assert!(!bound.holds(f64::NAN), "{bound:?}");
    }
    let mut s = Scenario::small(7);
    s.sim.epoch_hours = f64::NAN;
    let err = s.validate().unwrap_err();
    assert_eq!(err, "sim.epoch_hours must be positive and finite, got NaN");
}

#[test]
fn catalog_list_checks_name_fleet_products() {
    let single = Scenario::small(7).fleet.products[0].clone();
    type Mutation = fn(&mut Scenario);
    let cases: [(Mutation, &str); 4] = [
        (
            |s| s.fleet.products.clear(),
            " must list at least one product",
        ),
        (
            |s| s.fleet.products.resize(257, s.fleet.products[0].clone()),
            " must list at most 256 products, got 257",
        ),
        (
            |s| s.fleet.products[1].dvfs = serde_json::from_str(r#"{"steps": []}"#).unwrap(),
            "[1].dvfs.steps must list at least one step",
        ),
        (
            |s| {
                s.fleet
                    .products
                    .iter_mut()
                    .for_each(|p| p.fleet_weight = 0.0)
            },
            " weights must sum to a positive finite number, got 0",
        ),
    ];
    for (mutate, want) in cases {
        let mut s = Scenario::small(7);
        mutate(&mut s);
        let err = Scenario::from_json(&s.to_json()).unwrap_err();
        assert_eq!(err, format!("fleet.products{want}"));
    }
    let mut s = Scenario::small(7);
    s.fleet.products = vec![single; 256];
    assert_eq!(s.validate(), Ok(()));
}

/// Numeric fields any value of which runs: seeds, DVFS steps, counts
/// that may be 0, watch limits and the served links' impairment.
const UNBOUNDED: [&str; 19] = [
    "audit.max_cases",
    "closed_loop.deep_checks_per_epoch",
    "fleet.products[i].dvfs.steps[i][i]",
    "fleet.rollout_months",
    "fleet.seed",
    "fuzz_corpus.budget",
    "fuzz_corpus.seed",
    "serve.impair.duplicate",
    "serve.impair.loss",
    "serve.impair.max_delay_epochs",
    "serve.impair.reorder",
    "serve.impair.seed",
    "sim.per_core_epoch_cap",
    "tuning.burnin_ops_multiplier",
    "watch.max_capacity_drop_per_epoch",
    "watch.max_corrupt_ops_per_epoch",
    "watch.max_detect_latency_p95_hours",
    "watch.regression_tolerance",
    "workloads.escalate_threshold",
];

/// Every node of `v` under `pointer`, with its JSON Pointer.
fn nodes<'v>(v: &'v Value, pointer: String, out: &mut Vec<(String, &'v Value)>) {
    let children: Vec<(String, &Value)> = match v {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, x)| (i.to_string(), x))
            .collect(),
        Value::Object(entries) => entries.iter().map(|(k, x)| (k.clone(), x)).collect(),
        _ => Vec::new(),
    };
    for (token, child) in children {
        nodes(child, format!("{pointer}/{token}"), out);
    }
    out.push((pointer, v));
}

/// A JSON Pointer as a table path: `/fleet/products/0/fleet_weight` is
/// `fleet.products[i].fleet_weight`.
fn table_path(pointer: &str) -> String {
    let mut path = String::new();
    for token in pointer.split('/').skip(1) {
        match token.parse::<usize>() {
            Ok(_) => path.push_str("[i]"),
            Err(_) if path.is_empty() => path.push_str(token),
            Err(_) => path.push_str(&format!(".{token}")),
        }
    }
    path
}

#[test]
fn every_numeric_field_is_a_table_row_or_listed_unbounded() {
    let tree = serde_json::from_str(&Scenario::default_paper().to_json()).unwrap();
    let mut all = Vec::new();
    nodes(&tree, String::new(), &mut all);
    let mut leaves: Vec<String> = all
        .iter()
        .filter(|(_, v)| matches!(v, Value::Number(_)))
        .map(|(pointer, _)| table_path(pointer))
        .collect();
    leaves.sort();
    leaves.dedup();
    let listed: Vec<&str> = FIELDS.iter().map(|f| f.path).chain(UNBOUNDED).collect();
    for leaf in &leaves {
        let entries = listed.iter().filter(|&&p| p == leaf).count();
        assert_eq!(entries, 1, "{leaf} needs one FIELDS row or UNBOUNDED entry");
    }
    assert_eq!(
        listed.len(),
        leaves.len(),
        "an entry names no numeric field"
    );
}

#[test]
fn every_block_rejects_an_unknown_key_but_the_retired_ones() {
    let json = Scenario::small(7).to_json();
    let tree: Value = serde_json::from_str(&json).unwrap();
    let mut all = Vec::new();
    nodes(&tree, String::new(), &mut all);
    let blocks: Vec<&String> = all
        .iter()
        .filter(|(_, v)| matches!(v, Value::Object(_)))
        .map(|(pointer, _)| pointer)
        .collect();
    assert_eq!(blocks.len(), 18, "{blocks:?}");
    for block in blocks {
        let mut typo = tree.clone();
        if let Some(Value::Object(entries)) = typo.pointer_mut(block) {
            entries.push(("montsh".to_string(), Value::Bool(true)));
        }
        let err = Scenario::from_json(&serde_json::to_string(&typo).unwrap())
            .err()
            .unwrap_or_else(|| panic!("{block:?} accepts an unknown key"));
        assert!(err.contains("unknown field `montsh`"), "{block}: {err}");
    }
    for (block, key) in RETIRED_KEYS {
        let open = format!("\"{block}\": {{");
        let legacy = json.replacen(&open, &format!("{open}\"{key}\": 8,"), 1);
        assert_eq!(
            Scenario::from_json(&legacy),
            Ok(Scenario::small(7)),
            "{key}"
        );
    }
}
