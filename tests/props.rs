//! Property-based tests on cross-crate invariants.

use mercurial::scenario::{Bound, Field, FIELDS};
use mercurial::{ClosedLoopDriver, PipelineRun, Scenario};
use mercurial_corpus::aes::{Aes, KeySize};
use mercurial_corpus::matmul::Matrix;
use mercurial_corpus::{crc, huffman, lz};
use mercurial_fault::{CoreUid, CounterRng};
use mercurial_mitigation::abft::AbftProduct;
use mercurial_mitigation::checker::{check_sort, MultisetDigest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LZ compression roundtrips arbitrary byte strings.
    #[test]
    fn lz_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&compressed).unwrap(), data);
    }

    /// Huffman coding roundtrips arbitrary byte strings.
    #[test]
    fn huffman_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let encoded = huffman::encode(&data);
        prop_assert_eq!(huffman::decode(&encoded).unwrap(), data);
    }

    /// LZ decompression never panics on arbitrary (malformed) streams.
    #[test]
    fn lz_decompress_total(stream in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = lz::decompress(&stream);
    }

    /// Huffman decoding never panics on arbitrary streams.
    #[test]
    fn huffman_decode_total(stream in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = huffman::decode(&stream);
    }

    /// AES decrypt inverts encrypt for every key size and random blocks.
    #[test]
    fn aes_inverse(key in proptest::collection::vec(any::<u8>(), 32..=32),
                   block in proptest::array::uniform16(any::<u8>())) {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let aes = Aes::new(size, &key[..size.key_len()]).unwrap();
            prop_assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
        }
    }

    /// Our software AES agrees with the independent simulator AES on
    /// random keys and blocks (two-implementation cross-check).
    #[test]
    fn aes_implementations_agree(key in proptest::array::uniform16(any::<u8>()),
                                 block in proptest::array::uniform16(any::<u8>())) {
        let ours = Aes::new(KeySize::Aes128, &key).unwrap().encrypt_block(block);
        let theirs = mercurial_simcpu::crypto::aes128_encrypt_block(key, block);
        prop_assert_eq!(ours, theirs);
    }

    /// The three CRC implementations and the convenience functions agree
    /// on random data, both polynomials.
    #[test]
    fn crc_implementations_agree(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        for (poly, convenience) in [
            (crc::POLY_CRC32, crc::crc32 as fn(&[u8]) -> u32),
            (crc::POLY_CRC32C, crc::crc32c),
        ] {
            let table = crc::CrcTable::new(poly);
            let bw = crc::crc_bitwise(poly, &data);
            prop_assert_eq!(table.crc_table(&data), bw);
            prop_assert_eq!(table.crc_slice8(&data), bw);
            prop_assert_eq!(convenience(&data), bw);
        }
    }

    /// The multiset digest is permutation-invariant and order-insensitive.
    #[test]
    fn multiset_digest_permutation_invariant(
        mut data in proptest::collection::vec(any::<u64>(), 0..256),
        seed in any::<u64>(),
    ) {
        let digest = MultisetDigest::of(&data);
        // Deterministic shuffle.
        let mut rng = CounterRng::new(seed);
        for i in (1..data.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            data.swap(i, j);
        }
        prop_assert_eq!(MultisetDigest::of(&data), digest);
    }

    /// check_sort accepts exactly the sorted permutation of the input.
    #[test]
    fn sort_checker_soundness(data in proptest::collection::vec(any::<u64>(), 1..256)) {
        let digest = MultisetDigest::of(&data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        prop_assert!(check_sort(digest, &sorted));
        // Corrupt one element: must reject.
        let mut bad = sorted.clone();
        bad[0] = bad[0].wrapping_add(1);
        bad.sort_unstable();
        prop_assert!(!check_sort(digest, &bad));
    }

    /// ABFT corrects any single corruption at any location.
    #[test]
    fn abft_corrects_any_single_corruption(
        seed in 0u64..1000,
        r in 0usize..8,
        c in 0usize..8,
        delta in prop_oneof![Just(1.0f64), Just(-3.5), Just(0.001), Just(1e6)],
    ) {
        let a = Matrix::random(8, 8, seed);
        let b = Matrix::random(8, 8, seed + 1);
        let mut p = AbftProduct::multiply(&a, &b);
        let honest = p.matrix().clone();
        p.matrix_mut()[(r, c)] += delta;
        let verdict = p.verify_and_correct().unwrap();
        let located_correctly = matches!(
            verdict,
            mercurial_mitigation::abft::AbftVerdict::Corrected { row, col, .. }
                if row == r && col == c
        );
        prop_assert!(located_correctly, "verdict was {:?}", verdict);
        prop_assert!(p.matrix().max_abs_diff(&honest) < 1e-6);
    }

    /// CoreUid's u64 encoding is injective over its whole domain.
    #[test]
    fn core_uid_roundtrip(machine in any::<u32>(), socket in any::<u8>(), core in any::<u16>()) {
        let uid = CoreUid::new(machine, socket, core);
        prop_assert_eq!(CoreUid::from_u64(uid.as_u64()), uid);
    }

    /// The event queue dequeues in non-decreasing time order regardless of
    /// insertion order.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0.0f64..1e6, 1..128)) {
        let mut q = mercurial_fleet::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// Counter RNG uniform draws are always in [0, 1).
    #[test]
    fn counter_rng_unit_interval(key in any::<u64>(), counter in any::<u64>()) {
        let u = CounterRng::new(key).uniform_at(counter);
        prop_assert!((0.0..1.0).contains(&u));
    }
}

/// Every value a drawn scenario sets: each scenario row of [`FIELDS`]
/// once, each product row once per product of the default catalog.
fn slots() -> Vec<(&'static Field, usize)> {
    let products = Scenario::small(0).fleet.products.len();
    FIELDS
        .iter()
        .flat_map(|field| {
            let n = if field.path.contains("[i]") {
                products
            } else {
                1
            };
            (0..n).map(move |i| (field, i))
        })
        .collect()
}

/// The range each row draws from: inside its bound, and small enough
/// (<= 200 machines, <= 6 months, screening passes at least a day apart,
/// noise and defect rates at most 500x and 40x the paper's) that a case
/// runs in milliseconds. A row without a range fails the property.
fn in_bound(path: &str) -> (f64, f64) {
    match path {
        "fleet.machines" => (1.0, 200.0),
        "fleet.sockets_per_machine" => (1.0, 4.0),
        "serve.workers" => (1.0, 8.0),
        "fleet.products[i].fleet_weight" => (0.0, 1.0),
        "fleet.products[i].cores_per_socket" => (1.0, 64.0),
        "fleet.products[i].mercurial_rate_per_core" => (0.0, 1e-3),
        "sim.months" => (1.0, 6.0),
        "sim.epoch_hours" => (1.0, 730.0),
        "offline_interval_hours" | "online_interval_hours" => (24.0, 4380.0),
        "closed_loop.triage_latency_hours"
        | "closed_loop.restore_latency_hours"
        | "tuning.triage_latency_hours"
        | "tuning.restore_latency_hours" => (0.0, 4380.0),
        "tuning.offline_drain_hours_per_machine" => (0.0, 24.0),
        "sim.noise_crash_rate" | "sim.noise_report_rate" => (0.0, 1e-2),
        "sim.machine_check_share"
        | "tuning.online_ops_fraction"
        | "offline_fraction"
        | "suspicion_threshold"
        | "workloads.traffic_amplitude" => (0.0, 1.0),
        _ => panic!("{path} has no draw range"),
    }
}

/// The small scenario (workload classes on, so the traffic amplitude
/// shapes traffic) as a JSON tree with every slot drawn in bound: a unit
/// draw below 0.1 takes the range's low edge, above 0.9 its high edge.
fn drawn(units: &[f64], seed: u64) -> serde_json::Value {
    let mut scenario = Scenario::small(seed);
    scenario.workloads.enabled = true;
    let mut tree: serde_json::Value = serde_json::from_str(&scenario.to_json()).unwrap();
    for ((field, i), &u) in slots().iter().zip(units) {
        let (lo, hi) = in_bound(field.path);
        let v = lo + ((u - 0.1) / 0.8).clamp(0.0, 1.0) * (hi - lo);
        let v = if field.bound == Bound::AtLeastOne {
            v.round()
        } else {
            v
        };
        set(&mut tree, field, *i, v);
    }
    tree
}

/// Writes `v` at `field` (of product `i`, on a per-product row).
fn set(tree: &mut serde_json::Value, field: &Field, i: usize, v: f64) {
    let path = field.path.replace("[i]", &format!(".{i}"));
    let leaf = tree.pointer_mut(&format!("/{}", path.replace('.', "/")));
    *leaf.expect(field.path) = serde_json::Value::Number(serde_json::Number::F64(v));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A scenario with every table row in bound runs the closed loop,
    /// feedback on and off, and the batch pipeline without panicking.
    #[test]
    fn in_bound_scenarios_run_without_panicking(
        units in proptest::collection::vec(0.0f64..1.0, slots().len()),
        seed in any::<u64>(),
    ) {
        let json = serde_json::to_string(&drawn(&units, seed)).unwrap();
        let scenario = match Scenario::from_json(&json) {
            Ok(scenario) => scenario,
            // Each weight may be 0; all of them at once is the catalog's
            // own list check.
            Err(e) if e.starts_with("fleet.products weights") => return,
            Err(e) => panic!("{e}"),
        };
        for feedback in [true, false] {
            let mut s = scenario.clone();
            s.closed_loop.feedback = feedback;
            ClosedLoopDriver::execute(&s);
        }
        PipelineRun::execute(&scenario);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One table row out of bound in an otherwise drawn scenario is an
    /// error naming that row's path.
    #[test]
    fn a_row_out_of_bound_is_an_error_naming_its_path(
        units in proptest::collection::vec(0.0f64..1.0, slots().len()),
        slot in 0..slots().len(),
        u in 0.0f64..1.0,
    ) {
        let (field, i) = slots()[slot];
        let v = match field.bound {
            Bound::AtLeastOne => 0.0,
            Bound::Positive => -u * 1e6,
            Bound::NonNegative => -1e-9 - u * 1e6,
            Bound::UnitInterval if u < 0.5 => -1e-9 - u * 2e6,
            Bound::UnitInterval => 1.0 + 1e-9 + (u - 0.5) * 2e6,
        };
        let mut tree = drawn(&units, 7);
        set(&mut tree, field, i, v);
        let err = Scenario::from_json(&serde_json::to_string(&tree).unwrap()).unwrap_err();
        let path = field.path.replace("[i]", &format!("[{i}]"));
        prop_assert!(err.starts_with(&format!("{path} must be ")), "{v}: {err}");
    }
}
