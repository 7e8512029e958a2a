//! Property-based tests on cross-crate invariants.

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
