//! Property tests: the FTL must behave like a plain logical page store under
//! arbitrary interleavings of writes (short images included), trims and
//! reads, with garbage collection and wear levelling running underneath.

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, FreeBlockPool};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write { lpn: u64, byte: u8, len: usize },
    Trim { lpn: u64 },
    Read { lpn: u64 },
}

fn op_strategy(logical_pages: u64, page_size: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..logical_pages, any::<u8>(), 1..=page_size).prop_map(|(lpn, byte, len)| Op::Write {
            lpn,
            byte,
            len
        }),
        (0..logical_pages).prop_map(|lpn| Op::Trim { lpn }),
        (0..logical_pages).prop_map(|lpn| Op::Read { lpn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ftl_matches_model(ops in proptest::collection::vec(op_strategy(24, 256), 1..300)) {
        let geometry = FlashGeometry {
            page_size: 256,
            pages_per_block: 4,
            block_count: 10,
            spare_blocks: 3,
        };
        prop_assume!(geometry.logical_pages() >= 24);
        let mut dev = FlashDevice::new(geometry, FlashTiming::default());
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::Write { lpn, byte, len } => {
                    let image = vec![byte; len];
                    dev.write(lpn, &image).unwrap();
                    let mut page = vec![0u8; 256];
                    page[..len].copy_from_slice(&image);
                    model.insert(lpn, page);
                }
                Op::Trim { lpn } => {
                    dev.trim(lpn).unwrap();
                    model.remove(&lpn);
                }
                Op::Read { lpn } => {
                    let mut buf = vec![0u8; 256];
                    dev.read(lpn, 0, &mut buf).unwrap();
                    let expect = model.get(&lpn).cloned().unwrap_or_else(|| vec![0u8; 256]);
                    prop_assert_eq!(&buf, &expect, "lpn {}", lpn);
                }
            }
        }

        // Final full check of every logical page.
        for lpn in 0..24u64 {
            let mut buf = vec![0u8; 256];
            dev.read(lpn, 0, &mut buf).unwrap();
            let expect = model.get(&lpn).cloned().unwrap_or_else(|| vec![0u8; 256]);
            prop_assert_eq!(&buf, &expect, "final lpn {}", lpn);
        }
    }

    #[test]
    fn free_block_pool_is_bit_identical_to_the_linear_scan(
        // Erase counts drawn from a small range to force heavy ties; the
        // op stream interleaves pushes and takes in arbitrary order.
        ops in proptest::collection::vec((any::<bool>(), 0u64..6), 1..200)
    ) {
        const BLOCKS: u64 = 64;
        let mut pool = FreeBlockPool::new(BLOCKS);
        // Reference: the original representation — a Vec in push order,
        // selection by `min_by_key` over erase counts, `swap_remove`.
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut next_block = 0u64;
        for (take, count) in ops {
            if take {
                let want = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, c))| *c)
                    .map(|(idx, _)| idx);
                let got = pool.take_least_erased();
                match want {
                    Some(idx) => {
                        let (block, _) = reference.swap_remove(idx);
                        prop_assert_eq!(got, Some(block));
                        prop_assert!(!pool.contains(block));
                    }
                    None => prop_assert_eq!(got, None),
                }
            } else if next_block < BLOCKS {
                pool.push(next_block, count);
                reference.push((next_block, count));
                prop_assert!(pool.contains(next_block));
                next_block += 1;
            }
            prop_assert_eq!(pool.len(), reference.len());
        }
        // Drain: every remaining selection must match the scan.
        while let Some(got) = pool.take_least_erased() {
            let (idx, _) = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, c))| *c)
                .expect("reference still has blocks");
            prop_assert_eq!(got, reference.swap_remove(idx).0);
        }
        prop_assert!(reference.is_empty());
    }

    #[test]
    fn stats_are_monotone_and_time_positive(
        writes in proptest::collection::vec((0u64..16, 1usize..256), 1..100)
    ) {
        let geometry = FlashGeometry {
            page_size: 256,
            pages_per_block: 4,
            block_count: 8,
            spare_blocks: 2,
        };
        let mut dev = FlashDevice::new(geometry, FlashTiming::default());
        let mut last = dev.elapsed();
        for (lpn, len) in writes {
            dev.write(lpn, &vec![1u8; len]).unwrap();
            let now = dev.elapsed();
            prop_assert!(now > last, "simulated clock must advance on writes");
            last = now;
        }
    }
}
