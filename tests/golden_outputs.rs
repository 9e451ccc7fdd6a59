//! Golden outputs of the pipeline: the producing half (executor →
//! caching allocator → trace sink → `.ptrc` encoder) and the report the
//! analysing half (decoder → folds → renderer) makes of its stores.
//!
//! Every figure and paper claim starts from these bytes, so any drift in
//! what the executor records, where the allocator places a block, how
//! the encoder lays out a chunk, or what a report renders fails here,
//! not only as a changed figure further down. The pinned values are
//! exact: a change that means to alter them must say why and re-pin them.

use pinpoint::analysis::{report_json, OutlierCriteria, TraceReport};
use pinpoint::core::{profile, profile_into_sink, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::device::alloc::{AllocError, AllocStats, CachingAllocator, DeviceAllocator};
use pinpoint::models::{Architecture, ResNetDepth};
use pinpoint::store::crc32::crc32;
use pinpoint::store::{write_store, write_store_chunked, StoreReader, StoreWriter};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::Trace;

/// What a profile must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct ProfileGolden {
    events: u64,
    store_bytes: usize,
    store_crc32: u32,
    duration_ns: u64,
    alloc: AllocStats,
}

/// Profiles `cfg` twice, once in memory and written with `write_store`,
/// once streamed into a file by `profile_into_sink`, and checks that both
/// stores are the same bytes and match `want`.
fn check_profile(tag: &str, cfg: &ProfileConfig, want: ProfileGolden) {
    let report = profile(cfg).unwrap();
    let mut bytes = Vec::new();
    write_store(&report.trace, &mut bytes).unwrap();
    let got = ProfileGolden {
        events: report.trace.len() as u64,
        store_bytes: bytes.len(),
        store_crc32: crc32(&bytes),
        duration_ns: report.duration_ns,
        alloc: report.alloc_stats,
    };
    assert_eq!(got, want, "{tag}: in-memory profile");

    let path =
        std::env::temp_dir().join(format!("pinpoint_golden_{tag}_{}.ptrc", std::process::id()));
    let sunk = profile_into_sink(cfg, Box::new(StoreWriter::create(&path).unwrap())).unwrap();
    let streamed = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(streamed == bytes, "{tag}: streamed store differs");
    assert_eq!(sunk.events_recorded, got.events, "{tag}");
    assert_eq!(sunk.duration_ns, got.duration_ns, "{tag}");
    assert_eq!(sunk.alloc_stats, got.alloc, "{tag}");
}

#[test]
fn mlp_case_study_store_is_pinned() {
    check_profile(
        "mlp",
        &ProfileConfig::mlp_case_study(5),
        ProfileGolden {
            events: 428,
            store_bytes: 4451,
            store_crc32: 0xe19a_f1e5,
            duration_ns: 1_463_817,
            alloc: AllocStats {
                allocated_bytes: 246_272,
                peak_allocated_bytes: 19_222_016,
                reserved_bytes: 23_068_672,
                peak_reserved_bytes: 23_068_672,
                num_mallocs: 84,
                num_frees: 80,
                cache_hit_mallocs: 82,
            },
        },
    );
}

/// Four training iterations of ResNet-18 on CIFAR-100, batch 32.
fn resnet18_config() -> ProfileConfig {
    let mut cfg = ProfileConfig::breakdown_sweep(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        32,
    );
    cfg.iterations = 4;
    cfg
}

#[test]
fn resnet18_store_is_pinned() {
    check_profile(
        "r18",
        &resnet18_config(),
        ProfileGolden {
            events: 6284,
            store_bytes: 75_623,
            store_crc32: 0xcfa7_0402,
            duration_ns: 9_815_959,
            alloc: AllocStats {
                allocated_bytes: 44_955_136,
                peak_allocated_bytes: 103_154_176,
                reserved_bytes: 123_731_968,
                peak_reserved_bytes: 123_731_968,
                num_mallocs: 1238,
                num_frees: 1136,
                cache_hit_mallocs: 1224,
            },
        },
    );
}

/// `report --json`'s default criteria (`--min-ati-ms 800 --min-size-mb 600`).
const CLI_CRITERIA: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 800_000_000,
    min_size_bytes: 600_000_000,
};

/// Criteria that let every nonzero interval through, so the report lists
/// nearly every ATI record, in record order.
const ALL_INTERVALS: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 0,
    min_size_bytes: 0,
};

/// Length and CRC-32 of `report_json` with every Gantt rectangle, for
/// `trace` stored in chunks of `chunk` events, folded at 1 and at 4
/// threads (which must render the same bytes).
fn report_digest(trace: &Trace, chunk: usize, criteria: OutlierCriteria) -> (usize, u32) {
    let mut bytes = Vec::new();
    write_store_chunked(trace, &mut bytes, chunk).unwrap();
    let reader = StoreReader::from_bytes(bytes).unwrap();
    let render = |threads| {
        let d = TraceReport::from_store(&reader, criteria, threads).unwrap();
        report_json(&d, usize::MAX)
    };
    let json = render(1);
    assert!(
        json == render(4),
        "chunk {chunk}: 4 threads render other bytes"
    );
    (json.len(), crc32(json.as_bytes()))
}

#[test]
fn reports_are_pinned() {
    let default_chunk = pinpoint::store::DEFAULT_CHUNK_EVENTS;
    let cases = [
        (
            "mlp",
            ProfileConfig::mlp_case_study(5),
            [
                (8707, 0x0265_03fd),
                (23_636, 0xd8a4_72e6),
                (8709, 0x918d_2ff2),
                (23_638, 0x80c4_9b64),
            ],
        ),
        (
            "r18",
            resnet18_config(),
            [
                (125_739, 0x7fa0_47d3),
                (369_717, 0x11cc_718f),
                (125_743, 0x4cea_2bef),
                (369_721, 0x76c7_2129),
            ],
        ),
    ];
    for (tag, cfg, want) in cases {
        let trace = profile(&cfg).unwrap().trace;
        let mut got = Vec::new();
        for chunk in [default_chunk, 37] {
            for criteria in [CLI_CRITERIA, ALL_INTERVALS] {
                got.push(report_digest(&trace, chunk, criteria));
            }
        }
        assert_eq!(
            got, want,
            "{tag}: (default, 37)-event chunks x (CLI, all) criteria"
        );
    }
}

/// FNV-1a over 64-bit words: a digest of every allocator answer.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Which rare allocator paths a sequence reached, read off its answers.
#[derive(Debug, Default)]
struct Coverage {
    ooms: u32,
    /// Misses that grew the reservation by less than the request: cached
    /// segments were released first (the automatic `empty_cache` retry).
    retries: u32,
    /// Large misses whose new segment is exactly the rounded request,
    /// below the 20 MB large-segment minimum.
    exact_segments: u32,
    /// Misses placed below the highest address ever handed out: a new
    /// segment on a released address range.
    va_reuses: u32,
}

/// The pinned outcome of one seeded allocator sequence.
#[derive(Debug, PartialEq, Eq)]
struct AllocGolden {
    digest: u64,
    stats: AllocStats,
    /// `(reserved, cached_free, free_chunks, largest_free)` per pool.
    small: (usize, usize, usize, usize),
    large: (usize, usize, usize, usize),
}

const MB: usize = 1 << 20;

/// Runs a seeded malloc/free/`empty_cache` sequence on a device of
/// `capacity` bytes, digesting every returned `(id, offset, size)` and
/// error.
fn run_sequence(seed: u64, capacity: usize, steps: usize) -> (AllocGolden, Coverage) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut a = CachingAllocator::new(capacity);
    let mut live = Vec::new();
    let mut digest = Digest::new();
    let mut cov = Coverage::default();
    let mut high_water = 0usize;
    for _ in 0..steps {
        let roll = rng.gen_below(100);
        if roll < 52 || live.is_empty() {
            let size = if rng.gen_below(5) < 3 {
                rng.gen_range_usize(1, MB)
            } else {
                rng.gen_range_usize(MB + 1, 30 * MB)
            };
            let before = *a.stats();
            match a.malloc(size) {
                Ok(b) => {
                    digest.words(&[0, b.id.0, b.offset as u64, b.size as u64]);
                    let after = *a.stats();
                    if after.cache_hit_mallocs == before.cache_hit_mallocs {
                        let grew = after.reserved_bytes as i64 - before.reserved_bytes as i64;
                        let rounded = size.div_ceil(512) * 512;
                        if grew < b.size.min(2 * MB) as i64 {
                            cov.retries += 1;
                        } else if size > MB && rounded < 20 * MB && grew == rounded as i64 {
                            cov.exact_segments += 1;
                        }
                        if b.offset < high_water {
                            cov.va_reuses += 1;
                        }
                    }
                    high_water = high_water.max(b.offset + b.size);
                    live.push(b.id);
                }
                Err(AllocError::OutOfMemory {
                    requested,
                    capacity,
                    reserved,
                }) => {
                    digest.words(&[1, requested as u64, capacity as u64, reserved as u64]);
                    cov.ooms += 1;
                }
                Err(e) => panic!("unexpected allocator error {e}"),
            }
        } else if roll < 97 {
            let k = rng.gen_below(live.len() as u64) as usize;
            let b = a.free(live.swap_remove(k)).unwrap();
            digest.words(&[
                2,
                b.id.0,
                b.offset as u64,
                b.size as u64,
                b.requested as u64,
            ]);
        } else {
            let released = a.empty_cache();
            digest.words(&[3, released as u64]);
        }
        a.debug_check_invariants().unwrap();
    }
    let (s, l) = a.pool_stats();
    let golden = AllocGolden {
        digest: digest.0,
        stats: *a.stats(),
        small: (
            s.reserved_bytes,
            s.cached_free_bytes,
            s.free_chunks,
            s.largest_free_bytes,
        ),
        large: (
            l.reserved_bytes,
            l.cached_free_bytes,
            l.free_chunks,
            l.largest_free_bytes,
        ),
    };
    (golden, cov)
}

#[test]
fn caching_allocator_sequences_are_pinned() {
    let cases: [(u64, usize, AllocGolden); 4] = [
        (
            1,
            24 * MB,
            AllocGolden {
                digest: 7_785_879_545_030_047_198,
                stats: AllocStats {
                    allocated_bytes: 21_708_800,
                    peak_allocated_bytes: 24_215_040,
                    reserved_bytes: 23_068_672,
                    peak_reserved_bytes: 25_165_824,
                    num_mallocs: 243,
                    num_frees: 240,
                    cache_hit_mallocs: 200,
                },
                small: (2_097_152, 1_359_872, 2, 1_222_656),
                large: (20_971_520, 0, 0, 0),
            },
        ),
        (
            2,
            40 * MB,
            AllocGolden {
                digest: 12_834_523_323_373_743_972,
                stats: AllocStats {
                    allocated_bytes: 35_449_856,
                    peak_allocated_bytes: 38_820_352,
                    reserved_bytes: 39_260_672,
                    peak_reserved_bytes: 40_634_880,
                    num_mallocs: 261,
                    num_frees: 256,
                    cache_hit_mallocs: 211,
                },
                small: (4_194_304, 1_669_632, 3, 1_148_928),
                large: (35_066_368, 2_141_184, 1, 2_141_184),
            },
        ),
        (
            3,
            64 * MB,
            AllocGolden {
                digest: 9_764_462_002_084_131_506,
                stats: AllocStats {
                    allocated_bytes: 3_009_024,
                    peak_allocated_bytes: 60_205_056,
                    reserved_bytes: 32_855_040,
                    peak_reserved_bytes: 65_234_432,
                    num_mallocs: 285,
                    num_frees: 279,
                    cache_hit_mallocs: 237,
                },
                small: (4_194_304, 1_185_280, 3, 679_424),
                large: (28_660_736, 28_660_736, 1, 28_660_736),
            },
        ),
        (
            4,
            96 * MB,
            AllocGolden {
                digest: 3_845_233_807_738_244_029,
                stats: AllocStats {
                    allocated_bytes: 38_573_568,
                    peak_allocated_bytes: 79_139_840,
                    reserved_bytes: 71_621_632,
                    peak_reserved_bytes: 97_018_368,
                    num_mallocs: 283,
                    num_frees: 276,
                    cache_hit_mallocs: 255,
                },
                small: (4_194_304, 1_852_928, 5, 977_408),
                large: (67_427_328, 31_195_136, 1, 31_195_136),
            },
        ),
    ];
    let mut total = Coverage::default();
    for (seed, capacity, want) in cases {
        let (got, cov) = run_sequence(seed, capacity, 600);
        assert_eq!(got, want, "seed {seed}, capacity {capacity}");
        total.ooms += cov.ooms;
        total.retries += cov.retries;
        total.exact_segments += cov.exact_segments;
        total.va_reuses += cov.va_reuses;
    }
    // the sequences must reach the paths the 1 GB property tests rarely do
    assert!(total.ooms > 0, "{total:?}");
    assert!(total.retries > 0, "{total:?}");
    assert!(total.exact_segments > 0, "{total:?}");
    assert!(total.va_reuses > 0, "{total:?}");
}
