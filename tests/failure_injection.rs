//! Failure-path integration tests: out-of-memory must surface as a typed
//! error at a deterministic point, never as a panic or a corrupt trace.

use pinpoint::core::{profile, profile_into_sink, ProfileConfig, ProfileError};
use pinpoint::data::DatasetSpec;
use pinpoint::device::alloc::{AllocError, CachingAllocator, DeviceAllocator};
use pinpoint::device::{AllocatorPolicy, DeviceConfig, SimDevice};
use pinpoint::models::Architecture;
use pinpoint::store::StoreWriter;
use pinpoint::trace::MemoryKind;

#[test]
fn oom_error_is_typed_and_descriptive() {
    let mut cfg = ProfileConfig::breakdown_sweep(Architecture::Vgg16, DatasetSpec::imagenet(), 64);
    cfg.device.capacity_bytes = 1 << 30; // 1 GB cannot hold VGG-16 training
    let err = profile(&cfg).unwrap_err();
    let ProfileError::Device(AllocError::OutOfMemory {
        requested,
        capacity,
        reserved,
    }) = err
    else {
        panic!("expected OOM, got {err:?}");
    };
    assert_eq!(capacity, 1 << 30);
    assert!(reserved <= capacity);
    assert!(requested > 0);
}

#[test]
fn oom_point_is_deterministic() {
    let run = || {
        let mut cfg =
            ProfileConfig::breakdown_sweep(Architecture::Vgg16, DatasetSpec::cifar100(), 256);
        cfg.device.capacity_bytes = 200 << 20;
        profile(&cfg).unwrap_err()
    };
    assert_eq!(run(), run(), "the failure point must not wobble");
}

#[test]
fn capacity_exactly_at_peak_succeeds_and_one_byte_less_fails() {
    // measure the reserved-bytes requirement, then pin capacity to it
    let probe = ProfileConfig::breakdown_sweep(Architecture::LeNet5, DatasetSpec::cifar100(), 32);
    let report = profile(&probe).unwrap();
    let needed = report.alloc_stats.peak_reserved_bytes;
    let mut exact = probe.clone();
    exact.device.capacity_bytes = needed;
    assert!(profile(&exact).is_ok(), "exact capacity must fit");
    let mut tight = probe;
    // removing one 2 MB small-pool segment's worth must break it
    tight.device.capacity_bytes = needed - (2 << 20);
    assert!(matches!(
        profile(&tight),
        Err(ProfileError::Device(AllocError::OutOfMemory { .. }))
    ));
}

#[test]
fn failed_malloc_leaves_the_allocator_usable() {
    let mut a = CachingAllocator::new(30 << 20);
    let b1 = a.malloc(20 << 20).unwrap();
    assert!(a.malloc(20 << 20).is_err(), "second 20 MB cannot fit");
    // the failure must not corrupt state: freeing and retrying succeeds
    a.free(b1.id).unwrap();
    let b2 = a.malloc(20 << 20).unwrap();
    assert_eq!(b2.offset, b1.offset);
    a.debug_check_invariants().unwrap();
}

#[test]
fn trace_is_valid_up_to_the_oom() {
    // drive the device manually into OOM and confirm everything recorded
    // before the failure still validates
    let mut dev = SimDevice::new(DeviceConfig {
        capacity_bytes: 25 << 20,
        allocator: AllocatorPolicy::Caching,
        ..DeviceConfig::deterministic()
    });
    let a = dev
        .malloc(10 << 20, MemoryKind::Activation, Some("a"))
        .unwrap();
    dev.launch_kernel("work", 1000, 10 << 20, &[a], &[a]);
    let err = dev.malloc(30 << 20, MemoryKind::Activation, Some("b"));
    assert!(err.is_err());
    dev.trace()
        .validate()
        .expect("no partial events from the failed malloc");
    assert_eq!(dev.trace().len(), 3); // malloc + read + write only
}

#[test]
fn tiny_devices_fail_fast_at_parameter_upload() {
    let mut cfg = ProfileConfig::mlp_case_study(100);
    cfg.device.capacity_bytes = 1 << 10;
    let t0 = std::time::Instant::now();
    assert!(profile(&cfg).is_err());
    assert!(
        t0.elapsed().as_millis() < 2_000,
        "OOM during init must not run the full loop"
    );
}

#[test]
fn a_profile_that_fails_leaves_neither_store_nor_temp_file() {
    let dir = std::env::temp_dir().join(format!("pinpoint_failed_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.ptrc");
    // a 1 MiB device cannot hold even one 2 MiB small-pool segment
    let mut cfg = ProfileConfig::mlp_case_study(5);
    cfg.device.capacity_bytes = 1 << 20;
    let writer = StoreWriter::create(&path).unwrap();
    let err = profile_into_sink(&cfg, Box::new(writer)).unwrap_err();
    assert!(
        matches!(err, ProfileError::Device(AllocError::OutOfMemory { .. })),
        "{err:?}"
    );
    assert!(!path.exists(), "no store for a failed profile");
    assert!(!dir.join("x.ptrc.tmp").exists(), "temp file removed");
    std::fs::remove_dir(&dir).unwrap();
}
