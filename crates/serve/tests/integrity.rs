//! End-to-end model-image integrity: every deployment artefact (model
//! image, zoo) carries a whole-section CRC-32, so a corrupted byte
//! anywhere — weights, scales, directory, names — surfaces as a *typed*
//! load error before a single weight byte is served, never as a panic
//! and never as silently wrong logits. Persistence is crash-safe
//! ([`write_image_atomic`]): a concurrent reader can only ever observe a
//! complete old or complete new image, whose CRC then vouches for every
//! byte.
//!
//! [`write_image_atomic`]: mfdfp_core::write_image_atomic

use std::sync::Arc;

use mfdfp_core::{
    calibrate, to_image, write_image_atomic, AlignedBytes, CoreError, ImageView, QuantizedNet,
    ZooBuilder, ZooView,
};
use mfdfp_nn::zoo;
use mfdfp_serve::{ModelRegistry, ServeConfig, ServeError, Server};
use mfdfp_tensor::{Tensor, TensorRng};

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes).
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn two_model_zoo() -> Vec<u8> {
    let mut builder = ZooBuilder::new();
    for i in 0..2u64 {
        builder.push(&format!("m{i}"), &tiny_qnet(300 + i));
    }
    builder.finish().as_slice().to_vec()
}

/// The proptest: flip one byte (every offset in the headers/directory,
/// a dense stride through the payload) and the zoo must be rejected
/// with a typed error — no panic, nothing registered, no weight byte
/// ever served. CRC-32 detects *all* single-byte corruptions, so there
/// are no survivable offsets to carve out.
#[test]
fn any_single_byte_flip_in_a_zoo_is_rejected_typed() {
    let bytes = two_model_zoo();
    // Every byte of the first 256 (zoo header + directory + the first
    // model's header — the parsing-sensitive region), then a stride
    // through the weight payload, then the tail.
    let mut offsets: Vec<usize> = (0..256.min(bytes.len())).collect();
    offsets.extend((256..bytes.len()).step_by(97));
    offsets.extend(bytes.len().saturating_sub(8)..bytes.len());

    for off in offsets {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x40;
        let registry = ModelRegistry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.load_zoo_bytes(&corrupt)
        }));
        let result = result.unwrap_or_else(|_| panic!("flip at byte {off} panicked the loader"));
        assert!(result.is_err(), "flip at byte {off} was not detected");
        assert!(registry.is_empty(), "flip at byte {off} still registered models");
    }
}

#[test]
fn single_byte_flip_in_a_model_image_is_rejected_typed() {
    let net = tiny_qnet(42);
    let image = to_image(&net);
    let bytes = image.as_slice();
    let mut offsets: Vec<usize> = (0..128.min(bytes.len())).collect();
    offsets.extend((128..bytes.len()).step_by(61));

    for off in offsets {
        let mut corrupt = bytes.to_vec();
        corrupt[off] ^= 0x01;
        let view = ImageView::open(Arc::new(AlignedBytes::from_slice(&corrupt)));
        assert!(
            view.and_then(|v| QuantizedNet::from_image(&v)).is_err(),
            "flip at byte {off} produced a loadable image"
        );
    }
}

/// The checksum cannot be switched off: zeroing the zoo's CRC word
/// (32..36), with or without its "CRC1" marker (36..40), is a typed load
/// error that registers nothing. The single-byte fuzz above cannot reach
/// this case: it takes eight zeroed bytes.
#[test]
fn zeroed_checksum_zoo_is_rejected_typed() {
    for blank in [32..40, 32..36] {
        let mut bytes = two_model_zoo();
        bytes[blank].fill(0);
        let registry = ModelRegistry::new();
        let loaded = registry.load_zoo_bytes(&bytes);
        assert!(matches!(loaded, Err(ServeError::Inference(CoreError::BadImage(_)))));
        assert!(registry.is_empty());
    }
}

/// Crash-safe publication: while a writer repeatedly rewrites the zoo
/// file with [`write_image_atomic`], a concurrent reader re-opening the
/// path must only ever see a complete, CRC-valid generation — never a
/// truncated or mid-write file.
#[test]
fn atomic_rewrites_are_never_observed_torn() {
    const REWRITES: usize = 40;

    let gen_a = {
        let mut b = ZooBuilder::new();
        b.push("gen", &tiny_qnet(70));
        b.finish().as_slice().to_vec()
    };
    let gen_b = {
        let mut b = ZooBuilder::new();
        b.push("gen", &tiny_qnet(71));
        b.finish().as_slice().to_vec()
    };
    assert_ne!(gen_a, gen_b);

    let dir = std::env::temp_dir().join(format!("mfdfp-integrity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zoo.mfdfp");
    write_image_atomic(&path, &gen_a).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let path = path.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let bytes = std::fs::read(&path).expect("published path must always exist");
                // Every observable state must be a whole CRC-valid zoo.
                let zoo = ZooView::open(Arc::new(AlignedBytes::from_slice(&bytes)))
                    .expect("reader observed a torn or corrupt image");
                assert_eq!(zoo.names(), vec!["gen"]);
                observed += 1;
            }
            observed
        })
    };

    for i in 0..REWRITES {
        let next = if i % 2 == 0 { &gen_b } else { &gen_a };
        write_image_atomic(&path, next).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let observed = reader.join().unwrap();
    assert!(observed > 0, "the reader must have actually raced the writer");

    // No temporary files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "zoo.mfdfp")
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed (corrupt) zoo load must leave an already-serving registry
/// untouched: the previous version keeps serving bit-exactly.
#[test]
fn corrupt_reload_keeps_serving_the_previous_version() {
    let original = tiny_qnet(80);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m0", original.clone());
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();

    let img = TensorRng::seed_from(11).gaussian([3, 16, 16], 0.0, 0.7);
    let before = server.submit("m0", img.clone()).unwrap().wait().unwrap();
    assert_eq!(bits(&before.logits), bits(&original.logits(&img).unwrap()));
    assert_eq!(before.version, 1);

    // An operator pushes a corrupted replacement zoo (same model name).
    let mut bytes = two_model_zoo();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    assert!(registry.load_zoo_bytes(&bytes).is_err(), "corrupt zoo must be rejected");

    // The tier never skipped a beat: same version, same bits.
    let after = server.submit("m0", img.clone()).unwrap().wait().unwrap();
    assert_eq!(after.version, 1, "a rejected reload must not bump the version");
    assert_eq!(bits(&after.logits), bits(&original.logits(&img).unwrap()));
    assert_eq!(registry.version("m0").unwrap(), 1);
    server.shutdown();
}
