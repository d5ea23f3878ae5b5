//! Property-based tests of the v2 flat deployment image: the borrowed
//! (zero-copy) construction path must be observationally identical to the
//! owned path, and arbitrary corruption, truncation or misalignment must
//! come back as typed
//! [`CoreError::BadImage`] errors — never a panic, never undefined reads.

use std::sync::Arc;

use mfdfp_core::{calibrate, to_image, CoreError, ImageView, QLayer, QuantizedNet, ZooBuilder};
use mfdfp_dfp::AlignedBytes;
use mfdfp_nn::layers::{Conv2d, Flatten, Linear, Pool};
use mfdfp_nn::{zoo, Layer, Network};
use mfdfp_tensor::{ConvGeometry, PoolGeometry, PoolKind, Tensor, TensorRng};
use proptest::prelude::*;

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes) whose
/// weights derive from `seed`.
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

fn logit_bits(net: &QuantizedNet, img: &Tensor) -> Vec<u32> {
    net.logits(img).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Decoded weight codes and bias values of every weighted layer — the
/// ground truth both construction paths must agree on exactly.
fn layer_payloads(net: &QuantizedNet) -> Vec<(Vec<mfdfp_dfp::Pow2Weight>, Vec<i64>)> {
    net.layers()
        .iter()
        .filter_map(|l| match l {
            QLayer::Conv(c) => Some((c.weights.to_weights(), c.bias.to_vec())),
            QLayer::Linear(l) => Some((l.weights.to_weights(), l.bias.to_vec())),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Owned and image-borrowed networks hold identical weight codes and
    /// biases, and produce bit-identical logits.
    #[test]
    fn image_round_trip_is_bit_identical(seed in 0u64..1000) {
        let owned = tiny_qnet(seed);
        let view = ImageView::open(Arc::new(to_image(&owned))).unwrap();
        let borrowed = QuantizedNet::from_image(&view).unwrap();

        prop_assert_eq!(borrowed.name(), owned.name());
        prop_assert_eq!(borrowed.classes(), owned.classes());
        prop_assert_eq!(layer_payloads(&borrowed), layer_payloads(&owned));

        let mut rng = TensorRng::seed_from(seed ^ 0xD15EA5E);
        let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
        prop_assert_eq!(logit_bits(&borrowed, &img), logit_bits(&owned, &img));
    }

    /// Truncating an image anywhere is always detected as a typed error.
    #[test]
    fn truncation_is_always_detected(cut in 0usize..4096) {
        let image = to_image(&tiny_qnet(42));
        let cut = cut.min(image.len().saturating_sub(1));
        let truncated = AlignedBytes::from_slice(&image.as_slice()[..cut]);
        match ImageView::open(Arc::new(truncated)) {
            Err(CoreError::BadImage(_)) => {}
            Err(e) => prop_assert!(false, "wrong error kind: {e}"),
            Ok(_) => prop_assert!(false, "truncated image at {cut} bytes was accepted"),
        }
    }

    /// Flipping any single byte never panics: the reader either rejects
    /// the image with a typed error or — when the flip lands in payload
    /// or padding — still builds a servable network whose forward pass
    /// completes without faulting.
    #[test]
    fn corruption_never_panics(pos in 0usize..16384, flip in 1u8..=255) {
        let image = to_image(&tiny_qnet(7));
        let pos = pos % image.len();
        let mut bytes = image.as_slice().to_vec();
        bytes[pos] ^= flip;
        match ImageView::open(Arc::new(AlignedBytes::from_slice(&bytes))) {
            Err(CoreError::BadImage(_)) | Err(CoreError::Dfp(_)) | Err(CoreError::Tensor(_)) => {}
            Err(e) => prop_assert!(false, "wrong error kind: {e}"),
            Ok(view) => {
                // Structurally valid ⇒ must serve without panicking.
                if let Ok(net) = QuantizedNet::from_image(&view) {
                    let mut rng = TensorRng::seed_from(9);
                    let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
                    let _ = net.logits(&img);
                }
            }
        }
    }
}

#[test]
fn misaligned_zoo_section_is_rejected() {
    // Hand-build a zoo whose directory points a model at an unaligned
    // offset: the reader must refuse rather than hand out unaligned views.
    let image = to_image(&tiny_qnet(3));
    let mut builder = ZooBuilder::new();
    builder.push_image("m", image);
    let zoo = builder.finish();
    let mut bytes = zoo.as_slice().to_vec();
    // Directory entry 0 starts at offset 64; model_off lives at +8.
    let model_off = u64::from_le_bytes(bytes[72..80].try_into().unwrap());
    bytes[72..80].copy_from_slice(&(model_off + 1).to_le_bytes());
    let opened = mfdfp_core::ZooView::open(Arc::new(AlignedBytes::from_slice(&bytes)));
    assert!(matches!(opened, Err(CoreError::BadImage(_))));
}

#[test]
fn open_at_rejects_unaligned_base() {
    let image = to_image(&tiny_qnet(3));
    let buf = Arc::new(AlignedBytes::from_slice(image.as_slice()));
    let len = buf.len();
    assert!(matches!(ImageView::open_at(buf, 32, len - 32), Err(CoreError::BadImage(_))));
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let image = to_image(&tiny_qnet(3));
    let mut bytes = image.as_slice().to_vec();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        ImageView::open(Arc::new(AlignedBytes::from_slice(&bytes))),
        Err(CoreError::BadImage(_))
    ));
    let mut bytes = image.as_slice().to_vec();
    bytes[8] = 9; // version
    assert!(matches!(
        ImageView::open(Arc::new(AlignedBytes::from_slice(&bytes))),
        Err(CoreError::BadImage(_))
    ));
}

#[test]
fn zeroed_checksum_is_rejected() {
    // Blanking the CRC word (44..48), with or without its "CRC1" marker
    // (48..52), must not switch verification off.
    let image = to_image(&tiny_qnet(3));
    for blank in [44..52, 44..48] {
        let mut bytes = image.as_slice().to_vec();
        bytes[blank].fill(0);
        let opened = ImageView::open(Arc::new(AlignedBytes::from_slice(&bytes)));
        assert!(matches!(opened, Err(CoreError::BadImage(_))));
    }
}

#[test]
fn image_is_compact() {
    let net = tiny_qnet(8);
    let (mut float_bytes, mut payload, mut weighted) = (0, 0, 0);
    for layer in net.layers() {
        let (w, bias) = match layer {
            QLayer::Conv(c) => (&c.weights, &c.bias),
            QLayer::Linear(l) => (&l.weights, &l.bias),
            _ => continue,
        };
        float_bytes += w.count() * 4;
        payload += w.rows() * w.row_stride() + 8 * bias.len();
        weighted += 1;
    }
    let len = to_image(&net).len();
    // Weights dominate and are nibble-packed: well under the float size.
    assert!(len < float_bytes / 2, "{len} vs {float_bytes}");
    // The rest is the header, the name, a 96-byte entry per layer and
    // under 64 bytes of padding before each aligned section (two per
    // weighted layer, the layer table, the tail).
    let bound = 64 * (2 * weighted + 3) + 96 * net.layers().len() + net.name().len();
    assert!(len - payload <= bound, "{} bytes of overhead, bound {bound}", len - payload);
}

/// Re-stamps the model CRC (word 44..48, hashed with that word zeroed)
/// after a deliberate header or layer-table edit, so the image passes
/// the checksum and only the structural checks can catch the edit.
fn restamp(bytes: &mut [u8]) {
    bytes[44..48].fill(0);
    let crc = mfdfp_dfp::crc32(bytes);
    bytes[44..48].copy_from_slice(&crc.to_le_bytes());
}

/// A checksummed image whose layer stack does not chain — a class count
/// the last layer does not produce, or a pool whose input is not the
/// previous layer's output — is refused as a typed error at load, never
/// served into a logit-count panic.
#[test]
fn inconsistent_layer_stack_is_rejected_at_load() {
    let image = to_image(&tiny_qnet(3));
    // The re-stamped checksum holds, so `open` accepts every variant;
    // only the layer walk in `from_image` can refuse one.
    let load = |bytes: &[u8]| {
        let view = ImageView::open(Arc::new(AlignedBytes::from_slice(bytes))).unwrap();
        QuantizedNet::from_image(&view)
    };
    assert!(load(image.as_slice()).is_ok());

    let mut classes = image.as_slice().to_vec();
    classes[16..20].copy_from_slice(&9u32.to_le_bytes());
    restamp(&mut classes);
    assert!(matches!(load(&classes), Err(CoreError::BadImage(_))));

    // Layer table at the offset in header bytes 32..36, 96 B per entry;
    // a pool entry (kind 2) keeps its channel count at +12.
    let mut pool = image.as_slice().to_vec();
    let ltab = u32::from_le_bytes(pool[32..36].try_into().unwrap()) as usize;
    let n_layers = u32::from_le_bytes(pool[12..16].try_into().unwrap()) as usize;
    let entry = (0..n_layers)
        .map(|i| ltab + 96 * i)
        .find(|&e| pool[e..e + 4] == 2u32.to_le_bytes())
        .expect("the test net has a pool layer");
    let channels = u32::from_le_bytes(pool[entry + 12..entry + 16].try_into().unwrap());
    pool[entry + 12..entry + 16].copy_from_slice(&(channels + 1).to_le_bytes());
    restamp(&mut pool);
    assert!(matches!(load(&pool), Err(CoreError::BadImage(_))));
}

/// A checksummed image whose pool has no defined output — window 0,
/// stride 0, or a stride past the window whose last window starts beyond
/// the input's edge — is refused at load, not served into a pool error on
/// every request. The net is conv → 1×1 stride-1 max pool → linear, so
/// the pool passes its input through and only the pool's own geometry
/// can refuse the edit.
#[test]
fn degenerate_pool_is_rejected_at_load() {
    let mut rng = TensorRng::seed_from(11);
    let mut net = Network::new("degenerate-pool");
    let conv = ConvGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
    net.push(Layer::Conv(Conv2d::new("conv", conv, &mut rng)));
    let pool = PoolGeometry::new(3, 4, 4, 1, 1).unwrap();
    net.push(Layer::Pool(Pool::new("pool", PoolKind::Max, pool)));
    net.push(Layer::Flatten(Flatten::new()));
    net.push(Layer::Linear(Linear::new("fc", 3 * 4 * 4, 5, &mut rng)));
    let x = rng.gaussian([2, 2, 4, 4], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1])], 8).unwrap();
    let image = to_image(&QuantizedNet::from_network(&net, &plan).unwrap());
    let load = |bytes: &[u8]| {
        let view = ImageView::open(Arc::new(AlignedBytes::from_slice(bytes))).unwrap();
        QuantizedNet::from_image(&view)
    };
    assert!(load(image.as_slice()).is_ok());

    // Layer 1's entry; a pool keeps its window at +24, its stride at +28.
    let ltab = u32::from_le_bytes(image.as_slice()[32..36].try_into().unwrap()) as usize;
    let entry = ltab + 96;
    assert_eq!(image.as_slice()[entry..entry + 4], 2u32.to_le_bytes(), "layer 1 is the pool");
    // Stride 5 past a window of 1 over a 4×4 input: the second window
    // would start at row 5.
    for (window, stride) in [(0u32, 1u32), (1, 0), (1, 5)] {
        let mut bytes = image.as_slice().to_vec();
        bytes[entry + 24..entry + 28].copy_from_slice(&window.to_le_bytes());
        bytes[entry + 28..entry + 32].copy_from_slice(&stride.to_le_bytes());
        restamp(&mut bytes);
        match load(&bytes) {
            Err(CoreError::BadImage(msg)) => assert!(msg.contains("pool"), "{msg}"),
            other => panic!("window {window}, stride {stride}: {other:?}"),
        }
    }
}

/// A checksummed image whose conv or pool extents multiply past `usize`
/// is refused at load as a typed error, not an overflow panic (or, in a
/// release build, a silently wrapped buffer size).
#[test]
fn overflowing_extents_are_rejected_at_load() {
    let image = to_image(&tiny_qnet(7));
    let load = |bytes: &[u8]| {
        let view = ImageView::open(Arc::new(AlignedBytes::from_slice(bytes)))?;
        QuantizedNet::from_image(&view)
    };
    let ltab = u32::from_le_bytes(image.as_slice()[32..36].try_into().unwrap()) as usize;
    let n_layers = u32::from_le_bytes(image.as_slice()[12..16].try_into().unwrap()) as usize;
    let pool = (0..n_layers)
        .map(|i| ltab + 96 * i)
        .find(|&e| image.as_slice()[e..e + 4] == 2u32.to_le_bytes())
        .expect("the test net has a pool layer");
    assert_eq!(image.as_slice()[ltab..ltab + 4], 0u32.to_le_bytes(), "layer 0 is a conv");
    // A conv keeps in_h, in_w at +12, +16; a pool at +16, +20.
    for (name, field) in [("conv", ltab + 12), ("pool", pool + 16)] {
        let mut bytes = image.as_slice().to_vec();
        for side in [field, field + 4] {
            bytes[side..side + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
        }
        restamp(&mut bytes);
        match load(&bytes) {
            Err(CoreError::BadImage(msg)) => assert!(msg.contains("overflow"), "{name}: {msg}"),
            other => panic!("{name} with 2^31 x 2^31 extents: {other:?}"),
        }
    }
}

/// The integer engine is 8-bit end to end: a checksummed image whose
/// header declares a wider input or output format is refused at load.
/// (A 16-bit input code of 160 would otherwise wrap through `as i8` to
/// −96 and serve wrong logits.)
#[test]
fn non_8_bit_formats_are_rejected_at_load() {
    let image = to_image(&tiny_qnet(5));
    let load = |bytes: &[u8]| {
        let view = ImageView::open(Arc::new(AlignedBytes::from_slice(bytes))).unwrap();
        QuantizedNet::from_image(&view)
    };
    // Header bytes 20/22 hold the input/output formats' bit widths.
    for (offset, bits) in [(20usize, 16u8), (22, 16), (20, 7), (22, 32)] {
        let mut wide = image.as_slice().to_vec();
        wide[offset] = bits;
        restamp(&mut wide);
        assert!(
            matches!(load(&wide), Err(CoreError::BadImage(_))),
            "byte {offset} = {bits} bits must be refused"
        );
    }
}

/// `from_network` and `from_image(to_image(..))` end in the same
/// constructor and lowering: bit-identical logits over a fused batch.
#[test]
fn from_network_and_image_round_trip_serve_identical_logits() {
    for seed in [7u64, 8, 9] {
        let owned = tiny_qnet(seed);
        let view = ImageView::open(Arc::new(to_image(&owned))).unwrap();
        let loaded = QuantizedNet::from_image(&view).unwrap();
        let batch = TensorRng::seed_from(seed).gaussian([8, 3, 16, 16], 0.0, 0.9);
        let bits = |net: &QuantizedNet| -> Vec<u32> {
            net.logits_batch(&batch).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&loaded), bits(&owned), "seed {seed}");
    }
}
