//! End-to-end zoo serving: build several calibrated networks, pack them
//! into one v2 zoo image, round-trip it through a file (as deployment
//! would), map it back with [`ModelRegistry::load_zoo_bytes`], and check
//! the served logits are **byte-identical** to the direct owned-weight
//! networks — proving the zero-copy image path changes nothing numerically.

use std::sync::Arc;

use mfdfp_core::{calibrate, QuantizedNet, ZooBuilder, ZooView};
use mfdfp_nn::zoo;
use mfdfp_serve::{ModelRegistry, ServeConfig, Server};
use mfdfp_tensor::{Tensor, TensorRng};

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes).
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn zoo_file_round_trip_serves_byte_identical_logits() {
    let nets: Vec<(String, QuantizedNet)> =
        (0..3u64).map(|i| (format!("model-{i}"), tiny_qnet(100 + i))).collect();

    // Serialise the zoo and round-trip it through a real file.
    let mut builder = ZooBuilder::new();
    for (name, net) in &nets {
        builder.push(name, net);
    }
    let image = builder.finish();
    let dir = std::env::temp_dir().join(format!("mfdfp-zoo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zoo.mfdfp");
    std::fs::write(&path, image.as_slice()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(bytes, image.as_slice(), "zoo image must survive the file system untouched");

    // Map it into a registry and serve each model.
    let registry = Arc::new(ModelRegistry::new());
    let names = registry.load_zoo_bytes(&bytes).unwrap();
    assert_eq!(names, vec!["model-0", "model-1", "model-2"]);
    assert_eq!(registry.len(), 3);

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig { workers: 2, queue_capacity: 32, ..Default::default() },
    )
    .unwrap();

    let mut rng = TensorRng::seed_from(7);
    for (name, net) in &nets {
        for _ in 0..4 {
            let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
            let response = server.submit(name, img.clone()).unwrap().wait().unwrap();
            let direct = net.logits(&img).unwrap();
            assert_eq!(
                bits(&response.logits),
                bits(&direct),
                "zoo-served logits differ from owned-weight network {name}"
            );
            assert_eq!(response.class, direct.argmax());
        }
    }
    server.shutdown();
}

#[test]
fn zoo_view_lists_and_finds_models() {
    let mut builder = ZooBuilder::new();
    builder.push("a", &tiny_qnet(1)).push("b", &tiny_qnet(2));
    let zoo = ZooView::open(Arc::new(builder.finish())).unwrap();
    assert_eq!(zoo.len(), 2);
    assert_eq!(zoo.names(), vec!["a", "b"]);
    assert!(zoo.find("b").is_ok());
    assert!(zoo.find("c").is_err());
    let net = QuantizedNet::from_image(&zoo.model(0).unwrap()).unwrap();
    assert_eq!(net.classes(), 10);
}

#[test]
fn corrupt_zoo_registers_nothing() {
    let mut builder = ZooBuilder::new();
    builder.push("only", &tiny_qnet(5));
    let image = builder.finish();
    let mut bytes = image.as_slice().to_vec();
    let last = bytes.len() - 1;
    bytes.truncate(last); // header length no longer matches
    let registry = ModelRegistry::new();
    assert!(registry.load_zoo_bytes(&bytes).is_err());
    assert!(registry.is_empty());
}

#[test]
fn zoo_with_a_repeated_name_registers_nothing() {
    let mut builder = ZooBuilder::new();
    builder.push("m", &tiny_qnet(5)).push("m", &tiny_qnet(6));
    let image = Arc::new(builder.finish());
    let registry = ModelRegistry::new();
    assert!(registry.load_zoo(image).is_err());
    assert!(registry.is_empty());
}
