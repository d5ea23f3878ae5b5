//! Named model storage shared between submitters and workers.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use mfdfp_core::{AlignedBytes, Ensemble, QuantizedNet, ZooView};

use crate::error::{Result, ServeError};

/// A deployable inference target: a logit-averaged ensemble of MF-DFP
/// networks (the paper's Phase 3 deployment). A single network is the
/// ensemble of one (`Arc<Ensemble>: From<QuantizedNet>`), served
/// bit-identically to a direct [`QuantizedNet`] call.
///
/// Cloning is cheap; workers hold the clone resolved at admission, so
/// re-registering a name mid-flight never changes in-flight requests,
/// and the batcher groups requests by allocation ([`Arc::ptr_eq`]).
pub type ServedModel = Arc<Ensemble>;

/// One registry slot: the served model plus a monotonically increasing
/// version, bumped on every replacement (register-over or
/// [`ModelRegistry::swap`]).
#[derive(Debug, Clone)]
struct Entry {
    model: ServedModel,
    version: u64,
}

/// A concurrent, versioned name → model map.
///
/// Reads (every request admission) take a shared lock; writes
/// (register/swap/remove, rare) take it exclusively. Replacing a model is
/// an `Arc` flip: in-flight requests hold the `Arc` they resolved at
/// admission and drain on the old weights, new admissions see the new
/// ones — there is no moment where a request can observe half of each
/// (the batcher additionally groups by `Arc` identity, so one batch never
/// mixes two versions).
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Entry>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a model under `name`. Accepts a
    /// [`QuantizedNet`], an [`Ensemble`] or an existing [`ServedModel`].
    /// Returns the previous occupant, if any. A fresh name starts at
    /// version 1; replacing bumps the version (like
    /// [`ModelRegistry::swap`], which additionally *requires* the name to
    /// exist).
    pub fn register(&self, name: &str, model: impl Into<ServedModel>) -> Option<ServedModel> {
        let model = model.into();
        let mut map = self.models.write().expect("registry poisoned");
        match map.get_mut(name) {
            Some(entry) => {
                entry.version += 1;
                Some(std::mem::replace(&mut entry.model, model))
            }
            None => {
                map.insert(name.to_string(), Entry { model, version: 1 });
                None
            }
        }
    }

    /// Zero-downtime hot swap: atomically replaces the model behind
    /// `name` and bumps its version, returning `(old_model, new_version)`.
    /// Admissions racing the swap get either the old or the new `Arc`,
    /// never a torn mix; in-flight batches drain on the old weights.
    ///
    /// Unlike [`ModelRegistry::register`], swapping an unregistered name
    /// is an error — a swap is an *update*, and a typo must not silently
    /// create a second model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not
    /// registered.
    pub fn swap(&self, name: &str, model: impl Into<ServedModel>) -> Result<(ServedModel, u64)> {
        let model = model.into();
        let mut map = self.models.write().expect("registry poisoned");
        match map.get_mut(name) {
            Some(entry) => {
                entry.version += 1;
                let old = std::mem::replace(&mut entry.model, model);
                Ok((old, entry.version))
            }
            None => Err(ServeError::UnknownModel(name.to_string())),
        }
    }

    /// Looks up a model by name.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when absent.
    pub fn get(&self, name: &str) -> Result<ServedModel> {
        self.get_versioned(name).map(|(model, _)| model)
    }

    /// Looks up a model by name together with its current version.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when absent.
    pub fn get_versioned(&self, name: &str) -> Result<(ServedModel, u64)> {
        let map = self.models.read().expect("registry poisoned");
        let entry =
            map.get(name).cloned().ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        // Fault injection (compiled into every build, a no-op until a test
        // arms it): widen the window in which a reader holds the shared
        // lock, so the mid-swap interleaving is reliably exercised.
        crate::fault::on_registry_read();
        drop(map);
        Ok((entry.model, entry.version))
    }

    /// The current version of `name` (1 for a fresh registration,
    /// bumped on every replacement).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when absent.
    pub fn version(&self, name: &str) -> Result<u64> {
        self.get_versioned(name).map(|(_, version)| version)
    }

    /// Maps a multi-model zoo image (see `mfdfp_core::image`) into the
    /// registry: every model in the zoo's directory is opened zero-copy —
    /// weight and bias payloads stay in the zoo buffer, `Arc`-shared by
    /// all registered models — and registered under its directory name.
    /// No nibble is unpacked and no payload byte is copied.
    ///
    /// Returns the registered names, in directory order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Inference`] wrapping
    /// [`CoreError::BadImage`](mfdfp_core::CoreError::BadImage) if the
    /// zoo or any model section is malformed; nothing is registered in
    /// that case (all-or-nothing).
    pub fn load_zoo(&self, image: Arc<AlignedBytes>) -> Result<Vec<String>> {
        let zoo = ZooView::open(image).map_err(ServeError::Inference)?;
        let mut loaded = Vec::with_capacity(zoo.len());
        for i in 0..zoo.len() {
            let view = zoo.model(i).map_err(ServeError::Inference)?;
            let net = QuantizedNet::from_image(&view).map_err(ServeError::Inference)?;
            loaded.push((zoo.name(i).to_string(), net));
        }
        let mut names = Vec::with_capacity(loaded.len());
        for (name, net) in loaded {
            self.register(&name, net);
            names.push(name);
        }
        Ok(names)
    }

    /// Convenience for [`ModelRegistry::load_zoo`] over raw bytes (e.g.
    /// read from disk): copies them **once** into a fresh 64-byte-aligned
    /// buffer, then serves all models zero-copy out of that single copy.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::load_zoo`].
    pub fn load_zoo_bytes(&self, bytes: &[u8]) -> Result<Vec<String>> {
        self.load_zoo(Arc::new(AlignedBytes::from_slice(bytes)))
    }

    /// Removes a model; in-flight requests that already resolved it keep
    /// their `Arc` and finish normally. Returns whether the name existed.
    pub fn remove(&self, name: &str) -> bool {
        self.models.write().expect("registry poisoned").remove(name).is_some()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.models.read().expect("registry poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry poisoned").len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_model_errors() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(matches!(reg.get("nope"), Err(ServeError::UnknownModel(n)) if n == "nope"));
        assert!(matches!(reg.version("nope"), Err(ServeError::UnknownModel(_))));
    }

    // Registration/lookup/versioning against real QuantizedNets is
    // exercised in tests/serving.rs (version lineage) and tests/chaos.rs
    // (Arc-flip hot swap under concurrent traffic), which build tiny
    // calibrated networks.
}
