//! Phase 3: ensembles of MF-DFP networks.
//!
//! "Suppose the ensemble consists of M networks producing output logit
//! vectors z_i … the output class can simply be the maximum element in
//! (1/M)·Σ z_i." Each member runs on its own processing unit in parallel,
//! so ensemble latency equals single-network latency while energy scales
//! with the member count — the trade the paper's Table 2 ensemble rows
//! quantify.

use mfdfp_nn::Accuracy;
use mfdfp_tensor::{Shape, Tensor, Workspace, WorkspacePlan};

use crate::error::{CoreError, Result};
use crate::qnet::QuantizedNet;

/// An ensemble of independently fine-tuned quantized networks.
#[derive(Debug, Clone)]
pub struct Ensemble {
    members: Vec<QuantizedNet>,
}

impl Ensemble {
    /// Builds an ensemble from its members.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the ensemble is empty or the
    /// members disagree on class count or input length.
    pub fn new(members: Vec<QuantizedNet>) -> Result<Self> {
        let Some(first) = members.first() else {
            return Err(CoreError::BadConfig("ensemble needs at least one member".into()));
        };
        let (classes, input_len) = (first.classes(), first.input_len());
        if members.iter().any(|m| m.classes() != classes) {
            return Err(CoreError::BadConfig("ensemble members disagree on class count".into()));
        }
        if members.iter().any(|m| m.input_len() != input_len) {
            return Err(CoreError::BadConfig("ensemble members disagree on input length".into()));
        }
        Ok(Ensemble { members })
    }

    /// Number of member networks (the paper deploys M = 2).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member networks.
    pub fn members(&self) -> &[QuantizedNet] {
        &self.members
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.members[0].classes()
    }

    /// Peak workspace sizes across every member (element-wise max), plus
    /// an `f32` lane for single-image member-logit staging — grow-only
    /// buffers absorb larger batches on first use. One workspace sized
    /// from this plan serves any member and the averaging loop.
    pub fn plan(&self) -> WorkspacePlan {
        let merged = self
            .members
            .iter()
            .map(QuantizedNet::plan)
            .fold(WorkspacePlan::default(), |a, b| a.merge(b));
        merged.merge(WorkspacePlan { f32_len: self.classes(), ..Default::default() })
    }

    /// [`Ensemble::plan`] extended with the fused-batch dimension: member
    /// plans take their batched shape ([`QuantizedNet::plan_for_batch`])
    /// and the `f32` member-logit staging lane is sized for
    /// `max_batch × classes` up front, so a workspace built from this
    /// plan runs batched ensemble inference allocation-free for any batch
    /// up to `max_batch`.
    pub fn plan_for_batch(&self, max_batch: usize) -> WorkspacePlan {
        let merged = self
            .members
            .iter()
            .map(|m| m.plan_for_batch(max_batch))
            .fold(WorkspacePlan::default(), |a, b| a.merge(b));
        merged.merge(WorkspacePlan {
            f32_len: self.classes() * max_batch.max(1),
            ..Default::default()
        })
    }

    /// Averaged dequantized logits for a `N×C×H×W` batch.
    ///
    /// # Errors
    ///
    /// Propagates member inference errors.
    pub fn logits_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let n = batch.shape().dim(0);
        let mut out = Tensor::zeros(Shape::d2(n, self.classes()));
        let mut ws = self.plan_for_batch(n).workspace();
        self.logits_batch_into(batch.as_slice(), n, &mut ws, out.as_mut_slice(), self.len())?;
        Ok(out)
    }

    /// The allocation-free averaged-logits entry (the ensemble
    /// counterpart of [`QuantizedNet::logits_batch_into`]): `data` is `n`
    /// images flat, `out` receives the `n × classes` averaged logits of
    /// the first `members` member networks. Member logits stage in the
    /// workspace's `f32` lane; the averaging accumulates member-by-member
    /// in the same order as [`Ensemble::logits_batch`] — which is
    /// implemented on top of this with `members == len()` — so the two
    /// agree bit-for-bit.
    ///
    /// `members` is the serve tier's accuracy-for-cost dial (the paper's
    /// Table 3 trade made adaptive): it is clamped to `1..=len()`, the
    /// member *prefix* runs in declaration order, and the sum is scaled
    /// by `1/members` — exactly the arithmetic a standalone
    /// `members`-sized ensemble performs, so a truncated answer is
    /// bit-identical to that smaller ensemble's.
    ///
    /// # Errors
    ///
    /// Propagates member inference errors and the shape checks of
    /// [`QuantizedNet::logits_batch_into`].
    pub fn logits_batch_into(
        &self,
        data: &[f32],
        n: usize,
        ws: &mut Workspace,
        out: &mut [f32],
        members: usize,
    ) -> Result<()> {
        let k = members.clamp(1, self.members.len());
        let mut tmp = ws.take_f32();
        let result = (|| {
            tmp.resize(out.len(), 0.0);
            out.fill(0.0);
            for member in &self.members[..k] {
                member.logits_batch_into(data, n, ws, &mut tmp)?;
                for (o, &t) in out.iter_mut().zip(tmp.iter()) {
                    *o += t;
                }
            }
            let inv = 1.0 / k as f32;
            for o in out.iter_mut() {
                *o *= inv;
            }
            Ok(())
        })();
        ws.restore_f32(tmp);
        result
    }

    /// Evaluates the ensemble over batches, tracking top-1/top-`k`.
    ///
    /// # Errors
    ///
    /// Propagates member inference errors.
    pub fn evaluate<I>(&self, batches: I, k: usize) -> Result<Accuracy>
    where
        I: IntoIterator<Item = (Tensor, Vec<usize>)>,
    {
        let mut acc = Accuracy::new(k);
        for (x, labels) in batches {
            let logits = self.logits_batch(&x)?;
            acc.update(&logits, &labels).map_err(CoreError::Nn)?;
        }
        Ok(acc)
    }

    /// Total parameter memory of the ensemble in bytes (Table 3's
    /// "Ensemble MF-DFP" rows: essentially `M ×` a single member).
    pub fn memory_bytes(&self) -> u64 {
        self.members.iter().map(QuantizedNet::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qnet::QuantizedNet;
    use crate::quantize::calibrate;
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    fn member(seed: u64) -> QuantizedNet {
        let mut rng = TensorRng::seed_from(seed);
        let mut net = zoo::quick_custom(2, 16, [4, 4, 4], 8, 4, &mut rng).unwrap();
        let x = rng.gaussian([4, 2, 16, 16], 0.0, 0.7);
        let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
        QuantizedNet::from_network(&net, &plan).unwrap()
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(Ensemble::new(vec![]).is_err());
        let mut rng = TensorRng::seed_from(1);
        let mut other = zoo::quick_custom(2, 16, [4, 4, 4], 8, 6, &mut rng).unwrap();
        let x = rng.gaussian([2, 2, 16, 16], 0.0, 0.7);
        let plan = calibrate(&mut other, &[(x, vec![0, 1])], 8).unwrap();
        let other_q = QuantizedNet::from_network(&other, &plan).unwrap();
        assert!(Ensemble::new(vec![member(1), other_q]).is_err());
    }

    #[test]
    fn rejects_members_with_different_input_lengths() {
        // 3×16×16 = 768 input values against `member`'s 2×16×16 = 512,
        // both with 4 classes: the batch could never fit both.
        let mut rng = TensorRng::seed_from(2);
        let mut wide = zoo::quick_custom(3, 16, [4, 4, 4], 8, 4, &mut rng).unwrap();
        let x = rng.gaussian([2, 3, 16, 16], 0.0, 0.7);
        let plan = calibrate(&mut wide, &[(x, vec![0, 1])], 8).unwrap();
        let wide_q = QuantizedNet::from_network(&wide, &plan).unwrap();
        assert_eq!((wide_q.classes(), wide_q.input_len()), (4, 768));
        assert!(matches!(
            Ensemble::new(vec![member(1), wide_q]),
            Err(CoreError::BadConfig(msg)) if msg.contains("input length")
        ));
    }

    #[test]
    fn averaged_logits_are_member_mean() {
        let e = Ensemble::new(vec![member(1), member(2)]).unwrap();
        let mut rng = TensorRng::seed_from(9);
        let x = rng.gaussian([3, 2, 16, 16], 0.0, 0.7);
        let avg = e.logits_batch(&x).unwrap();
        let l1 = e.members()[0].logits_batch(&x).unwrap();
        let l2 = e.members()[1].logits_batch(&x).unwrap();
        for i in 0..avg.len() {
            let expect = (l1.as_slice()[i] + l2.as_slice()[i]) / 2.0;
            assert!((avg.as_slice()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn logits_batch_into_matches_logits_batch() {
        let e = Ensemble::new(vec![member(1), member(2)]).unwrap();
        let mut rng = TensorRng::seed_from(11);
        let x = rng.gaussian([3, 2, 16, 16], 0.0, 0.7);
        let expect = e.logits_batch(&x).unwrap();
        let plan = e.plan();
        assert!(plan.f32_len >= e.classes());
        let mut ws = plan.workspace();
        let mut out = vec![0.0f32; 3 * e.classes()];
        e.logits_batch_into(x.as_slice(), 3, &mut ws, &mut out, e.len()).unwrap();
        assert_eq!(out, expect.as_slice());
    }

    #[test]
    fn truncated_prefix_is_bit_identical_to_smaller_ensemble() {
        let nets = vec![member(1), member(2), member(3)];
        let full = Ensemble::new(nets.clone()).unwrap();
        let mut rng = TensorRng::seed_from(13);
        let x = rng.gaussian([2, 2, 16, 16], 0.0, 0.7);
        let mut ws = full.plan_for_batch(2).workspace();
        for k in 1..=nets.len() {
            let oracle = Ensemble::new(nets[..k].to_vec()).unwrap().logits_batch(&x).unwrap();
            let mut out = vec![0.0f32; 2 * full.classes()];
            full.logits_batch_into(x.as_slice(), 2, &mut ws, &mut out, k).unwrap();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "k={k}: truncated prefix must match the k-member ensemble");
        }
        // Out-of-range member counts clamp rather than panic or error.
        let mut out = vec![0.0f32; 2 * full.classes()];
        full.logits_batch_into(x.as_slice(), 2, &mut ws, &mut out, 0).unwrap();
        full.logits_batch_into(x.as_slice(), 2, &mut ws, &mut out, 99).unwrap();
        let all = full.logits_batch(&x).unwrap();
        assert_eq!(out, all.as_slice(), "members > len must clamp to the full ensemble");
    }

    #[test]
    fn memory_scales_with_members() {
        let single = member(1).memory_bytes();
        let e = Ensemble::new(vec![member(1), member(2)]).unwrap();
        assert_eq!(e.memory_bytes(), 2 * single);
        assert_eq!(e.len(), 2);
        assert_eq!(e.classes(), 4);
    }

    #[test]
    fn evaluate_runs() {
        let e = Ensemble::new(vec![member(1), member(2)]).unwrap();
        let mut rng = TensorRng::seed_from(9);
        let x = rng.gaussian([4, 2, 16, 16], 0.0, 0.7);
        let acc = e.evaluate(vec![(x, vec![0, 1, 2, 3])], 2).unwrap();
        assert_eq!(acc.total(), 4);
    }
}
