//! Reusable scratch workspaces for the quantized inference hot path.
//!
//! The paper's Figure 2(a) datapath has **no dynamic memory**: activations
//! are 8-bit codes flowing through buffers whose sizes are fixed by the
//! layer geometry at synthesis time. This module is the software rendition
//! of that property. A [`Workspace`] owns every scratch buffer a quantized
//! forward pass needs — the `i8` im2col staging area, the inter-layer
//! activation ping-pong pair, and an `f32` lane for logit averaging — as
//! **grow-only** 64-byte-aligned [`AlignedVec`]
//! lanes: the first pass through a model grows each buffer
//! to its peak size (or [`WorkspacePlan`] pre-sizes them in one shot), and
//! every subsequent pass reuses the same capacity, so a warmed workspace
//! makes the whole forward path allocation-free at steady state.
//!
//! Two ownership patterns cover every call site:
//!
//! * **Caller-owned** — construct a [`Workspace`] (ideally from a model's
//!   plan) and thread it through the `*_with`/`*_into` entry points.
//! * **Per-thread** — [`with_thread_workspace`] hands out a workspace that
//!   lives as long as its OS thread. Because the `mfdfp-rt` pool workers
//!   and the serving workers are *persistent* threads, this gives each of
//!   them a private workspace that warms once and is never contended —
//!   the software analogue of each hardware processing unit owning its
//!   activation buffers.
//!
//! The packed GEMM kernel ([`crate::ops::qgemm`]) needs none of this: its
//! buckets and accumulator lanes are fixed-size arrays on the stack of
//! whichever thread runs the band.

use std::cell::RefCell;

use crate::arena::AlignedVec;

/// Peak scratch-buffer sizes for one model, as computed from its layer
/// geometry (e.g. by `QuantizedNet::plan()` in `mfdfp-core`). Feeding a
/// plan to [`Workspace::with_plan`] sizes every buffer once, so even the
/// first forward pass allocates nothing.
///
/// Plans combine with [`WorkspacePlan::merge`] (element-wise max), so one
/// workspace can be pre-sized for every model a worker may serve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspacePlan {
    /// Peak activation-buffer length (elements): the largest layer input
    /// or output anywhere in the stack. Both ping-pong buffers get this.
    pub act_len: usize,
    /// Peak im2col staging length (elements): the largest
    /// `col_height × out_pixels` product over the convolution layers.
    pub im2col_len: usize,
    /// Peak `f32` scratch length (elements): logit staging for ensemble
    /// averaging (`batch × classes`).
    pub f32_len: usize,
    /// Largest fused batch the workspace must hold: the batched conv path
    /// interleaves `B` images per activation element, so the activation
    /// ping-pong pair and the im2col staging area each scale by `B`.
    /// `0` and `1` both mean "single image" (so `Default` and older
    /// single-image plans keep their meaning); see
    /// [`WorkspacePlan::batch`].
    pub max_batch: usize,
}

impl WorkspacePlan {
    /// Element-wise maximum of two plans: a workspace sized for the merge
    /// fits either model without growing.
    #[must_use]
    pub fn merge(self, other: WorkspacePlan) -> WorkspacePlan {
        WorkspacePlan {
            act_len: self.act_len.max(other.act_len),
            im2col_len: self.im2col_len.max(other.im2col_len),
            f32_len: self.f32_len.max(other.f32_len),
            max_batch: self.max_batch.max(other.max_batch),
        }
    }

    /// Effective fused batch size: `max_batch`, with the `0` default
    /// normalized to `1` so un-batched plans are unchanged.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.max_batch.max(1)
    }

    /// This plan resized for fused batches up to `max_batch` images —
    /// per-layer buffer peaks stay the same, capacity scales by the batch.
    #[must_use]
    pub fn for_batch(self, max_batch: usize) -> WorkspacePlan {
        WorkspacePlan { max_batch, ..self }
    }

    /// A workspace pre-sized to this plan — sugar for
    /// [`Workspace::with_plan`].
    #[must_use]
    pub fn workspace(&self) -> Workspace {
        Workspace::with_plan(self)
    }
}

/// A grow-only scratch arena for quantized inference.
///
/// All buffers start empty; entry points grow them on demand and never
/// shrink them, so capacity converges to the peak of whatever workload the
/// workspace serves and stays there. See the [module docs](self) for the
/// ownership patterns.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::{Workspace, WorkspacePlan};
///
/// let plan = WorkspacePlan { act_len: 1024, im2col_len: 4096, ..Default::default() };
/// let ws = plan.workspace();
/// assert!(ws.is_warm_for(&plan));
/// // The same geometry, fused over batches of up to 8 images.
/// assert!(plan.for_batch(8).workspace().is_warm_for(&plan.for_batch(8)));
/// // A default workspace grows lazily instead.
/// assert!(!Workspace::new().is_warm_for(&plan));
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Inter-layer activation ping-pong pair (taken/restored around a
    /// forward pass so the layers can borrow the workspace meanwhile).
    act: [AlignedVec<i8>; 2],
    /// im2col column staging: 8-bit activation codes in the `k × ncols`
    /// layout the packed kernel streams.
    im2col: AlignedVec<i8>,
    /// `f32` staging (ensemble member logits).
    f32buf: AlignedVec<f32>,
}

impl Workspace {
    /// An empty workspace; every buffer grows on first use.
    #[must_use]
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// A workspace with every buffer pre-grown to `plan`'s peaks.
    #[must_use]
    pub fn with_plan(plan: &WorkspacePlan) -> Workspace {
        let mut ws = Workspace::default();
        ws.reserve(plan);
        ws
    }

    /// Grows any buffer still below `plan`'s peaks (never shrinks). The
    /// activation and im2col lanes scale by [`WorkspacePlan::batch`]: a
    /// plan with `max_batch = 8` warms the workspace for fused batches of
    /// up to eight images (and, a fortiori, for every smaller batch).
    pub fn reserve(&mut self, plan: &WorkspacePlan) {
        let b = plan.batch();
        for act in &mut self.act {
            act.reserve(plan.act_len * b);
        }
        self.im2col.reserve(plan.im2col_len * b);
        self.f32buf.reserve(plan.f32_len);
    }

    /// Whether every buffer already has at least `plan`'s capacity — i.e.
    /// a pass over a model with this plan will not allocate.
    #[must_use]
    pub fn is_warm_for(&self, plan: &WorkspacePlan) -> bool {
        let b = plan.batch();
        self.act.iter().all(|a| a.capacity() >= plan.act_len * b)
            && self.im2col.capacity() >= plan.im2col_len * b
            && self.f32buf.capacity() >= plan.f32_len
    }

    /// The im2col staging buffer, resized to exactly `len` elements
    /// (stale contents are overwritten by the gather, not cleared here;
    /// [`AlignedVec::resize`](crate::arena::AlignedVec::resize) never
    /// sheds capacity, so a warmed buffer just gets a length bump).
    pub fn im2col_i8(&mut self, len: usize) -> &mut [i8] {
        self.im2col.resize(len, 0);
        &mut self.im2col[..len]
    }

    /// Moves the activation ping-pong pair out of the workspace so a
    /// forward pass can write activations while the layers borrow the
    /// workspace for other scratch. Pair with [`Workspace::restore_act`].
    pub fn take_act(&mut self) -> (AlignedVec<i8>, AlignedVec<i8>) {
        let [a, b] = std::mem::take(&mut self.act);
        (a, b)
    }

    /// Returns the activation pair after a forward pass. `front` must be
    /// the buffer holding the final codes: [`Workspace::codes`] reads it.
    pub fn restore_act(&mut self, front: AlignedVec<i8>, back: AlignedVec<i8>) {
        self.act = [front, back];
    }

    /// The first `len` codes of the front activation buffer — the network
    /// output after a `forward_codes_with` pass.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the front buffer's length.
    #[must_use]
    pub fn codes(&self, len: usize) -> &[i8] {
        &self.act[0][..len]
    }

    /// Moves the `f32` scratch buffer out (see [`Workspace::take_act`]
    /// for the pattern). Pair with [`Workspace::restore_f32`].
    pub fn take_f32(&mut self) -> AlignedVec<f32> {
        std::mem::take(&mut self.f32buf)
    }

    /// Returns the `f32` scratch buffer.
    pub fn restore_f32(&mut self, buf: AlignedVec<f32>) {
        self.f32buf = buf;
    }
}

thread_local! {
    /// One workspace per OS thread (see [`with_thread_workspace`]).
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with the calling thread's persistent [`Workspace`].
///
/// On a long-lived thread — an `mfdfp-rt` pool worker, a serving worker,
/// a caller's request loop — the workspace warms on first use and every
/// later call is allocation-free. The allocating convenience APIs
/// (`ShiftConv::run`, `QuantizedNet::forward_codes`, …) route through
/// this, so even they stop allocating scratch after their thread's first
/// call.
///
/// Re-entrancy: if the thread workspace is already borrowed higher up the
/// stack — a nested call, made from inside an `f` passed here — the
/// inner `f` receives a fresh temporary workspace instead. Correctness is
/// unaffected; the nested call pays its own scratch allocations. No pool
/// task in this workspace borrows it: the kernels' row bands keep their
/// scratch on the stack, and the serve tier's workers own theirs.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_merge_takes_elementwise_max() {
        let a = WorkspacePlan { act_len: 10, im2col_len: 5, f32_len: 0, max_batch: 2 };
        let b = WorkspacePlan { act_len: 3, im2col_len: 9, f32_len: 4, max_batch: 0 };
        assert_eq!(
            a.merge(b),
            WorkspacePlan { act_len: 10, im2col_len: 9, f32_len: 4, max_batch: 2 }
        );
    }

    #[test]
    fn with_plan_pre_sizes_every_buffer() {
        let plan = WorkspacePlan { act_len: 64, im2col_len: 128, f32_len: 32, max_batch: 0 };
        let ws = plan.workspace();
        assert!(ws.is_warm_for(&plan));
        assert!(ws.is_warm_for(&WorkspacePlan { act_len: 1, im2col_len: 1, f32_len: 1, ..plan }));
        assert!(!ws.is_warm_for(&WorkspacePlan { act_len: 65, ..plan }));
    }

    #[test]
    fn batched_plan_scales_act_and_im2col_lanes() {
        let single = WorkspacePlan { act_len: 16, im2col_len: 40, f32_len: 4, max_batch: 0 };
        assert_eq!(single.batch(), 1, "max_batch 0 normalizes to a single image");
        let batched = single.for_batch(8);
        assert_eq!(batched.batch(), 8);
        let ws = batched.workspace();
        // Warm for the full batch and every smaller one, but a single-image
        // workspace is not warm for the batched plan.
        assert!(ws.is_warm_for(&batched));
        assert!(ws.is_warm_for(&single.for_batch(3)));
        assert!(ws.is_warm_for(&single));
        assert!(!single.workspace().is_warm_for(&batched));
        // f32 staging is not batch-scaled (callers size it explicitly in
        // their plans), so the batched plan asks for the same 4 slots.
        assert!(single.workspace().f32buf.capacity() >= 4);
    }

    #[test]
    fn buffers_grow_and_stay_grown() {
        let mut ws = Workspace::new();
        assert_eq!(ws.im2col_i8(100).len(), 100);
        let cap_after_big = {
            ws.im2col_i8(10);
            ws.im2col.capacity()
        };
        assert!(cap_after_big >= 100, "shrinking request must not shed capacity");
    }

    #[test]
    fn act_round_trip_preserves_codes() {
        let mut ws = Workspace::new();
        let (mut a, b) = ws.take_act();
        a.extend_from_slice(&[1, 2, 3]);
        ws.restore_act(a, b);
        assert_eq!(ws.codes(3), &[1, 2, 3]);
        assert_eq!(ws.codes(2), &[1, 2]);
    }

    #[test]
    fn f32_round_trip() {
        let mut ws = Workspace::with_plan(&WorkspacePlan { f32_len: 8, ..Default::default() });
        let mut buf = ws.take_f32();
        assert!(buf.capacity() >= 8);
        buf.push(1.5);
        ws.restore_f32(buf);
        let again = ws.take_f32();
        assert_eq!(&again[..], &[1.5]);
        ws.restore_f32(again);
    }

    #[test]
    fn thread_workspace_persists_capacity_across_calls() {
        let first_cap = with_thread_workspace(|ws| {
            ws.im2col_i8(256);
            ws.im2col.capacity()
        });
        let second_cap = with_thread_workspace(|ws| ws.im2col.capacity());
        assert!(second_cap >= first_cap.min(256));
    }

    #[test]
    fn reentrant_thread_workspace_falls_back_to_fresh() {
        with_thread_workspace(|outer| {
            outer.im2col_i8(4).fill(9);
            // A nested borrow (the pool-helper scenario) must still work.
            with_thread_workspace(|inner| {
                assert_eq!(inner.im2col.len(), 0, "fallback workspace is fresh");
            });
            assert_eq!(outer.im2col_i8(4)[0], 9);
        });
    }
}
