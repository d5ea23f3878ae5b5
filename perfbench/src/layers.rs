//! The layer replay: the fused forward pass walked from outside, one
//! public batch entry per layer on the real intermediate activations.
//!
//! `QuantizedNet::logits_batch_into` is opaque to a caller; this module
//! reproduces its layer loop through `QuantizedNet::layers()` and each
//! layer's public `run_batch_into` / pooling / ReLU entry, so that every
//! layer can be timed (and traced) separately. The replayed logits are
//! compared bit for bit with `logits_batch_into`, so the replay cannot
//! silently measure a different computation.

use std::time::Instant;

use mfdfp_accel::qlayers::{
    avg_pool_codes_batch_into, max_pool_codes_batch_into, pool_out_dims, relu_codes,
    PRODUCT_FRAC_SHIFT,
};
use mfdfp_core::{QLayer, QuantizedNet, Workspace};
use mfdfp_tensor::{im2col_batched_i8, qgemm_fused_into_i8, AlignedVec, PoolKind};

use crate::trace::{SpanId, ThreadTrace};

/// Catalogue name of every layer of `net`: weighted layers are `conv<i>`
/// / `ip<i>` in network order, the rest `pool` / `relu`.
pub fn layer_names(net: &QuantizedNet) -> Vec<String> {
    let (mut convs, mut ips) = (0, 0);
    net.layers()
        .iter()
        .map(|layer| match layer {
            QLayer::Conv(_) => {
                convs += 1;
                format!("conv{convs}")
            }
            QLayer::Linear(_) => {
                ips += 1;
                format!("ip{ips}")
            }
            QLayer::Pool { .. } => "pool".to_string(),
            QLayer::Relu => "relu".to_string(),
        })
        .collect()
}

fn span_name(layer: &QLayer) -> &'static str {
    match layer {
        QLayer::Conv(_) => "accel.conv.run_batch_into",
        QLayer::Linear(_) => "accel.linear.run_batch_into",
        QLayer::Pool { .. } => "accel.pool_codes_batch_into",
        QLayer::Relu => "accel.relu_codes",
    }
}

/// Runs one layer on the interleaved batch in `cur`, exactly as the
/// fused forward does: weighted and pooling layers write `nxt` and swap,
/// ReLU works in place.
fn run_layer(
    layer: &QLayer,
    n: usize,
    ws: &mut Workspace,
    cur: &mut AlignedVec<i8>,
    nxt: &mut AlignedVec<i8>,
) {
    match layer {
        QLayer::Conv(c) => {
            nxt.resize(c.out_len() * n, 0);
            c.run_batch_into(cur, n, ws, nxt).expect("conv layer accepts its own activations");
            std::mem::swap(cur, nxt);
        }
        QLayer::Linear(l) => {
            nxt.resize(l.out_features * n, 0);
            l.run_batch_into(cur, n, nxt).expect("linear layer accepts its own activations");
            std::mem::swap(cur, nxt);
        }
        QLayer::Pool { kind, channels, in_h, in_w, window, stride } => {
            let (oh, ow) = pool_out_dims(*in_h, *in_w, *window, *stride).expect("valid pool");
            nxt.resize(channels * oh * ow * n, 0);
            match kind {
                PoolKind::Max => max_pool_codes_batch_into(
                    cur, *channels, *in_h, *in_w, *window, *stride, n, nxt,
                ),
                PoolKind::Avg => avg_pool_codes_batch_into(
                    cur, *channels, *in_h, *in_w, *window, *stride, n, nxt,
                ),
            }
            .expect("pool layer accepts its own activations");
            std::mem::swap(cur, nxt);
        }
        QLayer::Relu => relu_codes(cur),
    }
}

/// What one replayed forward pass observed.
pub struct Replay {
    /// Wall time of each layer, ns, in network order.
    pub layer_ns: Vec<u64>,
    /// The input of each layer (interleaved codes), when captured.
    pub inputs: Vec<Vec<i8>>,
}

/// Replays the fused forward of `net` on `n` images (`data` flat,
/// `out` = `n × classes` logits), layer by layer. With `trace`, records a
/// `core.forward` parent span and one child span per layer under request
/// id `request`; with `capture`, keeps a copy of every layer's input.
pub fn replay_forward(
    net: &QuantizedNet,
    data: &[f32],
    n: usize,
    ws: &mut Workspace,
    out: &mut [f32],
    mut trace: Option<(&mut ThreadTrace<'_>, u64)>,
    capture: bool,
) -> Replay {
    let per_image = data.len() / n;
    let parent: Option<SpanId> = trace.as_ref().map(|(tt, _)| tt.reserve());
    let t_start = Instant::now();
    let (mut cur, mut nxt) = ws.take_act();
    cur.resize(per_image * n, 0);
    let in_fmt = net.input_format();
    for (b, image) in data.chunks_exact(per_image).enumerate() {
        for (e, &x) in image.iter().enumerate() {
            cur[e * n + b] = in_fmt.quantize(x) as i8;
        }
    }
    let mut layer_ns = Vec::with_capacity(net.layers().len());
    let mut inputs = Vec::new();
    for layer in net.layers() {
        if capture {
            inputs.push(cur.to_vec());
        }
        let t0 = Instant::now();
        run_layer(layer, n, ws, &mut cur, &mut nxt);
        let t1 = Instant::now();
        layer_ns.push((t1 - t0).as_nanos() as u64);
        if let Some((tt, request)) = trace.as_mut() {
            tt.span(span_name(layer), parent, *request, t0, t1);
        }
    }
    let classes = net.classes();
    assert_eq!(cur.len(), classes * n, "replay produced the wrong logit count");
    let out_fmt = net.output_format();
    for (b, row) in out.chunks_exact_mut(classes).enumerate() {
        for (c, o) in row.iter_mut().enumerate() {
            *o = out_fmt.dequantize(i32::from(cur[c * n + b]));
        }
    }
    ws.restore_act(cur, nxt);
    let t_end = Instant::now();
    if let (Some((tt, request)), Some(id)) = (trace.as_mut(), parent) {
        tt.record(id, "core.forward", None, *request, t_start, t_end);
    }
    Replay { layer_ns, inputs }
}

/// Geometry of a weighted layer's fused GEMM, per image.
pub struct GemmShape {
    /// Output rows (output channels / features).
    pub rows: usize,
    /// Synapses per output (`k`).
    pub k: usize,
    /// Output columns per image (output pixels; 1 for linear).
    pub ncols: usize,
}

impl GemmShape {
    /// The shape of a weighted layer, `None` for pooling / ReLU.
    pub fn of(layer: &QLayer) -> Option<GemmShape> {
        match layer {
            QLayer::Conv(c) => {
                assert_eq!(c.geom.groups, 1, "the benchmark models have ungrouped convolutions");
                Some(GemmShape {
                    rows: c.geom.out_c,
                    k: c.geom.col_height(),
                    ncols: c.geom.out_h() * c.geom.out_w(),
                })
            }
            QLayer::Linear(l) => {
                Some(GemmShape { rows: l.out_features, k: l.in_features, ncols: 1 })
            }
            _ => None,
        }
    }

    /// Shift-MACs per image — computed from geometry.
    pub fn macs(&self) -> u64 {
        (self.rows * self.k * self.ncols) as u64
    }

    /// Bytes the kernel must touch per image at B=1 — computed from
    /// geometry: weight nibbles + `i8` activation columns + `i8` outputs.
    pub fn bytes(&self) -> u64 {
        (self.rows * self.k).div_ceil(2) as u64
            + (self.k * self.ncols) as u64
            + (self.rows * self.ncols) as u64
    }
}

/// The two kernels behind a weighted layer, callable directly on the
/// layer's real input: `im2col_batched_i8` (convolutions only) and
/// `qgemm_fused_into_i8` on the resulting column matrix.
pub struct KernelProbe<'a> {
    layer: &'a QLayer,
    input: &'a [i8],
    n: usize,
    out: Vec<i8>,
}

impl<'a> KernelProbe<'a> {
    /// A probe for weighted `layer` on its captured `input` at batch `n`.
    pub fn new(layer: &'a QLayer, input: &'a [i8], n: usize) -> KernelProbe<'a> {
        let shape = GemmShape::of(layer).expect("kernel probes are for weighted layers");
        KernelProbe { layer, input, n, out: vec![0; shape.rows * shape.ncols * n] }
    }

    /// One `im2col_batched_i8` call into the workspace staging lane.
    /// No-op for linear layers (their input *is* the column matrix).
    pub fn im2col(&mut self, ws: &mut Workspace) {
        if let QLayer::Conv(c) = self.layer {
            let xt = ws.im2col_i8(c.im2col_len() * self.n);
            im2col_batched_i8(self.input, &c.geom, 0, self.n, xt).expect("real layer input");
        }
    }

    /// One `qgemm_fused_into_i8` call on the staged column matrix (call
    /// [`KernelProbe::im2col`] first for convolutions).
    pub fn qgemm(&mut self, ws: &mut Workspace) {
        match self.layer {
            QLayer::Conv(c) => {
                let npix = c.geom.out_h() * c.geom.out_w();
                let xt = ws.im2col_i8(c.im2col_len() * self.n);
                qgemm_fused_into_i8(
                    &c.weights,
                    0,
                    c.geom.out_c,
                    xt,
                    npix,
                    self.n,
                    &c.bias,
                    i32::from(c.in_frac) + PRODUCT_FRAC_SHIFT,
                    i32::from(c.out_frac),
                    &mut self.out,
                )
            }
            QLayer::Linear(l) => qgemm_fused_into_i8(
                &l.weights,
                0,
                l.out_features,
                self.input,
                1,
                self.n,
                &l.bias,
                i32::from(l.in_frac) + PRODUCT_FRAC_SHIFT,
                i32::from(l.out_frac),
                &mut self.out,
            ),
            _ => unreachable!("constructed for weighted layers only"),
        }
        .expect("real layer input");
    }
}
