//! Deployment image **v2**: a flat, versioned, alignment-guaranteed model
//! format that is read without unpacking — the software rendition of the
//! paper's Figure 2 deployment story, where a host DMAs a packed weight
//! image into the accelerator's buffer and the datapath consumes it *in
//! place*.
//!
//! # Layout
//!
//! All integers are little-endian; every section offset is a multiple of
//! 64 bytes, measured from the start of the model image. Because images
//! live in (or are copied once into) a 64-byte-[`AlignedBytes`] buffer,
//! an aligned offset is genuinely aligned in memory, so the reader can
//! hand out `&[u8]` weight rows and `&[i64]` bias slices with **zero
//! copies and zero decoding**.
//!
//! ```text
//! model image                          zoo image
//! ┌──────────────────────┐ 0          ┌──────────────────────┐ 0
//! │ header (64 B)        │            │ zoo header (64 B)    │
//! │  magic "MFDFPIMG"    │            │  magic "MFDFPZOO"    │
//! │  version=2, n_layers │            │  version=2, n_models │
//! │  classes, formats    │            │  crc32 + "CRC1"      │
//! │  name_off/len        │            ├──────────────────────┤ 64
//! │  ltab_off, image_len │            │ directory            │
//! │  crc32 + "CRC1"      │            │  n × 32 B entries    │
//! ├──────────────────────┤            │  name_off/len        │
//! │ model name (UTF-8)   │            │  model_off/len       │
//! ├──────────────────────┤ ltab_off   ├──────────────────────┤
//! │ layer table          │            │ name blob (UTF-8)    │
//! │  n × 96 B entries    │            ├──────────────────────┤ 64-aligned
//! │  kind, fracs, geom   │            │ model image 0        │
//! │  rows/cols/stride    │            ├──────────────────────┤ 64-aligned
//! │  w_off/len b_off/cnt │            │ model image 1        │
//! ├──────────────────────┤ 64-aligned │          …           │
//! │ layer 0 weights      │            └──────────────────────┘
//! │  rows × stride bytes │
//! │  (verbatim nibbles)  │
//! ├──────────────────────┤ 64-aligned
//! │ layer 0 bias (i64[]) │
//! │          …           │
//! └──────────────────────┘
//! ```
//!
//! Weight payloads are stored **verbatim** in the row-aligned kernel
//! layout of [`PackedPow2Matrix`] — `rows × row_stride` bytes with the
//! stride recorded in the layer entry — so serialisation is a `memcpy`
//! and deserialisation is a bounds check. No nibble is unpacked or
//! re-packed on either side.
//!
//! # Integrity
//!
//! Every model and zoo header carries a whole-section CRC-32
//! ([`mfdfp_dfp::crc32`]) plus the marker `"CRC1"`, verified by
//! [`ImageView::open`] / [`ZooView::open`] before any byte is trusted:
//! a torn write or a single flipped bit anywhere yields a typed
//! [`CoreError::BadImage`]. Verification is unconditional: an image
//! without the marker — zeroed, or any other value — is itself
//! corruption. [`write_image_atomic`] completes the story on
//! disk: tmp file + fsync + atomic rename, so readers only ever observe
//! a complete image.
//!
//! # Ownership
//!
//! [`ImageView::open`] validates the whole image once and
//! [`QuantizedNet::from_image`] then builds a network whose weight
//! matrices and bias sections are `Arc`-shared windows into the buffer:
//! O(layers) small allocations, zero weight/bias byte copies (the
//! alloc-counter regression test pins this down). [`ZooBuilder`] /
//! [`ZooView`] extend the same scheme to a multi-model image for fleet
//! serving (`ModelRegistry::load_zoo` in `mfdfp-serve`).

use std::sync::Arc;

use mfdfp_accel::qlayers::{ShiftConv, ShiftLinear};
use mfdfp_dfp::{AlignedBytes, Crc32, DfpFormat, I64Section, PackedPow2Matrix};
use mfdfp_tensor::{ConvGeometry, PoolKind};

use crate::error::{CoreError, Result};
use crate::qnet::{QLayer, QuantizedNet};

/// Magic bytes opening a v2 model image.
pub const IMAGE_MAGIC: [u8; 8] = *b"MFDFPIMG";
/// Magic bytes opening a v2 zoo image.
pub const ZOO_MAGIC: [u8; 8] = *b"MFDFPZOO";
/// Version of the flat image format.
pub const IMAGE_VERSION: u32 = 2;

/// Section alignment (bytes): every interior offset is a multiple of this.
pub const SECTION_ALIGN: usize = 64;

const HEADER_LEN: usize = 64;
const LAYER_ENTRY_LEN: usize = 96;
const ZOO_DIR_ENTRY_LEN: usize = 32;

/// Marker bytes declaring that the header carries a CRC-32. Every writer
/// stamps it and any other value is corruption — so neither flipping a
/// bit of the marker nor zeroing it can switch the check off.
const CRC_MARKER: [u8; 4] = *b"CRC1";
/// Model header: CRC-32 word at 44..48, [`CRC_MARKER`] at 48..52.
const IMAGE_CRC_OFF: usize = 44;
/// Zoo header: CRC-32 word at 32..36, [`CRC_MARKER`] at 36..40.
const ZOO_CRC_OFF: usize = 32;

/// Layer kind tags in the layer table.
const KIND_CONV: u32 = 0;
const KIND_LINEAR: u32 = 1;
const KIND_POOL: u32 = 2;
const KIND_RELU: u32 = 3;

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::BadImage(msg.into())
}

/// CRC-32 of `img` with the 4-byte checksum word at `crc_off` treated as
/// zero — the form both the writer (which hashes before stamping) and
/// the verifier (which hashes around the stamped word) agree on.
fn section_crc(img: &[u8], crc_off: usize) -> u32 {
    let mut h = Crc32::new();
    h.update(&img[..crc_off]);
    h.update_zeros(4);
    h.update(&img[crc_off + 4..]);
    h.finish()
}

/// Verifies the whole-section CRC of an image or zoo whose checksum word
/// sits at `crc_off` (marker directly after it). Unconditional: marker
/// == `CRC1` → verify; anything else, zeros included → corruption.
fn verify_crc(img: &[u8], crc_off: usize, what: &str) -> Result<()> {
    let marker = &img[crc_off + 4..crc_off + 8];
    if marker == CRC_MARKER {
        let stored = u32_at(img, crc_off);
        let actual = section_crc(img, crc_off);
        if stored != actual {
            return Err(bad(format!(
                "{what} checksum mismatch: header says {stored:#010x}, bytes hash to {actual:#010x}"
            )));
        }
        Ok(())
    } else {
        Err(bad(format!("{what} checksum marker is corrupt")))
    }
}

/// Stamps marker + CRC into a finished section (word at `crc_off` must
/// still be zero, as the writers leave it).
fn stamp_crc(bytes: &mut [u8], crc_off: usize) {
    bytes[crc_off + 4..crc_off + 8].copy_from_slice(&CRC_MARKER);
    let crc = section_crc(bytes, crc_off);
    bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialises a network to its flat v2 image.
///
/// Weight payloads are copied verbatim from each matrix's packed backing
/// bytes ([`PackedPow2Matrix::as_bytes`]) with the row stride recorded —
/// no decode, no re-pack. The result is 64-byte aligned and ready for
/// [`ImageView::open`] (or to be written to disk and mapped back).
pub fn to_image(net: &QuantizedNet) -> AlignedBytes {
    let mut a = AlignedBytes::new();
    a.grow_zeroed(HEADER_LEN);
    let name_off = a.len();
    a.extend_from_slice(net.name().as_bytes());
    let name_len = net.name().len();
    a.pad_to(SECTION_ALIGN);
    let ltab_off = a.len();
    let n_layers = net.layers().len();
    a.grow_zeroed(ltab_off + n_layers * LAYER_ENTRY_LEN);
    // Payload sections, each 64-aligned; record (w_off, w_len, b_off,
    // b_count) per weighted layer.
    let mut sections: Vec<[u64; 4]> = Vec::with_capacity(n_layers);
    for layer in net.layers() {
        let (weights, bias): (Option<&PackedPow2Matrix>, Option<&I64Section>) = match layer {
            QLayer::Conv(c) => (Some(&c.weights), Some(&c.bias)),
            QLayer::Linear(l) => (Some(&l.weights), Some(&l.bias)),
            _ => (None, None),
        };
        let mut sec = [0u64; 4];
        if let (Some(w), Some(b)) = (weights, bias) {
            a.pad_to(SECTION_ALIGN);
            sec[0] = a.len() as u64;
            a.extend_from_slice(w.as_bytes());
            sec[1] = w.as_bytes().len() as u64;
            a.pad_to(SECTION_ALIGN);
            sec[2] = a.len() as u64;
            b.iter().for_each(|v| a.extend_from_slice(&v.to_le_bytes()));
            sec[3] = b.len() as u64;
        }
        sections.push(sec);
    }
    a.pad_to(SECTION_ALIGN);
    let image_len = a.len();

    // Header back-patch.
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&IMAGE_MAGIC);
    h[8..12].copy_from_slice(&IMAGE_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(n_layers as u32).to_le_bytes());
    h[16..20].copy_from_slice(&(net.classes() as u32).to_le_bytes());
    h[20] = net.input_format().bits();
    h[21] = net.input_format().frac() as u8;
    h[22] = net.output_format().bits();
    h[23] = net.output_format().frac() as u8;
    h[24..28].copy_from_slice(&(name_off as u32).to_le_bytes());
    h[28..32].copy_from_slice(&(name_len as u32).to_le_bytes());
    h[32..36].copy_from_slice(&(ltab_off as u32).to_le_bytes());
    h[36..44].copy_from_slice(&(image_len as u64).to_le_bytes());
    a.as_mut_slice()[..HEADER_LEN].copy_from_slice(&h);

    // Layer-table back-patch.
    for (i, (layer, sec)) in net.layers().iter().zip(&sections).enumerate() {
        let mut e = [0u8; LAYER_ENTRY_LEN];
        let (kind, in_frac, out_frac, geom, rcs): (u32, i8, i8, [u32; 8], [u32; 3]) = match layer {
            QLayer::Conv(c) => {
                let g = &c.geom;
                (
                    KIND_CONV,
                    c.in_frac,
                    c.out_frac,
                    [
                        g.in_c as u32,
                        g.in_h as u32,
                        g.in_w as u32,
                        g.out_c as u32,
                        g.kernel as u32,
                        g.stride as u32,
                        g.pad as u32,
                        g.groups as u32,
                    ],
                    [
                        c.weights.rows() as u32,
                        c.weights.cols() as u32,
                        c.weights.row_stride() as u32,
                    ],
                )
            }
            QLayer::Linear(l) => (
                KIND_LINEAR,
                l.in_frac,
                l.out_frac,
                [l.in_features as u32, l.out_features as u32, 0, 0, 0, 0, 0, 0],
                [l.weights.rows() as u32, l.weights.cols() as u32, l.weights.row_stride() as u32],
            ),
            QLayer::Pool { kind, channels, in_h, in_w, window, stride } => (
                KIND_POOL,
                0,
                0,
                [
                    match kind {
                        PoolKind::Max => 0,
                        PoolKind::Avg => 1,
                    },
                    *channels as u32,
                    *in_h as u32,
                    *in_w as u32,
                    *window as u32,
                    *stride as u32,
                    0,
                    0,
                ],
                [0, 0, 0],
            ),
            QLayer::Relu => (KIND_RELU, 0, 0, [0; 8], [0, 0, 0]),
        };
        e[0..4].copy_from_slice(&kind.to_le_bytes());
        e[4] = in_frac as u8;
        e[5] = out_frac as u8;
        for (j, g) in geom.iter().enumerate() {
            e[8 + 4 * j..12 + 4 * j].copy_from_slice(&g.to_le_bytes());
        }
        e[40..44].copy_from_slice(&rcs[0].to_le_bytes());
        e[44..48].copy_from_slice(&rcs[1].to_le_bytes());
        e[48..52].copy_from_slice(&rcs[2].to_le_bytes());
        e[56..64].copy_from_slice(&sec[0].to_le_bytes());
        e[64..72].copy_from_slice(&sec[1].to_le_bytes());
        e[72..80].copy_from_slice(&sec[2].to_le_bytes());
        e[80..88].copy_from_slice(&sec[3].to_le_bytes());
        a.as_mut_slice()[ltab_off + i * LAYER_ENTRY_LEN..][..LAYER_ENTRY_LEN].copy_from_slice(&e);
    }
    stamp_crc(a.as_mut_slice(), IMAGE_CRC_OFF);
    a
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn u32_at(img: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(img[off..off + 4].try_into().expect("4 bytes"))
}

fn u64_at(img: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(img[off..off + 8].try_into().expect("8 bytes"))
}

/// Checks that `off..off + len` lies inside an image of `total` bytes,
/// with overflow-safe arithmetic.
fn check_range(total: usize, off: u64, len: u64, what: &str) -> Result<(usize, usize)> {
    let end = off.checked_add(len).ok_or_else(|| bad(format!("{what} range overflows")))?;
    if end > total as u64 {
        return Err(bad(format!("{what} runs past the image ({end} > {total})")));
    }
    Ok((off as usize, len as usize))
}

fn check_aligned(off: u64, what: &str) -> Result<()> {
    if !off.is_multiple_of(SECTION_ALIGN as u64) {
        return Err(bad(format!("{what} offset {off} is not {SECTION_ALIGN}-byte aligned")));
    }
    Ok(())
}

/// Geometry and section info of one validated layer entry.
struct LayerEntry {
    kind: u32,
    in_frac: i8,
    out_frac: i8,
    geom: [u32; 8],
    rows: usize,
    cols: usize,
    row_stride: usize,
    w_off: usize,
    w_len: usize,
    b_off: usize,
    b_count: usize,
}

/// A validated, zero-copy view of one v2 model image inside a shared
/// 64-byte-aligned buffer.
///
/// [`ImageView::open`] performs the *entire* structural validation —
/// magic, version, bounds, alignment, geometry — returning typed
/// [`CoreError::BadImage`] errors on any corruption, truncation or
/// misalignment, never panicking. After `open` succeeds,
/// [`QuantizedNet::from_image`] is pure offset arithmetic.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use mfdfp_core::{to_image, ImageView, QuantizedNet};
/// # fn get_net() -> QuantizedNet { unimplemented!() }
/// let net = get_net();
/// let image = Arc::new(to_image(&net));
/// let view = ImageView::open(image)?;
/// let served = QuantizedNet::from_image(&view)?; // zero weight copies
/// # Ok::<(), mfdfp_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ImageView {
    buf: Arc<AlignedBytes>,
    /// Offset of the model image inside `buf`; multiple of 64.
    base: usize,
    /// Image length in bytes.
    len: usize,
    name: String,
    classes: usize,
    input_format: DfpFormat,
    output_format: DfpFormat,
    ltab_off: usize,
    n_layers: usize,
}

impl ImageView {
    /// Opens and fully validates a model image occupying `buf` from its
    /// first byte.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadImage`] on any structural defect: wrong magic or
    /// version, truncation, out-of-bounds or misaligned section offsets,
    /// impossible layer geometry.
    pub fn open(buf: Arc<AlignedBytes>) -> Result<ImageView> {
        let len = buf.len();
        Self::open_at(buf, 0, len)
    }

    /// Opens a model image at `base..base + len` inside a larger buffer
    /// (a zoo section). `base` must be 64-byte aligned.
    ///
    /// # Errors
    ///
    /// As [`ImageView::open`].
    pub fn open_at(buf: Arc<AlignedBytes>, base: usize, len: usize) -> Result<ImageView> {
        check_aligned(base as u64, "model image")?;
        let end = base.checked_add(len).ok_or_else(|| bad("image range overflows"))?;
        if end > buf.len() {
            return Err(bad(format!("image {base}..{end} runs past the buffer ({})", buf.len())));
        }
        if len < HEADER_LEN {
            return Err(bad(format!("image of {len} bytes is smaller than the header")));
        }
        let img = &buf.as_slice()[base..base + len];
        if img[0..8] != IMAGE_MAGIC {
            return Err(bad("bad magic; not an MF-DFP v2 model image"));
        }
        let version = u32_at(img, 8);
        if version != IMAGE_VERSION {
            return Err(bad(format!("unsupported image version {version}")));
        }
        // End-to-end integrity first: any single flipped bit anywhere in
        // the section — header, name, layer table, weight nibble, bias —
        // is rejected here, before a single weight byte is trusted.
        verify_crc(img, IMAGE_CRC_OFF, "model image")?;
        let n_layers = u32_at(img, 12) as usize;
        let classes = u32_at(img, 16) as usize;
        if n_layers == 0 || classes == 0 {
            return Err(bad("image declares no layers or no classes"));
        }
        let input_format = DfpFormat::new(img[20], img[21] as i8)
            .map_err(|e| bad(format!("input format: {e}")))?;
        let output_format = DfpFormat::new(img[22], img[23] as i8)
            .map_err(|e| bad(format!("output format: {e}")))?;
        let (name_off, name_len) =
            check_range(len, u32_at(img, 24) as u64, u32_at(img, 28) as u64, "name")?;
        let name = std::str::from_utf8(&img[name_off..name_off + name_len])
            .map_err(|_| bad("model name is not UTF-8"))?
            .to_string();
        let declared = u64_at(img, 36);
        if declared != len as u64 {
            return Err(bad(format!("header declares {declared} bytes, view holds {len}")));
        }
        let ltab_off64 = u32_at(img, 32) as u64;
        check_aligned(ltab_off64, "layer table")?;
        let (ltab_off, _) =
            check_range(len, ltab_off64, (n_layers * LAYER_ENTRY_LEN) as u64, "layer table")?;
        let view = ImageView {
            buf,
            base,
            len,
            name,
            classes,
            input_format,
            output_format,
            ltab_off,
            n_layers,
        };
        // Validate every layer entry up front so `from_image` cannot fail
        // structurally (it still re-checks windows when carving slices).
        for i in 0..n_layers {
            view.layer_entry(i)?;
        }
        Ok(view)
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty (never true for a validated view).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The image bytes (e.g. to write to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf.as_slice()[self.base..self.base + self.len]
    }

    fn img(&self) -> &[u8] {
        self.as_bytes()
    }

    fn layer_entry(&self, i: usize) -> Result<LayerEntry> {
        let img = self.img();
        let e =
            &img[self.ltab_off + i * LAYER_ENTRY_LEN..self.ltab_off + (i + 1) * LAYER_ENTRY_LEN];
        let kind = u32_at(e, 0);
        if kind > KIND_RELU {
            return Err(bad(format!("layer {i}: unknown kind {kind}")));
        }
        let in_frac = e[4] as i8;
        let out_frac = e[5] as i8;
        if !(-32..=32).contains(&in_frac) || !(-32..=32).contains(&out_frac) {
            return Err(bad(format!("layer {i}: fractional length out of range")));
        }
        let mut geom = [0u32; 8];
        for (j, g) in geom.iter_mut().enumerate() {
            *g = u32_at(e, 8 + 4 * j);
        }
        let rows = u32_at(e, 40) as usize;
        let cols = u32_at(e, 44) as usize;
        let row_stride = u32_at(e, 48) as usize;
        let (w_off, w_len, b_off, b_count);
        if kind == KIND_CONV || kind == KIND_LINEAR {
            if row_stride < cols.div_ceil(2) {
                return Err(bad(format!(
                    "layer {i}: row stride {row_stride} below payload {}",
                    cols.div_ceil(2)
                )));
            }
            let expect_w = (rows as u64) * (row_stride as u64);
            if u64_at(e, 64) != expect_w {
                return Err(bad(format!(
                    "layer {i}: weight section is {} bytes, geometry needs {expect_w}",
                    u64_at(e, 64)
                )));
            }
            check_aligned(u64_at(e, 56), "weight section")?;
            (w_off, w_len) = check_range(self.len, u64_at(e, 56), expect_w, "weight section")?;
            check_aligned(u64_at(e, 72), "bias section")?;
            let bc = u64_at(e, 80);
            if bc != rows as u64 {
                return Err(bad(format!("layer {i}: {bc} biases for {rows} output rows")));
            }
            (b_off, b_count) = {
                let (off, bytes) = check_range(self.len, u64_at(e, 72), bc * 8, "bias section")?;
                (off, bytes / 8)
            };
        } else {
            (w_off, w_len, b_off, b_count) = (0, 0, 0, 0);
        }
        // Kind-specific geometry sanity (full semantic checks happen when
        // the layer is constructed).
        match kind {
            KIND_CONV => {
                let g = conv_geometry(&geom).map_err(|e| bad(format!("layer {i}: {e}")))?;
                if rows != g.out_c || cols != g.col_height() {
                    return Err(bad(format!(
                        "layer {i}: weight matrix {rows}×{cols} does not match geometry {}×{}",
                        g.out_c,
                        g.col_height()
                    )));
                }
            }
            KIND_LINEAR if rows != geom[1] as usize || cols != geom[0] as usize => {
                return Err(bad(format!(
                    "layer {i}: weight matrix {rows}×{cols} does not match features {}×{}",
                    geom[1], geom[0]
                )));
            }
            KIND_POOL if geom[0] > 1 => {
                return Err(bad(format!("layer {i}: unknown pool kind {}", geom[0])));
            }
            _ => {}
        }
        Ok(LayerEntry {
            kind,
            in_frac,
            out_frac,
            geom,
            rows,
            cols,
            row_stride,
            w_off,
            w_len,
            b_off,
            b_count,
        })
    }
}

fn conv_geometry(geom: &[u32; 8]) -> Result<ConvGeometry> {
    let g = ConvGeometry::new(
        geom[0] as usize,
        geom[1] as usize,
        geom[2] as usize,
        geom[3] as usize,
        geom[4] as usize,
        geom[5] as usize,
        geom[6] as usize,
    )
    .map_err(CoreError::Tensor)?;
    g.with_groups(geom[7] as usize).map_err(CoreError::Tensor)
}

impl QuantizedNet {
    /// Builds a servable network **borrowing** its weights and biases
    /// zero-copy from a validated image view: every weight matrix is a
    /// [`PackedPow2Matrix::from_shared`] window and every bias an
    /// [`I64Section::from_shared`] window into the image's buffer, shared
    /// by `Arc`. O(layers) small allocations, no payload byte copied —
    /// and the served activations are bit-identical to the owned
    /// construction path (property-tested).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadImage`] on structural defects (already excluded by
    /// [`ImageView::open`]) and on a layer stack whose shapes do not
    /// chain (one layer's input length is not the previous layer's
    /// output length, or the last does not produce `classes` logits);
    /// [`CoreError::BadConfig`] for an empty layer stack.
    pub fn from_image(view: &ImageView) -> Result<QuantizedNet> {
        let mut layers = Vec::with_capacity(view.n_layers);
        for i in 0..view.n_layers {
            let e = view.layer_entry(i)?;
            let layer = match e.kind {
                KIND_CONV | KIND_LINEAR => {
                    let weights = PackedPow2Matrix::from_shared(
                        e.rows,
                        e.cols,
                        e.row_stride,
                        Arc::clone(&view.buf),
                        view.base + e.w_off,
                    )
                    .map_err(CoreError::Dfp)?;
                    debug_assert_eq!(weights.as_bytes().len(), e.w_len);
                    let bias = I64Section::from_shared(
                        Arc::clone(&view.buf),
                        view.base + e.b_off,
                        e.b_count,
                    )
                    .map_err(CoreError::Dfp)?;
                    if e.kind == KIND_CONV {
                        QLayer::Conv(ShiftConv {
                            geom: conv_geometry(&e.geom)?,
                            weights,
                            bias,
                            in_frac: e.in_frac,
                            out_frac: e.out_frac,
                        })
                    } else {
                        QLayer::Linear(ShiftLinear {
                            in_features: e.cols,
                            out_features: e.rows,
                            weights,
                            bias,
                            in_frac: e.in_frac,
                            out_frac: e.out_frac,
                        })
                    }
                }
                KIND_POOL => QLayer::Pool {
                    kind: if e.geom[0] == 0 { PoolKind::Max } else { PoolKind::Avg },
                    channels: e.geom[1] as usize,
                    in_h: e.geom[2] as usize,
                    in_w: e.geom[3] as usize,
                    window: e.geom[4] as usize,
                    stride: e.geom[5] as usize,
                },
                _ => QLayer::Relu,
            };
            layers.push(layer);
        }
        QuantizedNet::from_parts(
            view.name.clone(),
            view.input_format,
            view.output_format,
            view.classes,
            layers,
        )
    }
}

// ---------------------------------------------------------------------------
// Zoo
// ---------------------------------------------------------------------------

/// Builds a multi-model zoo image: a directory of named model sections,
/// each a complete v2 model image at a 64-byte-aligned offset.
///
/// # Examples
///
/// ```no_run
/// use mfdfp_core::{QuantizedNet, ZooBuilder};
/// # fn nets() -> Vec<(String, QuantizedNet)> { unimplemented!() }
/// let mut zoo = ZooBuilder::new();
/// for (name, net) in nets() {
///     zoo.push(&name, &net);
/// }
/// let image = zoo.finish(); // one aligned buffer, N models
/// ```
#[derive(Debug, Default)]
pub struct ZooBuilder {
    entries: Vec<(String, AlignedBytes)>,
}

impl ZooBuilder {
    /// An empty zoo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a model under `name` (serialised via [`to_image`]).
    pub fn push(&mut self, name: &str, net: &QuantizedNet) -> &mut Self {
        self.entries.push((name.to_string(), to_image(net)));
        self
    }

    /// Adds an already-serialised model image under `name`.
    pub fn push_image(&mut self, name: &str, image: AlignedBytes) -> &mut Self {
        self.entries.push((name.to_string(), image));
        self
    }

    /// Number of models added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no models were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises the zoo into one aligned buffer.
    pub fn finish(self) -> AlignedBytes {
        let mut a = AlignedBytes::new();
        a.grow_zeroed(HEADER_LEN);
        a.pad_to(SECTION_ALIGN);
        let dir_off = a.len();
        a.grow_zeroed(dir_off + self.entries.len() * ZOO_DIR_ENTRY_LEN);
        let mut dir: Vec<[u64; 4]> = Vec::with_capacity(self.entries.len());
        for (name, _) in &self.entries {
            dir.push([a.len() as u64, name.len() as u64, 0, 0]);
            a.extend_from_slice(name.as_bytes());
        }
        for ((_, image), d) in self.entries.iter().zip(dir.iter_mut()) {
            a.pad_to(SECTION_ALIGN);
            d[2] = a.len() as u64;
            a.extend_from_slice(image.as_slice());
            d[3] = image.len() as u64;
        }
        a.pad_to(SECTION_ALIGN);
        let image_len = a.len();

        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&ZOO_MAGIC);
        h[8..12].copy_from_slice(&IMAGE_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        h[16..20].copy_from_slice(&(dir_off as u32).to_le_bytes());
        h[24..32].copy_from_slice(&(image_len as u64).to_le_bytes());
        a.as_mut_slice()[..HEADER_LEN].copy_from_slice(&h);
        for (i, d) in dir.iter().enumerate() {
            let mut e = [0u8; ZOO_DIR_ENTRY_LEN];
            e[0..4].copy_from_slice(&(d[0] as u32).to_le_bytes());
            e[4..8].copy_from_slice(&(d[1] as u32).to_le_bytes());
            e[8..16].copy_from_slice(&d[2].to_le_bytes());
            e[16..24].copy_from_slice(&d[3].to_le_bytes());
            a.as_mut_slice()[dir_off + i * ZOO_DIR_ENTRY_LEN..][..ZOO_DIR_ENTRY_LEN]
                .copy_from_slice(&e);
        }
        // Zoo-level CRC covers every byte — directory, names and the
        // embedded model images (each already carrying its own CRC) — so
        // one flipped bit anywhere is caught before any model is opened.
        stamp_crc(a.as_mut_slice(), ZOO_CRC_OFF);
        a
    }
}

/// A validated view of a multi-model zoo image.
///
/// Opening validates the zoo directory; each model section is then fully
/// validated by [`ZooView::model`] (which returns an [`ImageView`]
/// sharing the same buffer).
#[derive(Debug, Clone)]
pub struct ZooView {
    buf: Arc<AlignedBytes>,
    /// Per model: (name, section offset, section length).
    entries: Vec<(String, usize, usize)>,
}

impl ZooView {
    /// Opens and validates a zoo image held in `buf`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadImage`] on wrong magic/version, truncation, or a
    /// directory entry that is out of bounds, misaligned or not UTF-8.
    pub fn open(buf: Arc<AlignedBytes>) -> Result<ZooView> {
        let len = buf.len();
        if len < HEADER_LEN {
            return Err(bad(format!("zoo of {len} bytes is smaller than the header")));
        }
        let img = buf.as_slice();
        if img[0..8] != ZOO_MAGIC {
            return Err(bad("bad magic; not an MF-DFP v2 zoo image"));
        }
        let version = u32_at(img, 8);
        if version != IMAGE_VERSION {
            return Err(bad(format!("unsupported zoo version {version}")));
        }
        // Whole-zoo integrity before the directory is trusted: a torn
        // write or flipped bit in any byte of any section fails here.
        verify_crc(img, ZOO_CRC_OFF, "zoo image")?;
        let n_models = u32_at(img, 12) as usize;
        let declared = u64_at(img, 24);
        if declared != len as u64 {
            return Err(bad(format!("header declares {declared} bytes, buffer holds {len}")));
        }
        let dir_off64 = u32_at(img, 16) as u64;
        check_aligned(dir_off64, "zoo directory")?;
        let (dir_off, _) =
            check_range(len, dir_off64, (n_models * ZOO_DIR_ENTRY_LEN) as u64, "zoo directory")?;
        let mut entries = Vec::with_capacity(n_models);
        for i in 0..n_models {
            let e = &img[dir_off + i * ZOO_DIR_ENTRY_LEN..dir_off + (i + 1) * ZOO_DIR_ENTRY_LEN];
            let (name_off, name_len) =
                check_range(len, u32_at(e, 0) as u64, u32_at(e, 4) as u64, "model name")?;
            let name = std::str::from_utf8(&img[name_off..name_off + name_len])
                .map_err(|_| bad(format!("model {i}: name is not UTF-8")))?
                .to_string();
            check_aligned(u64_at(e, 8), "model section")?;
            let (off, mlen) = check_range(len, u64_at(e, 8), u64_at(e, 16), "model section")?;
            entries.push((name, off, mlen));
        }
        Ok(ZooView { buf, entries })
    }

    /// Number of models in the zoo.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the zoo holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered name of model `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (use [`ZooView::len`]).
    pub fn name(&self, i: usize) -> &str {
        &self.entries[i].0
    }

    /// All model names, in directory order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Opens (and fully validates) model `i`'s image section, sharing
    /// this zoo's buffer.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadImage`] if `i` is out of range or the section is
    /// structurally invalid.
    pub fn model(&self, i: usize) -> Result<ImageView> {
        let (_, off, len) =
            self.entries.get(i).ok_or_else(|| bad(format!("no model {i} in zoo")))?;
        ImageView::open_at(Arc::clone(&self.buf), *off, *len)
    }

    /// Opens the model registered under `name`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadImage`] if no model has that name or its section
    /// is invalid.
    pub fn find(&self, name: &str) -> Result<ImageView> {
        let i = self
            .entries
            .iter()
            .position(|(n, _, _)| n == name)
            .ok_or_else(|| bad(format!("no model named {name:?} in zoo")))?;
        self.model(i)
    }
}

// ---------------------------------------------------------------------------
// Crash-safe persistence
// ---------------------------------------------------------------------------

/// Writes an image (model or zoo) to `path` crash-safely: the bytes go
/// to a same-directory temporary file, are fsynced, and only then
/// atomically renamed over `path` (followed by a best-effort directory
/// fsync). A crash or power cut at any point leaves either the old file
/// or the new one — never a torn mix — so a reader can only ever observe
/// a complete image, whose header CRC then vouches for every byte.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing or renaming the
/// temporary file; on error the temporary file is removed (best effort)
/// and `path` is untouched.
pub fn write_image_atomic(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;

    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);

    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Data must be durable *before* the rename publishes the name;
        // otherwise a crash could expose a named-but-empty file.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Make the rename itself durable. Failing to sync the directory
    // weakens durability, not atomicity, so this is best-effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
