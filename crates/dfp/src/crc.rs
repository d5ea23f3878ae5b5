//! Hand-rolled CRC-32 (IEEE 802.3) — the end-to-end integrity check
//! stamped into every deployment image and zoo header.
//!
//! The deployment story (PAPER.md Fig. 2) ships packed weight images to
//! an accelerator over links and disks the serve tier does not control;
//! a single flipped bit in a packed pow-2 nibble silently changes every
//! logit downstream. The image format therefore carries a whole-buffer
//! CRC-32 which `mfdfp-core`'s `ImageView`/`ZooView` verify before any
//! weight byte is lent to a kernel.
//!
//! This is the reflected CRC-32 with polynomial `0xEDB8_8320`
//! (zlib/PNG/Ethernet): init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`.
//! Pure `std`, no dependencies — the same bytes hash to the same word on
//! every target.
//!
//! # Algorithm: slicing-by-16
//!
//! A byte-at-a-time table CRC is one long dependency chain: each lookup
//! indexes with the state the previous one produced, so it runs at the
//! latency of a load plus a shift and XOR per byte (≈ 7 cycles/B,
//! ≈ 300 MB/s). Slicing-by-N (Kounavis & Berry, IEEE Trans. Computers
//! 2008) breaks the chain. CRC is linear over GF(2), so the state after a
//! 16-byte chunk is the XOR of each byte's contribution shifted past the
//! bytes that follow it: table `s`, entry `i` holds the state after byte
//! `i` followed by `s` zero bytes (16 tables, 16 KiB, built at compile
//! time). [`Crc32::update`] reads each chunk as two little-endian `u64`
//! words and XORs the running state into the low four bytes of the
//! first. Twelve of the 16 lookups therefore never wait on the state and
//! run ahead; only four do. The XOR is written in that order — the twelve
//! free lookups, then the four dependent ones — because LLVM flattens
//! any XOR tree into a chain in the order its loads appear, whatever
//! the source's bracketing. The tail of fewer than 16 bytes takes the
//! byte-at-a-time loop on table 0.
//!
//! **Ceiling.** Each 16-byte chunk issues 18 loads (two data words, 16
//! table entries that stay in L1) and ≈ 60 instructions. The same loop
//! with the state feedback cut, so that chunks are independent, is the
//! ceiling. On a 2-vCPU Intel Xeon (AVX-512) cloud host, over a
//! 75 584-byte model image, minimum of 300 runs: the byte loop takes
//! ≈ 250 µs (≈ 300 MB/s); `update` takes 24–28 µs (2.7–3.1 GB/s); the
//! chain-free ceiling takes 18–19 µs (≈ 4.0 GB/s), so `update` is at
//! ≈ 75 % of it. The benchmark's `dfp.crc32_mb_per_s` probe reads
//! ≈ 2.4 GB/s on the same host. Carry-less-multiply folding would go
//! past the ceiling, at the cost of an arch-specific path and `unsafe`.
//!
//! # Examples
//!
//! ```
//! use mfdfp_dfp::{crc32, Crc32};
//!
//! // The classic check vector.
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//!
//! // Streaming over parts is identical to hashing the concatenation.
//! let mut h = Crc32::new();
//! h.update(b"1234");
//! h.update(b"56789");
//! assert_eq!(h.finish(), crc32(b"123456789"));
//! ```

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing tables: `TABLES[s][i]` is the CRC state (from zero, no
/// closing XOR) after byte `i` followed by `s` zero bytes. `TABLES[0]`
/// is the classic byte-at-a-time table.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte through the byte-at-a-time step.
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

/// The XOR of the lookups for the low `N` bytes of `word` (little-endian)
/// when `AFTER` more bytes follow them in the chunk: byte `k` is shifted
/// past the `N - 1 - k + AFTER` bytes after it.
fn fold<const AFTER: usize, const N: usize>(word: u64) -> u32 {
    let b = word.to_le_bytes();
    (0..N).fold(0, |acc, k| acc ^ TABLES[AFTER + N - 1 - k][b[k] as usize])
}

/// Streaming CRC-32 hasher, for checksumming a buffer in parts (the
/// image verifier hashes around the header's own checksum field without
/// copying the image).
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"stream");
/// h.update(b"ing");
/// assert_eq!(h.finish(), mfdfp_dfp::crc32(b"streaming"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (state = init value `0xFFFF_FFFF`).
    pub const fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs `bytes` into the running checksum: slicing-by-16 over
    /// whole 16-byte chunks, then the byte loop over the tail (see the
    /// module docs).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let (lo, hi) = chunk.split_at(8);
            let lo = u64::from_le_bytes(lo.try_into().expect("8-byte half"));
            let hi = u64::from_le_bytes(hi.try_into().expect("8-byte half"));
            // The twelve lookups that do not wait on `crc` come first, so
            // the XOR chain LLVM emits leaves four on the loop-carried path.
            crc = fold::<0, 8>(hi) ^ fold::<8, 4>(lo >> 32) ^ fold::<12, 4>(lo ^ u64::from(crc));
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The final checksum (applies the closing XOR; the hasher may keep
    /// absorbing afterwards since `finish` does not consume it).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
///
/// # Examples
///
/// ```
/// assert_eq!(mfdfp_dfp::crc32(b""), 0);
/// assert_eq!(mfdfp_dfp::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Absorbs one byte bit by bit, table-free.
    fn reference_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        }
        crc
    }

    /// Bit-at-a-time reference implementation, table-free.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |crc, &b| reference_step(crc, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn matches_bitwise_reference() {
        let mut bytes = Vec::new();
        let mut x = 0x1234_5678u32;
        for _ in 0..1000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            bytes.push((x >> 24) as u8);
        }
        for n in [0, 1, 2, 63, 64, 65, 999, 1000] {
            assert_eq!(crc32(&bytes[..n]), crc32_reference(&bytes[..n]), "n={n}");
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let expect = crc32(&bytes);
        for split in [0, 1, 7, 64, 150, 299, 300] {
            let mut h = Crc32::new();
            h.update(&bytes[..split]);
            h.update(&bytes[split..]);
            assert_eq!(h.finish(), expect, "split={split}");
        }
    }

    #[test]
    fn table_s_entry_i_is_byte_i_then_s_zero_bytes() {
        for (s, table) in TABLES.iter().enumerate() {
            for (i, &entry) in table.iter().enumerate() {
                let state =
                    (0..s).fold(reference_step(0, i as u8), |crc, _| reference_step(crc, 0));
                assert_eq!(entry, state, "TABLES[{s}][{i}]");
            }
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let bytes: Vec<u8> = (0..128u8).collect();
        let base = crc32(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip byte {i} bit {bit} undetected");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Slicing-by-16 matches the bit-at-a-time oracle on any slice —
        /// including ones that start mid-chunk, as the image verifier's
        /// slices around the checksum word do — and streaming over one or
        /// two split points equals the one-shot hash.
        #[test]
        fn slicing_matches_bitwise_oracle(
            buf in proptest::collection::vec(proptest::num::u8::ANY, 0..301),
            start in 0usize..16,
            cut_a in 0usize..301,
            cut_b in 0usize..301,
        ) {
            let bytes = &buf[start.min(buf.len())..];
            let expect = crc32_reference(bytes);
            prop_assert_eq!(crc32(bytes), expect);

            let (a, b) = (cut_a.min(bytes.len()), cut_b.min(bytes.len()));
            let mut h = Crc32::new();
            h.update(&bytes[..a]);
            h.update(&bytes[a..]);
            prop_assert_eq!(h.finish(), expect, "split at {}", a);

            let (a, b) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            h.update(&bytes[..a]);
            h.update(&bytes[a..b]);
            h.update(&bytes[b..]);
            prop_assert_eq!(h.finish(), expect, "splits at {} and {}", a, b);
        }
    }
}
