//! The frozen in-run reference kernel.
//!
//! **Never edit this file after the PR that added it.** Its only job is
//! to cost the same on every commit, so that a change in its timing means
//! the *host* changed (another tenant, frequency, a noisy neighbour) and
//! not the code under test. It calls nothing from the workspace: a fixed
//! `i16` shift / xor / subtract / add pass over a 64 KiB buffer — the
//! operation mix of the multiplier-free datapath, with none of its code.

/// Buffer length in `i16` lanes: 64 KiB.
pub const LANES: usize = 32 * 1024;

/// The reference kernel's state: one 64 KiB buffer.
pub struct RefKernel {
    buf: Vec<i16>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    /// A buffer filled from a fixed LCG — the same contents in every
    /// process, whatever the workload seed.
    pub fn new() -> RefKernel {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..LANES)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 48) as i16
            })
            .collect();
        RefKernel { buf }
    }

    /// One pass over the buffer; returns a checksum so the work cannot be
    /// optimised away.
    #[inline(never)]
    pub fn pass(&mut self) -> i16 {
        let mut acc = 0i16;
        for x in &mut self.buf {
            let v = *x;
            let sign = v >> 15;
            let shifted = v.wrapping_shl(3) >> 2;
            let negated = (shifted ^ sign).wrapping_sub(sign);
            acc = acc.wrapping_add(negated);
            *x = v.wrapping_add(acc & 1);
        }
        acc
    }

    /// Times `passes` consecutive passes and returns nanoseconds per
    /// pass.
    pub fn time_ns(&mut self, passes: u32) -> f64 {
        let t0 = std::time::Instant::now();
        let mut sink = 0i16;
        for _ in 0..passes {
            sink = sink.wrapping_add(self.pass());
        }
        std::hint::black_box(sink);
        t0.elapsed().as_nanos() as f64 / f64::from(passes.max(1))
    }
}
