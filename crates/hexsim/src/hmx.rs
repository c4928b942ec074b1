//! HMX matrix engine: 32x32 FP16 tiles with the two-level interleaved
//! memory layout of paper Figure 4.
//!
//! The basic HMX data unit is a *tile*: a 32x32 FP16 matrix occupying 2 KiB
//! of TCM. Within a tile, every two rows are permuted so that the pair is
//! stored like the transposed 2x32 sub-matrix: `a0,b0,a1,b1,...,a31,b31`
//! (Figure 4a). At the GEMM level, weight tiles are laid out column-major
//! (the k-dimension tiles of one output column are contiguous) because the
//! hardware performs an inner product at tile granularity (Figure 4b).
//!
//! The engine multiplies an activation tile by a weight tile and accumulates
//! into an internal higher-precision accumulator; on writeback it can scale
//! and bias each output channel (column) before converting to FP16.

use crate::f16::F16;

/// Rows/columns of an HMX tile.
pub const TILE_DIM: usize = 32;
/// Bytes occupied by one FP16 tile in TCM.
pub const TILE_BYTES: usize = TILE_DIM * TILE_DIM * 2;

/// Byte offset of element `(row, col)` inside an interleaved FP16 tile.
///
/// Rows are processed in pairs; within pair `p = row / 2` the element order
/// is `(p, col, row % 2)`, i.e. the pair is stored as the transposed 2x32
/// sub-matrix (paper Figure 4a).
///
/// # Panics
///
/// Panics if `row` or `col` is out of range.
#[inline]
pub fn tile_elem_offset(row: usize, col: usize) -> usize {
    assert!(row < TILE_DIM && col < TILE_DIM, "tile index out of range");
    let pair = row / 2;
    let within = col * 2 + (row % 2);
    (pair * (TILE_DIM * 2) + within) * 2
}

/// Bytes one row pair occupies in an interleaved tile.
const PAIR_BYTES: usize = 2 * TILE_DIM * 2;

/// A row-major tile widened to FP32, the precision the MAC runs at.
pub type WideTile = [[f32; TILE_DIM]; TILE_DIM];

/// Packs a row-major 32x32 FP16 matrix into the interleaved tile byte
/// layout.
pub fn pack_tile(rows: &[[F16; TILE_DIM]; TILE_DIM]) -> [u8; TILE_BYTES] {
    let mut out = [0u8; TILE_BYTES];
    for (pair, dst) in rows.chunks_exact(2).zip(out.chunks_exact_mut(PAIR_BYTES)) {
        for ((d, even), odd) in dst.chunks_exact_mut(4).zip(&pair[0]).zip(&pair[1]) {
            d[..2].copy_from_slice(&even.0.to_le_bytes());
            d[2..].copy_from_slice(&odd.0.to_le_bytes());
        }
    }
    out
}

/// Unpacks an interleaved tile into a row-major matrix, mapping each FP16
/// bit pattern through `elem`.
fn unpack_with<T: Copy + Default>(
    bytes: &[u8],
    elem: impl Fn(u16) -> T,
) -> [[T; TILE_DIM]; TILE_DIM] {
    let mut out = [[T::default(); TILE_DIM]; TILE_DIM];
    for (pair, src) in out
        .chunks_exact_mut(2)
        .zip(bytes[..TILE_BYTES].chunks_exact(PAIR_BYTES))
    {
        let (even, odd) = pair.split_at_mut(1);
        for ((e, o), s) in even[0].iter_mut().zip(&mut odd[0]).zip(src.chunks_exact(4)) {
            *e = elem(u16::from_le_bytes([s[0], s[1]]));
            *o = elem(u16::from_le_bytes([s[2], s[3]]));
        }
    }
    out
}

/// Unpacks an interleaved tile back into a row-major 32x32 FP16 matrix.
///
/// # Panics
///
/// Panics if `bytes` is shorter than [`TILE_BYTES`].
pub fn unpack_tile(bytes: &[u8]) -> [[F16; TILE_DIM]; TILE_DIM] {
    unpack_with(bytes, F16)
}

/// Unpacks an interleaved tile straight to a row-major FP32 matrix (the
/// FP16 values widen exactly). A kernel that multiplies one tile against
/// several others widens it once with this and calls
/// [`HmxAccumulator::mac_f32`].
///
/// # Panics
///
/// Panics if `bytes` is shorter than [`TILE_BYTES`].
pub fn unpack_tile_f32(bytes: &[u8]) -> WideTile {
    unpack_with(bytes, |h| F16(h).to_f32())
}

/// The HMX internal accumulator: a 32x32 FP32 matrix.
///
/// FP16 HMX accumulates in higher precision internally (paper Section
/// 5.2.1); the simulator uses FP32, matching the `AccumType=FP32`
/// annotations in the paper's Algorithm 1.
#[derive(Clone)]
pub struct HmxAccumulator(pub [[f32; TILE_DIM]; TILE_DIM]);

impl Default for HmxAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl HmxAccumulator {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        HmxAccumulator([[0.0f32; TILE_DIM]; TILE_DIM])
    }

    /// Resets all entries to zero.
    pub fn clear(&mut self) {
        for row in self.0.iter_mut() {
            row.fill(0.0);
        }
    }

    /// Accumulates `act x wgt` (both row-major 32x32, FP16 inputs upcast to
    /// FP32 for the MAC, like the hardware's internal precision).
    ///
    /// Each tile widens once, then every entry `(i, j)` adds the products
    /// `act[i][k] * wgt[k][j]` for `k` in ascending order. A product of two
    /// FP16 values is exact in FP32, so only the adds round, in that fixed
    /// order. Zero activations are skipped, so a zero times an infinite or
    /// NaN weight adds nothing and a `-0.0` entry stays `-0.0`.
    pub fn mac(&mut self, act: &[[F16; TILE_DIM]; TILE_DIM], wgt: &[[F16; TILE_DIM]; TILE_DIM]) {
        let widen = |t: &[[F16; TILE_DIM]; TILE_DIM]| t.map(|row| row.map(F16::to_f32));
        self.mac_f32(&widen(act), &widen(wgt));
    }

    /// [`HmxAccumulator::mac`] on tiles already widened to FP32.
    ///
    /// An activation row of only ±0 would skip every product, so it is
    /// skipped whole after one branch-free test (the padded rows of a
    /// decode batch below 32 rows are such rows). Each active row
    /// accumulates in a local copy, stored back once, so it can stay in
    /// registers across the `k` loop.
    pub fn mac_f32(&mut self, act: &WideTile, wgt: &WideTile) {
        for (acc_row, act_row) in self.0.iter_mut().zip(act) {
            // Every entry's bits with the sign shifted out, OR-ed together.
            if act_row.iter().fold(0, |bits, a| bits | a.to_bits() << 1) == 0 {
                continue;
            }
            let mut row = *acc_row;
            for (&a, wgt_row) in act_row.iter().zip(wgt) {
                if a == 0.0 {
                    continue;
                }
                for (acc, &w) in row.iter_mut().zip(wgt_row) {
                    *acc += a * w;
                }
            }
            *acc_row = row;
        }
    }

    /// Converts the accumulator to an FP16 tile, applying optional
    /// per-column (output channel) scale and bias first — the HMX writeback
    /// path of paper Section 3.1.2.
    pub fn to_tile(
        &self,
        scale: Option<&[f32; TILE_DIM]>,
        bias: Option<&[f32; TILE_DIM]>,
    ) -> [[F16; TILE_DIM]; TILE_DIM] {
        self.0.map(|mut row| {
            if let Some(s) = scale {
                for (v, s) in row.iter_mut().zip(s) {
                    *v *= s;
                }
            }
            if let Some(b) = bias {
                for (v, b) in row.iter_mut().zip(b) {
                    *v += b;
                }
            }
            row.map(F16::from_f32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tile(start: f32) -> [[F16; TILE_DIM]; TILE_DIM] {
        let mut t = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        for (r, row) in t.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = F16::from_f32(start + ((r * 7 + c * 3) % 13) as f32 - 6.0);
            }
        }
        t
    }

    #[test]
    fn tile_offsets_match_figure_4a() {
        // Pair (row0,row1) stored as a0,b0,a1,b1,...
        assert_eq!(tile_elem_offset(0, 0), 0);
        assert_eq!(tile_elem_offset(1, 0), 2);
        assert_eq!(tile_elem_offset(0, 1), 4);
        assert_eq!(tile_elem_offset(1, 1), 6);
        // Second pair starts after 2 rows * 32 cols * 2 bytes = 128 bytes.
        assert_eq!(tile_elem_offset(2, 0), 128);
        assert_eq!(tile_elem_offset(31, 31), TILE_BYTES - 2);
    }

    #[test]
    fn tile_offsets_are_a_permutation() {
        let mut seen = vec![false; TILE_DIM * TILE_DIM];
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                let off = tile_elem_offset(r, c);
                assert_eq!(off % 2, 0);
                let slot = off / 2;
                assert!(!seen[slot], "offset collision at ({r},{c})");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let t = seq_tile(0.5);
        let bytes = pack_tile(&t);
        let back = unpack_tile(&bytes);
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                assert_eq!(t[r][c], back[r][c]);
            }
        }
    }

    /// A deterministic xorshift32 stream.
    fn xorshift(mut state: u32) -> impl FnMut() -> u32 {
        move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        }
    }

    #[test]
    fn pack_and_unpack_follow_tile_elem_offset() {
        let mut next = xorshift(0x1234_5678);
        let tile: [[F16; TILE_DIM]; TILE_DIM] =
            std::array::from_fn(|_| std::array::from_fn(|_| F16(next() as u16)));
        let packed = pack_tile(&tile);
        let raw: [u8; TILE_BYTES] = std::array::from_fn(|_| next() as u8);
        let (halves, wide) = (unpack_tile(&raw), unpack_tile_f32(&raw));
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                let off = tile_elem_offset(r, c);
                assert_eq!(
                    u16::from_le_bytes([packed[off], packed[off + 1]]),
                    tile[r][c].0
                );
                let h = F16(u16::from_le_bytes([raw[off], raw[off + 1]]));
                assert_eq!(halves[r][c], h, "({r},{c})");
                assert_eq!(wide[r][c].to_bits(), h.to_f32().to_bits(), "({r},{c})");
            }
        }
    }

    /// The naive triple loop `mac` must reproduce bit for bit: each weight
    /// element widens once per use, `k` ascends, zero activations skip.
    #[allow(clippy::needless_range_loop)]
    fn mac_naive(
        acc: &mut WideTile,
        act: &[[F16; TILE_DIM]; TILE_DIM],
        wgt: &[[F16; TILE_DIM]; TILE_DIM],
    ) {
        for i in 0..TILE_DIM {
            for k in 0..TILE_DIM {
                let a = act[i][k].to_f32();
                if a == 0.0 {
                    continue;
                }
                for j in 0..TILE_DIM {
                    acc[i][j] += a * wgt[k][j].to_f32();
                }
            }
        }
    }

    /// Runs `act x wgt` through `mac`, through the TCM path of
    /// `hmx_matmul` (packed bytes widened straight to f32) and through
    /// [`mac_naive`], from the same starting accumulator, and asserts all
    /// three agree bitwise. Returns the result.
    fn assert_mac_is_naive(
        start: &WideTile,
        act: &[[F16; TILE_DIM]; TILE_DIM],
        wgt: &[[F16; TILE_DIM]; TILE_DIM],
    ) -> WideTile {
        let mut want = *start;
        mac_naive(&mut want, act, wgt);
        let mut acc = HmxAccumulator(*start);
        acc.mac(act, wgt);
        let mut tcm = HmxAccumulator(*start);
        tcm.mac_f32(
            &unpack_tile_f32(&pack_tile(act)),
            &unpack_tile_f32(&pack_tile(wgt)),
        );
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                let want = want[i][j].to_bits();
                assert_eq!(acc.0[i][j].to_bits(), want, "mac ({i},{j})");
                assert_eq!(tcm.0[i][j].to_bits(), want, "mac_f32 ({i},{j})");
            }
        }
        acc.0
    }

    #[test]
    fn mac_is_bitwise_the_naive_triple_loop() {
        // Random finite tiles with a quarter of the activations ±0, one
        // all-±0 row per tile, and one row that is ±0 but for a single ±2.0
        // or subnormal entry (few set bits, so the row's zero test must
        // look at all of them), accumulated onto entries that start at
        // -0.0 or random values.
        let mut next = xorshift(0x9e37_79b9);
        let finite = |r: u32| F16::from_f32((r % 4001) as f32 / 500.0 - 4.0);
        let mut acc: WideTile = [[-0.0; TILE_DIM]; TILE_DIM];
        for v in acc.iter_mut().skip(16).flatten() {
            *v = finite(next()).to_f32() * 100.0;
        }
        for round in 0..3 {
            let mut act: [[F16; TILE_DIM]; TILE_DIM] = std::array::from_fn(|_| {
                std::array::from_fn(|_| {
                    let r = next();
                    match r % 8 {
                        0 => F16::ZERO,
                        1 => F16::NEG_ZERO,
                        _ => finite(r >> 3),
                    }
                })
            });
            act[7 * round + 3] = std::array::from_fn(|_| F16(next() as u16 & F16::NEG_ZERO.0));
            act[7 * round + 4] = act[7 * round + 3];
            act[7 * round + 4][5 * round] = [F16(0xc000), F16(0x4000), F16::MIN_SUBNORMAL][round];
            let wgt = std::array::from_fn(|_| std::array::from_fn(|_| finite(next())));
            acc = assert_mac_is_naive(&acc, &act, &wgt);
        }
    }

    #[test]
    fn zero_activations_skip_infinite_and_nan_weights() {
        // Weight rows 0 and 1 are Inf and NaN. Activation row 0 is all ±0;
        // rows 1.. have ±0 only in columns 0 and 1, so every product that
        // touches a non-finite weight is skipped.
        let mut wgt = seq_tile(0.25);
        wgt[0] = [F16::INFINITY; TILE_DIM];
        wgt[1] = [F16::NAN; TILE_DIM];
        let mut act = seq_tile(0.5);
        act[0] = std::array::from_fn(|k| if k % 2 == 0 { F16::ZERO } else { F16::NEG_ZERO });
        for row in act.iter_mut().skip(1) {
            row[0] = F16::NEG_ZERO;
            row[1] = F16::ZERO;
        }
        let acc = assert_mac_is_naive(&[[-0.0; TILE_DIM]; TILE_DIM], &act, &wgt);
        assert!(acc[0].iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert!(acc.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn mac_matches_reference_matmul() {
        let a = seq_tile(1.0);
        let b = seq_tile(-2.0);
        let mut acc = HmxAccumulator::new();
        acc.mac(&a, &b);
        // Reference: plain f32 triple loop.
        for i in [0usize, 7, 31] {
            for j in [0usize, 13, 31] {
                let mut expect = 0.0f32;
                for k in 0..TILE_DIM {
                    expect += a[i][k].to_f32() * b[k][j].to_f32();
                }
                assert!((acc.0[i][j] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn accumulator_accumulates_across_macs() {
        let a = seq_tile(1.0);
        let b = seq_tile(0.0);
        let mut acc1 = HmxAccumulator::new();
        acc1.mac(&a, &b);
        acc1.mac(&a, &b);
        let mut acc2 = HmxAccumulator::new();
        acc2.mac(&a, &b);
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                assert!((acc1.0[i][j] - 2.0 * acc2.0[i][j]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn writeback_scale_and_bias_per_column() {
        let mut acc = HmxAccumulator::new();
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                acc.0[i][j] = 1.0;
            }
        }
        let mut scale = [1.0f32; TILE_DIM];
        scale[3] = 2.0;
        let mut bias = [0.0f32; TILE_DIM];
        bias[5] = -4.0;
        let tile = acc.to_tile(Some(&scale), Some(&bias));
        assert_eq!(tile[0][0].to_f32(), 1.0);
        assert_eq!(tile[9][3].to_f32(), 2.0);
        assert_eq!(tile[9][5].to_f32(), -3.0);
    }

    #[test]
    fn clear_resets() {
        let mut acc = HmxAccumulator::new();
        acc.0[1][1] = 5.0;
        acc.clear();
        assert_eq!(acc.0[1][1], 0.0);
    }
}
