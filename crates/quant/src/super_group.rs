//! Super-group coalescing: repacking eight Q4_0 groups so that 256 INT4
//! values fill one 128-byte HVX register (paper Section 5.1.2, Figure 7).
//!
//! A single 18-byte Q4_0 group is far smaller than a 128-byte vector
//! register, so loading groups one by one wastes memory bandwidth and burns
//! instructions merging partial registers. The paper's fix: coalesce 8
//! groups into a *super-block* whose first 128 bytes are the concatenated
//! INT4 codes of 256 consecutive elements — exactly one register — followed
//! by the 8 FP16 scales (16 bytes). The AoS flavor is preserved (quants and
//! scales stay adjacent) because NPU prefetch favors large regular blocks
//! over separate arrays (Section 5.1.2).

use hexsim::f16::F16;

use crate::block::{BlockQ4_0, BlockQ8_0, GROUP_SIZE};

/// Q4_0 groups per super-block.
const GROUPS_PER_SUPER: usize = 8;
/// Elements per super-block (256).
pub const SUPER_ELEMS: usize = GROUPS_PER_SUPER * GROUP_SIZE;
/// Serialized size of a Q4 super-block: 128 B quants + 16 B scales.
pub const SUPER_Q4_BYTES: usize = 144;
/// Serialized size of a Q8 super-block: 256 B quants + 16 B scales.
pub const SUPER_Q8_BYTES: usize = 272;

/// Eight coalesced Q4_0 groups: one full HVX register of INT4 codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperBlockQ4 {
    /// 256 4-bit codes, two per byte, element `2i`/`2i+1` in byte `i`.
    pub quants: [u8; 128],
    /// The eight group scales, in group order.
    pub scales: [F16; GROUPS_PER_SUPER],
}

impl SuperBlockQ4 {
    /// Coalesces eight consecutive Q4_0 blocks.
    pub fn from_blocks(blocks: &[BlockQ4_0; GROUPS_PER_SUPER]) -> Self {
        let mut quants = [0u8; 128];
        let mut scales = [F16::ZERO; GROUPS_PER_SUPER];
        for (g, block) in blocks.iter().enumerate() {
            quants[g * 16..(g + 1) * 16].copy_from_slice(&block.quants);
            scales[g] = block.scale;
        }
        SuperBlockQ4 { quants, scales }
    }

    /// Splits back into the eight original blocks.
    pub fn to_blocks(&self) -> [BlockQ4_0; GROUPS_PER_SUPER] {
        std::array::from_fn(|g| {
            let mut q = [0u8; 16];
            q.copy_from_slice(&self.quants[g * 16..(g + 1) * 16]);
            BlockQ4_0 {
                scale: self.scales[g],
                quants: q,
            }
        })
    }

    /// Serializes to the 144-byte wire format (quants register then scales).
    pub fn to_bytes(&self) -> [u8; SUPER_Q4_BYTES] {
        let mut out = [0u8; SUPER_Q4_BYTES];
        out[..128].copy_from_slice(&self.quants);
        for (g, s) in self.scales.iter().enumerate() {
            out[128 + 2 * g..130 + 2 * g].copy_from_slice(&s.0.to_le_bytes());
        }
        out
    }

    /// Deserializes from the 144-byte wire format.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than 144 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut quants = [0u8; 128];
        quants.copy_from_slice(&bytes[..128]);
        let scales = std::array::from_fn(|g| {
            F16(u16::from_le_bytes([bytes[128 + 2 * g], bytes[129 + 2 * g]]))
        });
        SuperBlockQ4 { quants, scales }
    }

    /// Dequantizes all 256 elements (reference path, f32).
    pub fn dequantize(&self) -> Vec<f32> {
        self.to_blocks()
            .iter()
            .flat_map(|b| b.dequantize())
            .collect()
    }
}

/// Eight coalesced Q8_0 groups: two HVX registers of INT8 codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperBlockQ8 {
    /// 256 signed 8-bit codes.
    pub quants: [i8; SUPER_ELEMS],
    /// The eight group scales, in group order.
    pub scales: [F16; GROUPS_PER_SUPER],
}

impl SuperBlockQ8 {
    /// Coalesces eight consecutive Q8_0 blocks.
    pub fn from_blocks(blocks: &[BlockQ8_0; GROUPS_PER_SUPER]) -> Self {
        let mut quants = [0i8; SUPER_ELEMS];
        let mut scales = [F16::ZERO; GROUPS_PER_SUPER];
        for (g, block) in blocks.iter().enumerate() {
            quants[g * GROUP_SIZE..(g + 1) * GROUP_SIZE].copy_from_slice(&block.quants);
            scales[g] = block.scale;
        }
        SuperBlockQ8 { quants, scales }
    }

    /// Serializes to the 272-byte wire format.
    pub fn to_bytes(&self) -> [u8; SUPER_Q8_BYTES] {
        let mut out = [0u8; SUPER_Q8_BYTES];
        for (i, &q) in self.quants.iter().enumerate() {
            out[i] = q as u8;
        }
        for (g, s) in self.scales.iter().enumerate() {
            out[256 + 2 * g..258 + 2 * g].copy_from_slice(&s.0.to_le_bytes());
        }
        out
    }

    /// Deserializes from the 272-byte wire format.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than 272 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let quants = std::array::from_fn(|i| bytes[i] as i8);
        let scales = std::array::from_fn(|g| {
            F16(u16::from_le_bytes([bytes[256 + 2 * g], bytes[257 + 2 * g]]))
        });
        SuperBlockQ8 { quants, scales }
    }

    /// Dequantizes all 256 elements (reference path, f32).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(SUPER_ELEMS);
        for g in 0..GROUPS_PER_SUPER {
            let d = self.scales[g].to_f32();
            for i in 0..GROUP_SIZE {
                out.push(self.quants[g * GROUP_SIZE + i] as f32 * d);
            }
        }
        out
    }
}

/// Repacks a stream of Q4_0 block bytes into super-block bytes.
///
/// The block count must be a multiple of 8 (guaranteed for matrices with
/// dimensions that are multiples of 32 when `k * n >= 256`).
///
/// # Panics
///
/// Panics if `blocks` is not a multiple of eight blocks long.
pub fn coalesce_q4_stream(blocks: &[BlockQ4_0]) -> Vec<u8> {
    assert_eq!(blocks.len() % GROUPS_PER_SUPER, 0);
    let mut out = Vec::with_capacity(blocks.len() / GROUPS_PER_SUPER * SUPER_Q4_BYTES);
    for chunk in blocks.chunks_exact(GROUPS_PER_SUPER) {
        let arr: [BlockQ4_0; GROUPS_PER_SUPER] = std::array::from_fn(|i| chunk[i]);
        out.extend_from_slice(&SuperBlockQ4::from_blocks(&arr).to_bytes());
    }
    out
}

/// Repacks a stream of Q8_0 blocks into super-block bytes.
///
/// # Panics
///
/// Panics if `blocks` is not a multiple of eight blocks long.
pub fn coalesce_q8_stream(blocks: &[BlockQ8_0]) -> Vec<u8> {
    assert_eq!(blocks.len() % GROUPS_PER_SUPER, 0);
    let mut out = Vec::with_capacity(blocks.len() / GROUPS_PER_SUPER * SUPER_Q8_BYTES);
    for chunk in blocks.chunks_exact(GROUPS_PER_SUPER) {
        let arr: [BlockQ8_0; GROUPS_PER_SUPER] = std::array::from_fn(|i| chunk[i]);
        out.extend_from_slice(&SuperBlockQ8::from_blocks(&arr).to_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> [BlockQ4_0; 8] {
        std::array::from_fn(|g| {
            let vals: Vec<f32> = (0..32).map(|i| ((g * 32 + i) as f32).sin() * 2.0).collect();
            BlockQ4_0::quantize(&vals)
        })
    }

    #[test]
    fn quants_fill_exactly_one_register() {
        let sb = SuperBlockQ4::from_blocks(&blocks());
        assert_eq!(sb.quants.len(), hexsim::hvx::HVX_BYTES);
        assert_eq!(std::mem::size_of_val(&sb.quants), 128);
    }

    #[test]
    fn coalesce_roundtrip() {
        let b = blocks();
        let sb = SuperBlockQ4::from_blocks(&b);
        let back = sb.to_blocks();
        assert_eq!(b, back);
    }

    #[test]
    fn wire_roundtrip_q4() {
        let sb = SuperBlockQ4::from_blocks(&blocks());
        let bytes = sb.to_bytes();
        assert_eq!(bytes.len(), SUPER_Q4_BYTES);
        assert_eq!(SuperBlockQ4::from_bytes(&bytes), sb);
    }

    #[test]
    fn super_dequant_matches_blockwise() {
        let b = blocks();
        let sb = SuperBlockQ4::from_blocks(&b);
        let flat: Vec<f32> = b.iter().flat_map(|blk| blk.dequantize()).collect();
        assert_eq!(sb.dequantize(), flat);
    }

    #[test]
    fn q8_super_roundtrip() {
        let b: [BlockQ8_0; 8] = std::array::from_fn(|g| {
            let vals: Vec<f32> = (0..32).map(|i| ((g + i) as f32).cos()).collect();
            BlockQ8_0::quantize(&vals)
        });
        let sb = SuperBlockQ8::from_blocks(&b);
        let bytes = sb.to_bytes();
        assert_eq!(bytes.len(), SUPER_Q8_BYTES);
        let back = SuperBlockQ8::from_bytes(&bytes);
        assert_eq!(back, sb);
        let flat: Vec<f32> = b.iter().flat_map(|blk| blk.dequantize()).collect();
        assert_eq!(sb.dequantize(), flat);
    }

    #[test]
    fn stream_coalescing_sizes() {
        let b = blocks();
        let stream = coalesce_q4_stream(&b);
        assert_eq!(stream.len(), SUPER_Q4_BYTES);
        let many: Vec<BlockQ4_0> = b.iter().cycle().take(32).copied().collect();
        assert_eq!(coalesce_q4_stream(&many).len(), 4 * SUPER_Q4_BYTES);
    }

    #[test]
    fn super_block_overhead_matches_bpw() {
        // 144 bytes / 256 elems = 4.5 bits per weight, same as plain Q4_0.
        let bpw = SUPER_Q4_BYTES as f64 * 8.0 / SUPER_ELEMS as f64;
        assert!((bpw - 4.5).abs() < 1e-12);
    }
}
