//! Deterministic byte-level tokenizer for the synthetic math workloads.
//!
//! Real subword tokenizers are checkpoint artifacts; this reproduction's
//! workloads are synthetic ASCII math, so a byte-level vocabulary with a
//! handful of special tokens is faithful to the throughput picture (one
//! token per byte) and keeps everything dependency-free and reversible.
//!
//! Ids below the first byte token are control tokens: BOS (0) and the
//! reasoning-step separator (2, decoded as `'\n'`); decoding drops the
//! others. End of sequence is not the tokenizer's call: a serving loop
//! takes its EOS predicate from the caller (see
//! `ttscale::llm_policy::llm_serve_eos`).

/// Beginning-of-sequence token id.
const BOS: u32 = 0;
/// Separator between reasoning steps (maps to '\n').
const STEP_SEP: u32 = 2;
/// First byte token id (byte `b` encodes as `BYTE_BASE + b`).
const BYTE_BASE: u32 = 4;

/// Byte-level tokenizer with reserved control ids.
#[derive(Clone, Debug, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Tokenizer
    }

    /// Encodes text to token ids (no BOS/EOS added).
    fn encode(&self, text: &str) -> Vec<u32> {
        text.bytes()
            .map(|b| {
                if b == b'\n' {
                    STEP_SEP
                } else {
                    BYTE_BASE + b as u32
                }
            })
            .collect()
    }

    /// Encodes with BOS prepended.
    pub fn encode_with_bos(&self, text: &str) -> Vec<u32> {
        let mut out = vec![BOS];
        out.extend(self.encode(text));
        out
    }

    /// Decodes token ids back to text; control tokens other than the step
    /// separator are dropped.
    pub fn decode(&self, tokens: &[u32]) -> String {
        let mut bytes = Vec::with_capacity(tokens.len());
        for &t in tokens {
            if t == STEP_SEP {
                bytes.push(b'\n');
            } else if (BYTE_BASE..BYTE_BASE + 256).contains(&t) {
                bytes.push((t - BYTE_BASE) as u8);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ascii() {
        let t = Tokenizer::new();
        let text = "compute 17 * 3 + 4 = 55";
        assert_eq!(t.decode(&t.encode(text)), text);
    }

    #[test]
    fn newline_maps_to_step_separator() {
        let t = Tokenizer::new();
        let toks = t.encode("a\nb");
        assert_eq!(toks[1], STEP_SEP);
        assert_eq!(t.decode(&toks), "a\nb");
    }

    #[test]
    fn bos_and_eos_are_control() {
        let t = Tokenizer::new();
        let toks = t.encode_with_bos("x");
        assert_eq!(toks[0], BOS);
        assert_eq!(t.decode(&toks), "x");
        assert_eq!(t.decode(&[1, BYTE_BASE + b'x' as u32, 1]), "x");
    }

    #[test]
    fn vocab_covers_all_bytes() {
        let t = Tokenizer::new();
        let all: Vec<u8> = (0u8..=255).collect();
        let text: String = String::from_utf8_lossy(&all).into_owned();
        let decoded = t.decode(&t.encode(&text));
        // Lossy UTF-8 round trip must at least preserve ASCII.
        assert!(decoded.contains('A'));
    }
}
