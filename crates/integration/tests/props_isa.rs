//! Property tests over the instruction set: encoding, decoding and the
//! assembler agree with each other on the entire instruction space.

mod isa_gen;

use isa_gen::arb_instr;
use proptest::prelude::*;
use proteus_isa::{assemble, decode, encode, Instr, Operand2};

proptest! {
    /// encode ∘ decode = identity over the full instruction space.
    #[test]
    fn encode_decode_roundtrip(instr in arb_instr()) {
        let word = encode(instr);
        let back = decode(word).expect("encoded instructions decode");
        prop_assert_eq!(back, instr);
    }

    /// Disassembly re-assembles to the identical word (for everything
    /// except branches, whose text form is PC-relative).
    #[test]
    fn disassembly_reassembles(instr in arb_instr()) {
        if matches!(instr, Instr::Branch { .. }) {
            return Ok(());
        }
        let word = encode(instr);
        let text = instr.to_string();
        let program = assemble(&text).map_err(|e| {
            TestCaseError::fail(format!("`{text}` failed to assemble: {e}"))
        })?;
        prop_assert_eq!(program.words(), &[word], "text was `{}`", text);
    }

    /// Arbitrary words either decode to something re-encodable or fault.
    #[test]
    fn decode_is_total_and_consistent(word in any::<u32>()) {
        if let Ok(instr) = decode(word) {
            let re = encode(instr);
            let back = decode(re).expect("re-encoded decodes");
            prop_assert_eq!(back, instr);
        }
    }

    /// imm8/rot4 encodability is preserved exactly.
    #[test]
    fn operand2_imm_value_consistent(value in any::<u8>(), rot in 0u8..16) {
        let v = Operand2::imm_value(value, rot);
        let found = Operand2::try_imm(v).expect("representable value must encode");
        if let Operand2::Imm { value: v2, rot: r2 } = found {
            prop_assert_eq!(Operand2::imm_value(v2, r2), v);
        } else {
            prop_assert!(false, "try_imm returned a register operand");
        }
    }
}
