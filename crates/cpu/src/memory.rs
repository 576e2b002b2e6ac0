//! Flat byte-addressable memory.
//!
//! Each guest process owns one [`Memory`] — the substitution for the
//! workstation's virtual memory (see DESIGN.md). Word accesses must be
//! aligned, as on ARM7.

use std::error::Error;
use std::fmt;

use proteus_isa::{decode, Program};

use crate::op::Op;

/// Words of low memory covered by the compiled-op cache (1 MiB of program
/// text — guest code lives at low addresses by convention).
const OP_WORDS: usize = 1 << 18;

/// Memory access failure. The CPU turns these into a data-abort stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address past the end of memory.
    OutOfRange {
        /// Faulting address.
        addr: u32,
        /// Memory size in bytes.
        size: u32,
    },
    /// Misaligned word access.
    Unaligned {
        /// Faulting address.
        addr: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "address {addr:#010x} outside {size}-byte memory")
            }
            MemError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#010x}"),
        }
    }
}

impl Error for MemError {}

/// A private, flat address space.
///
/// Carries one compiled [`Op`] per word of low memory so the interpreter
/// compiles each instruction once, on its first execution; any store into
/// a word resets its op, and a fused op that reads the word, to
/// [`Op::Empty`] (self-modifying code stays correct).
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    ops: Vec<Op>,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Memory {}

impl Memory {
    /// Allocate `size` zeroed bytes. POrSCHE sizes a process's memory to
    /// its image plus a fixed stack reserve (`porsche::kernel::STACK_BYTES`).
    ///
    /// The op array starts empty and grows on demand, up to the low 1 MiB
    /// of program text, to the words the program actually executes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 4.
    pub fn new(size: u32) -> Self {
        assert!(size.is_multiple_of(4), "memory size must be word-aligned");
        Self { bytes: vec![0; size as usize], ops: Vec::new() }
    }

    /// Highest word index the op array may grow to cover.
    #[inline]
    fn op_limit(&self) -> usize {
        (self.bytes.len() / 4).min(OP_WORDS)
    }

    /// The compiled op for the instruction at `pc`: [`Op::Empty`] for an
    /// aligned word of the compiled text that [`Memory::compile`] has
    /// not (or no longer) seen, [`Op::Fetch`] for any address the array
    /// does not cover.
    #[inline(always)]
    pub(crate) fn op(&self, pc: u32) -> &Op {
        // Rotating moves a misaligned PC's low bits to the top, so one
        // bounds check also rejects it.
        let idx = pc.rotate_right(2) as usize;
        match self.ops.get(idx) {
            Some(op) => op,
            None => self.uncovered(idx),
        }
    }

    /// [`Memory::op`] for a rotated PC outside the op array.
    #[cold]
    fn uncovered(&self, idx: usize) -> &'static Op {
        if idx < self.op_limit() {
            &Op::Empty
        } else {
            &Op::Fetch
        }
    }

    /// Compile the word at `pc`, for which [`Memory::op`] returned
    /// [`Op::Empty`], into its slot: afterwards `op(pc)` is never
    /// `Empty`. An undecodable word compiles to [`Op::Fetch`]. A `subs`
    /// that [`Op::fuse`] pairs with the word after it compiles to the
    /// fused op, and the array then covers that second word too, so a
    /// store into it finds the slot before it (see [`Memory::reset_op`]).
    #[cold]
    #[inline(never)]
    pub(crate) fn compile(&mut self, pc: u32) {
        let idx = (pc / 4) as usize;
        debug_assert!(pc.is_multiple_of(4) && idx < self.op_limit(), "no op slot for {pc:#x}");
        let word = self.read_word(pc).expect("op slots cover only readable words");
        let mut op = decode(word).map_or(Op::Fetch, |instr| Op::compile(pc, instr));
        let mut len = idx + 1;
        if idx + 1 < self.op_limit() {
            let next = self.read_word(pc + 4).ok().and_then(|w| decode(w).ok());
            if let Some(fused) = next.and_then(|next| op.fuse(next)) {
                op = fused;
                len = idx + 2;
            }
        }
        if len > self.ops.len() {
            self.ops.resize(len, Op::Empty);
        }
        self.ops[idx] = op;
    }

    /// Reset the op of word `w` after a store into it, and the fused op
    /// of the word before it, which reads `w` as its second word.
    #[inline(always)]
    fn reset_op(&mut self, w: usize) {
        if w < self.ops.len() {
            self.ops[w] = Op::Empty;
            if w > 0 && matches!(self.ops[w - 1], Op::SubsBranch { .. }) {
                self.ops[w - 1] = Op::Empty;
            }
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline(always)]
    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let end = addr.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(_) => Ok(addr as usize),
            None => Err(MemError::OutOfRange { addr, size: self.size() }),
        }
    }

    /// Read an aligned word.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] or [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        match self.bytes.get(addr as usize..).and_then(<[u8]>::first_chunk) {
            Some(&word) => Ok(u32::from_le_bytes(word)),
            None => Err(MemError::OutOfRange { addr, size: self.size() }),
        }
    }

    /// Write an aligned word.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] or [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        match self.bytes.get_mut(addr as usize..).and_then(<[u8]>::first_chunk_mut) {
            Some(word) => *word = value.to_le_bytes(),
            None => return Err(MemError::OutOfRange { addr, size: self.size() }),
        }
        self.reset_op(addr as usize / 4);
        Ok(())
    }

    /// Read a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_byte(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Write a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        self.reset_op(i / 4);
        Ok(())
    }

    /// Copy a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, data.len() as u32)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        for w in i / 4..(i + data.len()).div_ceil(4) {
            self.reset_op(w);
        }
        Ok(())
    }

    /// Load an assembled [`Program`] at its origin address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the program does not fit.
    pub fn load_program(&mut self, program: &Program) -> Result<(), MemError> {
        let mut addr = program.origin();
        for &w in program.words() {
            self.write_word(addr, w)?;
            addr += 4;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = Memory::new(64);
        m.write_word(8, 0xDEAD_BEEF).expect("write");
        assert_eq!(m.read_word(8).expect("read"), 0xDEAD_BEEF);
        assert_eq!(m.read_byte(8).expect("byte"), 0xEF, "little endian");
    }

    #[test]
    fn alignment_enforced() {
        let m = Memory::new(64);
        assert!(matches!(m.read_word(2), Err(MemError::Unaligned { addr: 2 })));
    }

    #[test]
    fn bounds_enforced() {
        let mut m = Memory::new(8);
        assert!(m.read_word(8).is_err());
        assert!(m.write_word(u32::MAX - 2, 0).is_err());
        assert!(m.write_bytes(6, &[1, 2, 3]).is_err());
    }

    #[test]
    fn store_resets_the_compiled_op() {
        let p = proteus_isa::assemble("mov r0, #1\n swi #3\n .word 0xFFFFFFFF\n").expect("asm");
        let mut m = Memory::new(1024);
        m.load_program(&p).expect("load");
        assert_eq!(*m.op(0), Op::Empty, "nothing is compiled before its first execution");
        m.compile(0);
        assert_eq!(*m.op(0), Op::MovImm { rd: 0, imm: 1 });
        // A generic op keeps only the condition, an undecodable word
        // compiles to the reference fetch.
        m.compile(4);
        assert_eq!(*m.op(4), Op::Generic { cond: proteus_isa::Cond::Al });
        m.compile(8);
        assert_eq!(*m.op(8), Op::Fetch);
        // Word, byte and slice stores reset the ops they touch, and only
        // those.
        m.write_word(0, 0).expect("write");
        assert_eq!(*m.op(0), Op::Empty);
        assert_ne!(*m.op(4), Op::Empty);
        m.write_byte(7, 0xEF).expect("write");
        assert_eq!(*m.op(4), Op::Empty);
        m.write_bytes(10, &[0]).expect("write");
        assert_eq!(*m.op(8), Op::Empty);
        // Unaligned and uncovered addresses take the reference fetch.
        assert_eq!(*m.op(2), Op::Fetch);
        assert_eq!(*m.op(1024), Op::Fetch);
    }

    #[test]
    fn program_loads_at_origin() {
        let p = proteus_isa::assemble(".org 0x100\n mov r0, #1\n").expect("asm");
        let mut m = Memory::new(0x200);
        m.load_program(&p).expect("load");
        assert_ne!(m.read_word(0x100).expect("read"), 0);
        assert_eq!(m.read_word(0).expect("read"), 0);
    }
}
