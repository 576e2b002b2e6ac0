//! Two-pass text assembler.
//!
//! Syntax is ARM-flavoured. Supported statements:
//!
//! ```text
//! label:                      ; labels (also `label:` inline before code)
//!     mov   r0, #10           ; data processing, imm8/rot4 immediates
//!     adds  r0, r1, r2, lsl #3
//!     mul   r0, r1, r2
//!     mla   r0, r1, r2, r3
//!     ldr   r0, [r1]          ; also [r1, #off] [r1, #off]! [r1], #off
//!     strb  r0, [r1, r2, lsl #2]
//!     ldr   r0, =0xDEADBEEF   ; literal pool (or mov/mvn when encodable)
//!     ldr   r0, =label
//!     push  {r0-r3, lr}       ; stmdb sp!, / ldmia sp!,
//!     pop   {r0-r3, pc}
//!     b     label             ; all condition suffixes: beq, bne, …
//!     bl    func
//!     swi   #0
//!     pfu   3, r0, r1, r2     ; Proteus custom instruction
//!     mcr   c4, r0            ; core -> RFU register file
//!     mrc   r0, c4
//!     ldop  r0, a             ; software-dispatch operand registers
//!     stres r0
//!     retsd
//!     mcro  o1, r0            ; OS access to the operand block
//!     mrco  r0, o1
//!     .word 1234, label       ; data directives
//!     .space 64
//!     .align 8
//!     .org  0x8000            ; set origin (once, before any code)
//! ; comments: `;`, `@` or `//`
//! ```
//!
//! The program counter reads as *current instruction address + 4* in
//! PC-relative addressing (one instruction ahead), and branch offsets are
//! relative to the next instruction; the CPU implements the same
//! convention.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::cond::Cond;
use crate::encode::encode;
use crate::instr::{
    BlockOp, DpOp, Instr, MemOffset, MemOp, Operand2, OperandSel, Shift, ShiftKind,
};
use crate::regs::Reg;

/// An assembled program: contiguous words at an origin address, plus the
/// symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    origin: u32,
    words: Vec<u32>,
    symbols: HashMap<String, u32>,
}

impl Program {
    /// Base address the program expects to be loaded at.
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// The instruction/data words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 4
    }

    /// Address of a label.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All symbols.
    pub fn symbols(&self) -> &HashMap<String, u32> {
        &self.symbols
    }

    /// Overwrite the words from byte address `addr` on with `data`, for
    /// example to fill a `.space` section with generated data.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned or the range does not lie
    /// inside the program.
    #[track_caller]
    pub fn write_words(&mut self, addr: u32, data: &[u32]) {
        assert!(addr.is_multiple_of(4), "write_words: address 0x{addr:08X} is not word-aligned");
        let start = addr.checked_sub(self.origin).map(|off| off as usize / 4);
        let range = start.and_then(|s| Some(s..s.checked_add(data.len())?));
        match range.and_then(|r| self.words.get_mut(r)) {
            Some(slot) => slot.copy_from_slice(data),
            None => panic!(
                "write_words: {} words at 0x{addr:08X} lie outside the program (0x{:08X}, {} words)",
                data.len(),
                self.origin,
                self.words.len()
            ),
        }
    }
}

/// Assembly failure with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, message: message.into() })
}

/// A value that may reference a label.
#[derive(Debug, Clone)]
enum Val {
    Num(u32),
    Label(String),
}

#[derive(Debug, Clone)]
enum Item {
    /// Fully-formed instruction.
    Ready(Instr),
    /// Branch to a label.
    BranchTo { cond: Cond, link: bool, target: String },
    /// `ldr rd, =value` resolved via literal pool (or to mov/mvn late).
    LoadLiteral { cond: Cond, rd: Reg, value: Val },
    /// Raw data word.
    Word(Val),
}

#[derive(Debug)]
struct Line {
    number: usize,
    addr: u32,
    item: Item,
}

/// Assemble source text into a [`Program`].
///
/// # Errors
///
/// [`AsmError`] pinpointing the offending line for syntax errors,
/// unknown mnemonics/labels, out-of-range operands and duplicate labels.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut origin = 0u32;
    let mut origin_set = false;
    let mut addr = 0u32;
    let mut lines: Vec<Line> = Vec::new();
    let mut symbols: HashMap<String, u32> = HashMap::new();
    let mut literals: Vec<(Val, u32)> = Vec::new(); // value, slot address (pass 2)
    let mut pending_literals: Vec<usize> = Vec::new(); // indices into `lines`

    // -------- pass 1: parse, lay out addresses, collect labels ----------
    for (i, raw) in source.lines().enumerate() {
        let number = i + 1;
        let mut text = strip_comment(raw).trim().to_string();
        // Labels (possibly several) at line start.
        while let Some(colon) = find_label(&text) {
            let label = text[..colon].trim().to_string();
            if !is_ident(&label) {
                return err(number, format!("invalid label `{label}`"));
            }
            if symbols.insert(label.clone(), addr).is_some() {
                return err(number, format!("duplicate label `{label}`"));
            }
            text = text[colon + 1..].trim().to_string();
        }
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('.') {
            // Directive.
            let (name, args) = split_first_word(rest);
            match name {
                "org" => {
                    if origin_set || addr != origin {
                        return err(number, ".org must appear once, before any code");
                    }
                    origin = parse_num(args.trim()).ok_or_else(|| AsmError {
                        line: number,
                        message: format!("bad .org value `{args}`"),
                    })?;
                    if !origin.is_multiple_of(4) {
                        return err(number, ".org must be word-aligned");
                    }
                    origin_set = true;
                    addr = origin;
                    // Re-home any labels already defined at the old origin.
                    for v in symbols.values_mut() {
                        *v = origin;
                    }
                }
                "word" => {
                    for part in args.split(',') {
                        let part = part.trim();
                        if part.is_empty() {
                            return err(number, "empty .word operand");
                        }
                        let val = parse_val(part)
                            .ok_or_else(|| AsmError { line: number, message: format!("bad .word `{part}`") })?;
                        lines.push(Line { number, addr, item: Item::Word(val) });
                        addr += 4;
                    }
                }
                "space" => {
                    let n = parse_num(args.trim()).ok_or_else(|| AsmError {
                        line: number,
                        message: format!("bad .space size `{args}`"),
                    })?;
                    if n % 4 != 0 {
                        return err(number, ".space must be a multiple of 4");
                    }
                    for _ in 0..n / 4 {
                        lines.push(Line { number, addr, item: Item::Word(Val::Num(0)) });
                        addr += 4;
                    }
                }
                "align" => {
                    let n = parse_num(args.trim()).unwrap_or(4).max(4);
                    while !addr.is_multiple_of(n) {
                        lines.push(Line { number, addr, item: Item::Word(Val::Num(0)) });
                        addr += 4;
                    }
                }
                _ => return err(number, format!("unknown directive .{name}")),
            }
            continue;
        }
        let item = parse_instruction(number, &text)?;
        if matches!(item, Item::LoadLiteral { .. }) {
            pending_literals.push(lines.len());
        }
        lines.push(Line { number, addr, item });
        addr += 4;
    }

    // -------- literal pool layout ---------------------------------------
    // Decide which `ldr =` become mov/mvn and which need pool slots; pool
    // slots live after the last line, deduplicated by value.
    let mut pool: Vec<(String, u32)> = Vec::new(); // key -> slot addr
    let mut pool_addr = addr;
    for &idx in &pending_literals {
        if let Item::LoadLiteral { value, .. } = &lines[idx].item {
            let needs_pool = match value {
                Val::Num(v) => {
                    Operand2::try_imm(*v).is_none() && Operand2::try_imm(!*v).is_none()
                }
                Val::Label(_) => true,
            };
            if needs_pool {
                let key = val_key(value);
                if !pool.iter().any(|(k, _)| *k == key) {
                    pool.push((key, pool_addr));
                    literals.push((value.clone(), pool_addr));
                    pool_addr += 4;
                }
            }
        }
    }

    // -------- pass 2: resolve and encode ---------------------------------
    let resolve = |val: &Val, line: usize| -> Result<u32, AsmError> {
        match val {
            Val::Num(v) => Ok(*v),
            Val::Label(l) => symbols
                .get(l)
                .copied()
                .ok_or_else(|| AsmError { line, message: format!("undefined label `{l}`") }),
        }
    };

    let mut words: Vec<u32> = Vec::with_capacity(((pool_addr - origin) / 4) as usize);
    for line in &lines {
        let word = match &line.item {
            Item::Ready(i) => encode(*i),
            Item::BranchTo { cond, link, target } => {
                let dest = resolve(&Val::Label(target.clone()), line.number)?;
                let delta = i64::from(dest) - i64::from(line.addr) - 4;
                if delta % 4 != 0 {
                    return err(line.number, "branch target not word-aligned");
                }
                let offset = (delta / 4) as i32;
                if !(-(1 << 22)..(1 << 22)).contains(&offset) {
                    return err(line.number, "branch target out of range");
                }
                encode(Instr::Branch { cond: *cond, link: *link, offset })
            }
            Item::LoadLiteral { cond, rd, value } => {
                let as_mov = match value {
                    Val::Num(v) => Some(*v),
                    Val::Label(_) => None,
                };
                if let Some(v) = as_mov {
                    if let Some(op2) = Operand2::try_imm(v) {
                        words.push(encode(Instr::DataProc {
                            op: DpOp::Mov,
                            cond: *cond,
                            s: false,
                            rd: *rd,
                            rn: Reg::new(0),
                            op2,
                        }));
                        continue;
                    }
                    if let Some(op2) = Operand2::try_imm(!v) {
                        words.push(encode(Instr::DataProc {
                            op: DpOp::Mvn,
                            cond: *cond,
                            s: false,
                            rd: *rd,
                            rn: Reg::new(0),
                            op2,
                        }));
                        continue;
                    }
                }
                let key = val_key(value);
                let slot = pool
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, a)| *a)
                    .expect("literal registered in pass 1");
                // PC reads as addr + 4.
                let pc = line.addr + 4;
                let (up, dist) = if slot >= pc { (true, slot - pc) } else { (false, pc - slot) };
                if dist >= 2048 {
                    return err(line.number, "literal pool out of range (program too large)");
                }
                encode(Instr::Mem {
                    op: MemOp::Ldr,
                    cond: *cond,
                    byte: false,
                    rd: *rd,
                    rn: Reg::PC,
                    offset: MemOffset::Imm(dist as u16),
                    up,
                    pre: true,
                    writeback: false,
                })
            }
            Item::Word(v) => resolve(v, line.number)?,
        };
        words.push(word);
    }
    for (value, _) in &literals {
        let v = resolve(value, 0).map_err(|mut e| {
            e.message = format!("in literal pool: {}", e.message);
            e
        })?;
        words.push(v);
    }
    Ok(Program { origin, words, symbols })
}

// ---------------------------------------------------------------------
// lexical helpers
// ---------------------------------------------------------------------

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, c) in line.char_indices() {
        if c == ';' || c == '@' {
            end = i;
            break;
        }
        if c == '/' && line[i + 1..].starts_with('/') {
            end = i;
            break;
        }
    }
    &line[..end]
}

/// Find a label-terminating colon at line start (before any whitespace-
/// separated mnemonic has begun with operands).
fn find_label(text: &str) -> Option<usize> {
    let colon = text.find(':')?;
    let head = &text[..colon];
    is_ident(head.trim()).then_some(colon)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn split_first_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

fn parse_num(s: &str) -> Option<u32> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = s.strip_prefix("0b") {
        u32::from_str_radix(bin, 2).ok()?
    } else {
        s.parse::<u32>().ok()?
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

fn parse_val(s: &str) -> Option<Val> {
    let s = s.trim();
    if let Some(n) = parse_num(s) {
        Some(Val::Num(n))
    } else if is_ident(s) {
        Some(Val::Label(s.to_string()))
    } else {
        None
    }
}

fn val_key(v: &Val) -> String {
    match v {
        Val::Num(n) => format!("#{n}"),
        Val::Label(l) => format!("@{l}"),
    }
}

// ---------------------------------------------------------------------
// instruction parsing
// ---------------------------------------------------------------------

const DP_MNEMONICS: [(&str, DpOp); 16] = [
    ("and", DpOp::And),
    ("eor", DpOp::Eor),
    ("sub", DpOp::Sub),
    ("rsb", DpOp::Rsb),
    ("add", DpOp::Add),
    ("adc", DpOp::Adc),
    ("sbc", DpOp::Sbc),
    ("rsc", DpOp::Rsc),
    ("tst", DpOp::Tst),
    ("teq", DpOp::Teq),
    ("cmp", DpOp::Cmp),
    ("cmn", DpOp::Cmn),
    ("orr", DpOp::Orr),
    ("mov", DpOp::Mov),
    ("bic", DpOp::Bic),
    ("mvn", DpOp::Mvn),
];

/// Split `suffix` into `(cond, leftover-flags)` accepting both
/// `<cond><flags>` and `<flags><cond>` orders, where every char of the
/// leftover must be in `allowed`.
fn split_suffix(suffix: &str, allowed: &str) -> Option<(Cond, String)> {
    // Try: whole thing is a cond.
    if let Some(c) = Cond::from_suffix(suffix) {
        return Some((c, String::new()));
    }
    // Try cond prefix.
    if suffix.len() >= 2 {
        if let Some(c) = Cond::from_suffix(&suffix[..2]) {
            let rest = &suffix[2..];
            if rest.chars().all(|ch| allowed.contains(ch)) {
                return Some((c, rest.to_string()));
            }
        }
    }
    // Try cond suffix.
    if suffix.len() >= 2 {
        let split = suffix.len() - 2;
        if let Some(c) = Cond::from_suffix(&suffix[split..]) {
            let rest = &suffix[..split];
            if rest.chars().all(|ch| allowed.contains(ch)) {
                return Some((c, rest.to_string()));
            }
        }
    }
    // No cond at all: flags only.
    if suffix.chars().all(|ch| allowed.contains(ch)) {
        return Some((Cond::Al, suffix.to_string()));
    }
    None
}

struct Operands<'a> {
    line: usize,
    parts: Vec<&'a str>,
    next: usize,
}

impl<'a> Operands<'a> {
    fn new(line: usize, text: &'a str) -> Self {
        // Split on commas that are not inside brackets or braces.
        let mut parts = Vec::new();
        let mut depth = 0i32;
        let mut start = 0usize;
        for (i, c) in text.char_indices() {
            match c {
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(text[start..i].trim());
                    start = i + 1;
                }
                _ => {}
            }
        }
        let tail = text[start..].trim();
        if !tail.is_empty() {
            parts.push(tail);
        }
        Self { line, parts, next: 0 }
    }

    fn take(&mut self) -> Result<&'a str, AsmError> {
        let p = self.parts.get(self.next).copied();
        self.next += 1;
        p.ok_or_else(|| AsmError { line: self.line, message: "missing operand".to_string() })
    }

    fn take_reg(&mut self) -> Result<Reg, AsmError> {
        let t = self.take()?;
        Reg::parse(t).ok_or_else(|| AsmError {
            line: self.line,
            message: format!("expected register, found `{t}`"),
        })
    }

    fn remaining(&self) -> usize {
        self.parts.len().saturating_sub(self.next)
    }

    fn finish(&self) -> Result<(), AsmError> {
        if self.remaining() > 0 {
            err(self.line, format!("unexpected operand `{}`", self.parts[self.next]))
        } else {
            Ok(())
        }
    }
}

fn parse_shift(line: usize, parts: &[&str]) -> Result<Shift, AsmError> {
    match parts {
        [] => Ok(Shift::NONE),
        [spec] => {
            let (kind_s, amt_s) = split_first_word(spec);
            let kind = match kind_s {
                "lsl" => ShiftKind::Lsl,
                "lsr" => ShiftKind::Lsr,
                "asr" => ShiftKind::Asr,
                "ror" => ShiftKind::Ror,
                _ => return err(line, format!("unknown shift `{kind_s}`")),
            };
            let amt_s = amt_s
                .strip_prefix('#')
                .ok_or_else(|| AsmError { line, message: "shift amount must be #imm".to_string() })?;
            let amount = parse_num(amt_s)
                .filter(|&a| a < 32)
                .ok_or_else(|| AsmError { line, message: format!("bad shift amount `{amt_s}`") })?;
            Ok(Shift { kind, amount: amount as u8 })
        }
        _ => err(line, "too many shift operands"),
    }
}

fn parse_op2(line: usize, ops: &mut Operands<'_>) -> Result<Operand2, AsmError> {
    let first = ops.take()?;
    if let Some(imm_s) = first.strip_prefix('#') {
        let v = parse_num(imm_s)
            .ok_or_else(|| AsmError { line, message: format!("bad immediate `{imm_s}`") })?;
        return Operand2::try_imm(v).ok_or_else(|| AsmError {
            line,
            message: format!("immediate {v:#x} not encodable as imm8/rot4 (use `ldr rd, =imm`)"),
        });
    }
    let reg = Reg::parse(first)
        .ok_or_else(|| AsmError { line, message: format!("expected register or #imm, found `{first}`") })?;
    let rest: Vec<&str> = (0..ops.remaining()).map(|_| ops.take().expect("counted")).collect();
    let shift = parse_shift(line, &rest)?;
    Ok(Operand2::Reg { reg, shift })
}

fn parse_reglist(line: usize, text: &str) -> Result<u16, AsmError> {
    let inner = text
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| AsmError { line, message: "expected {reglist}".to_string() })?;
    let mut mask = 0u16;
    for part in inner.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once('-') {
            let lo = Reg::parse(lo.trim())
                .ok_or_else(|| AsmError { line, message: format!("bad register `{lo}`") })?;
            let hi = Reg::parse(hi.trim())
                .ok_or_else(|| AsmError { line, message: format!("bad register `{hi}`") })?;
            if lo.index() > hi.index() {
                return err(line, format!("descending range `{part}`"));
            }
            for i in lo.index()..=hi.index() {
                mask |= 1 << i;
            }
        } else {
            let r = Reg::parse(part)
                .ok_or_else(|| AsmError { line, message: format!("bad register `{part}`") })?;
            mask |= 1 << r.index();
        }
    }
    if mask == 0 {
        return err(line, "empty register list");
    }
    Ok(mask)
}

/// Parse `[rn]`, `[rn, #off]`, `[rn, #off]!`, `[rn], #off`,
/// `[rn, rm]`, `[rn, rm, lsl #n]`, `[rn], rm`.
fn parse_address(
    line: usize,
    text: &str,
) -> Result<(Reg, MemOffset, bool, bool, bool), AsmError> {
    let text = text.trim();
    let close = text
        .rfind(']')
        .ok_or_else(|| AsmError { line, message: format!("expected address, found `{text}`") })?;
    if !text.starts_with('[') {
        return err(line, format!("expected address, found `{text}`"));
    }
    let inner = &text[1..close];
    let after = text[close + 1..].trim();
    let inner_parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    let rn = Reg::parse(inner_parts[0])
        .ok_or_else(|| AsmError { line, message: format!("bad base register `{}`", inner_parts[0]) })?;

    let parse_off = |line: usize, parts: &[&str]| -> Result<(MemOffset, bool), AsmError> {
        if parts.is_empty() {
            return Ok((MemOffset::Imm(0), true));
        }
        if let Some(imm_s) = parts[0].strip_prefix('#') {
            if parts.len() > 1 {
                return err(line, "unexpected operand after immediate offset");
            }
            let (up, imm_s) = match imm_s.strip_prefix('-') {
                Some(rest) => (false, rest),
                None => (true, imm_s),
            };
            let v = parse_num(imm_s)
                .filter(|&v| v < 2048)
                .ok_or_else(|| AsmError { line, message: format!("offset `{imm_s}` out of range (0–2047)") })?;
            Ok((MemOffset::Imm(v as u16), up))
        } else {
            let (up, reg_s) = match parts[0].strip_prefix('-') {
                Some(rest) => (false, rest),
                None => (true, parts[0]),
            };
            let rm = Reg::parse(reg_s)
                .ok_or_else(|| AsmError { line, message: format!("bad offset register `{reg_s}`") })?;
            let shift = parse_shift(line, &parts[1..].iter().map(|s| s.trim()).collect::<Vec<_>>().join(", ").split_terminator(", ").collect::<Vec<_>>())?;
            Ok((MemOffset::Reg(rm, shift), up))
        }
    };

    if after.is_empty() || after == "!" {
        // Pre-indexed.
        let (offset, up) = parse_off(line, &inner_parts[1..])?;
        Ok((rn, offset, up, true, after == "!"))
    } else {
        // Post-indexed: `[rn], <off>`.
        let rest = after
            .strip_prefix(',')
            .ok_or_else(|| AsmError { line, message: format!("junk after address: `{after}`") })?
            .trim();
        if inner_parts.len() > 1 {
            return err(line, "post-indexed base must be plain [rn]");
        }
        let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
        let (offset, up) = parse_off(line, &parts)?;
        Ok((rn, offset, up, false, true))
    }
}

fn parse_instruction(line: usize, text: &str) -> Result<Item, AsmError> {
    let (mnemonic, rest) = split_first_word(text);
    let mnemonic = mnemonic.to_ascii_lowercase();
    let mut ops = Operands::new(line, rest);

    // Data processing.
    for (base, op) in DP_MNEMONICS {
        if let Some(suffix) = mnemonic.strip_prefix(base) {
            if let Some((cond, flags)) = split_suffix(suffix, "s") {
                let s = flags.contains('s') || op.is_test();
                let (rd, rn) = if op.is_test() {
                    let rn = ops.take_reg()?;
                    (Reg::new(0), rn)
                } else if op.is_move() {
                    let rd = ops.take_reg()?;
                    (rd, Reg::new(0))
                } else {
                    let rd = ops.take_reg()?;
                    let rn = ops.take_reg()?;
                    (rd, rn)
                };
                let op2 = parse_op2(line, &mut ops)?;
                ops.finish()?;
                return Ok(Item::Ready(Instr::DataProc { op, cond, s, rd, rn, op2 }));
            }
        }
    }

    // Multiply.
    for (base, has_acc) in [("mla", true), ("mul", false)] {
        if let Some(suffix) = mnemonic.strip_prefix(base) {
            if let Some((cond, flags)) = split_suffix(suffix, "s") {
                let rd = ops.take_reg()?;
                let rm = ops.take_reg()?;
                let rs = ops.take_reg()?;
                let acc = if has_acc { Some(ops.take_reg()?) } else { None };
                ops.finish()?;
                return Ok(Item::Ready(Instr::Mul { cond, s: flags.contains('s'), rd, rm, rs, acc }));
            }
        }
    }

    // Push/pop sugar.
    if let Some(suffix) = mnemonic.strip_prefix("push") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let regs = parse_reglist(line, ops.take()?)?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Block {
                op: BlockOp::Stm,
                cond,
                rn: Reg::SP,
                regs,
                before: true,
                up: false,
                writeback: true,
            }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("pop") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let regs = parse_reglist(line, ops.take()?)?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Block {
                op: BlockOp::Ldm,
                cond,
                rn: Reg::SP,
                regs,
                before: false,
                up: true,
                writeback: true,
            }));
        }
    }

    // Block transfers.
    for (base, op) in [("ldm", BlockOp::Ldm), ("stm", BlockOp::Stm)] {
        if let Some(suffix) = mnemonic.strip_prefix(base) {
            // Accept <cond><mode> or <mode><cond>; mode defaults to ia.
            let modes = [("ia", true, false), ("ib", true, true), ("da", false, false), ("db", false, true)];
            let mut found = None;
            for (m, up, before) in modes {
                if let Some(rest2) = suffix.strip_suffix(m) {
                    if let Some(c) = Cond::from_suffix(rest2) {
                        found = Some((c, up, before));
                        break;
                    }
                }
                if let Some(rest2) = suffix.strip_prefix(m) {
                    if let Some(c) = Cond::from_suffix(rest2) {
                        found = Some((c, up, before));
                        break;
                    }
                }
            }
            if found.is_none() {
                if let Some(c) = Cond::from_suffix(suffix) {
                    found = Some((c, true, false));
                }
            }
            if let Some((cond, up, before)) = found {
                let base_spec = ops.take()?;
                let (rn_s, writeback) = match base_spec.strip_suffix('!') {
                    Some(r) => (r.trim(), true),
                    None => (base_spec, false),
                };
                let rn = Reg::parse(rn_s)
                    .ok_or_else(|| AsmError { line, message: format!("bad base `{rn_s}`") })?;
                let regs = parse_reglist(line, ops.take()?)?;
                ops.finish()?;
                return Ok(Item::Ready(Instr::Block { op, cond, rn, regs, before, up, writeback }));
            }
        }
    }

    // Loads/stores (after ldm/stm so `ldmia` does not match `ldr`).
    for (base, op) in [("ldr", MemOp::Ldr), ("str", MemOp::Str)] {
        if let Some(suffix) = mnemonic.strip_prefix(base) {
            if let Some((cond, flags)) = split_suffix(suffix, "b") {
                let byte = flags.contains('b');
                let rd = ops.take_reg()?;
                let addr_text = ops.take()?;
                // `ldr rd, =value` pseudo-instruction.
                if let Some(lit) = addr_text.strip_prefix('=') {
                    if op == MemOp::Str || byte {
                        return err(line, "`=literal` only valid with ldr");
                    }
                    ops.finish()?;
                    let value = parse_val(lit)
                        .ok_or_else(|| AsmError { line, message: format!("bad literal `{lit}`") })?;
                    return Ok(Item::LoadLiteral { cond, rd, value });
                }
                // Re-join any comma-split address pieces.
                let mut full = addr_text.to_string();
                while ops.remaining() > 0 {
                    full.push_str(", ");
                    full.push_str(ops.take()?);
                }
                let (rn, offset, up, pre, writeback) = parse_address(line, &full)?;
                return Ok(Item::Ready(Instr::Mem { op, cond, byte, rd, rn, offset, up, pre, writeback }));
            }
        }
    }

    // SWI.
    if let Some(suffix) = mnemonic.strip_prefix("swi") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let t = ops.take()?;
            let imm_s = t.strip_prefix('#').unwrap_or(t);
            let imm = parse_num(imm_s)
                .filter(|&v| v < 1 << 24)
                .ok_or_else(|| AsmError { line, message: format!("bad swi number `{t}`") })?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Swi { cond, imm }));
        }
    }

    // Proteus coprocessor ops.
    if let Some(suffix) = mnemonic.strip_prefix("pfu") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let cid_s = ops.take()?;
            let cid = parse_num(cid_s.strip_prefix('#').unwrap_or(cid_s))
                .filter(|&v| v < 256)
                .ok_or_else(|| AsmError { line, message: format!("bad CID `{cid_s}`") })?;
            let rd = ops.take_reg()?;
            let rn = ops.take_reg()?;
            let rm = ops.take_reg()?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Pfu { cond, cid: cid as u8, rd, rn, rm }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("mcro") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let field = parse_field(line, ops.take()?, 'o')?;
            let rs = ops.take_reg()?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::McrO { cond, field, rs }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("mrco") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let rd = ops.take_reg()?;
            let field = parse_field(line, ops.take()?, 'o')?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::MrcO { cond, rd, field }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("mcr") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let rfu = parse_field(line, ops.take()?, 'c')?;
            let rs = ops.take_reg()?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Mcr { cond, rfu, rs }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("mrc") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let rd = ops.take_reg()?;
            let rfu = parse_field(line, ops.take()?, 'c')?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::Mrc { cond, rd, rfu }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("ldop") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let rd = ops.take_reg()?;
            let sel = match ops.take()? {
                "a" => OperandSel::A,
                "b" => OperandSel::B,
                other => return err(line, format!("ldop selector must be a or b, found `{other}`")),
            };
            ops.finish()?;
            return Ok(Item::Ready(Instr::LdOp { cond, rd, sel }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("stres") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            let rs = ops.take_reg()?;
            ops.finish()?;
            return Ok(Item::Ready(Instr::StRes { cond, rs }));
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix("retsd") {
        if let Some((cond, _)) = split_suffix(suffix, "") {
            ops.finish()?;
            return Ok(Item::Ready(Instr::RetSd { cond }));
        }
    }

    // Branches last: `b`/`bl` prefixes collide with nothing by now.
    if let Some(suffix) = mnemonic.strip_prefix("bl") {
        if let Some(cond) = Cond::from_suffix(suffix) {
            let target = ops.take()?;
            ops.finish()?;
            if !is_ident(target) {
                return err(line, format!("bad branch target `{target}`"));
            }
            return Ok(Item::BranchTo { cond, link: true, target: target.to_string() });
        }
    }
    if let Some(suffix) = mnemonic.strip_prefix('b') {
        if let Some(cond) = Cond::from_suffix(suffix) {
            let target = ops.take()?;
            ops.finish()?;
            if !is_ident(target) {
                return err(line, format!("bad branch target `{target}`"));
            }
            return Ok(Item::BranchTo { cond, link: false, target: target.to_string() });
        }
    }

    err(line, format!("unknown mnemonic `{mnemonic}`"))
}

fn parse_field(line: usize, text: &str, prefix: char) -> Result<u8, AsmError> {
    let body = text
        .strip_prefix(prefix)
        .ok_or_else(|| AsmError { line, message: format!("expected {prefix}<n>, found `{text}`") })?;
    parse_num(body)
        .filter(|&v| v < 16)
        .map(|v| v as u8)
        .ok_or_else(|| AsmError { line, message: format!("bad index `{text}`") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn asm(src: &str) -> Program {
        assemble(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn basic_program_assembles() {
        let p = asm("start: mov r0, #1\n add r1, r0, #2\n swi #0\n");
        assert_eq!(p.words().len(), 3);
        assert_eq!(p.symbol("start"), Some(0));
        assert_eq!(decode(p.words()[0]).expect("decode").to_string(), "mov r0, #1");
    }

    #[test]
    fn branch_targets_resolve() {
        let p = asm("loop: subs r0, r0, #1\n bne loop\n swi #0\n");
        let i = decode(p.words()[1]).expect("decode");
        assert!(matches!(i, Instr::Branch { offset: -2, link: false, .. }));
    }

    #[test]
    fn forward_branch_resolves() {
        let p = asm("b end\n mov r0, #0\nend: swi #0\n");
        let i = decode(p.words()[0]).expect("decode");
        assert!(matches!(i, Instr::Branch { offset: 1, .. }));
    }

    #[test]
    fn literal_pool_for_large_constants() {
        let p = asm("ldr r0, =0x12345678\n swi #0\n");
        assert_eq!(p.words().len(), 3, "ldr + swi + pool slot");
        assert_eq!(p.words()[2], 0x1234_5678);
        // ldr r0, [pc, #off]: pc = 0 + 4, slot at 8 -> off 4.
        let i = decode(p.words()[0]).expect("decode");
        match i {
            Instr::Mem { op: MemOp::Ldr, rn, offset: MemOffset::Imm(4), up: true, .. } => {
                assert_eq!(rn, Reg::PC);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn small_literal_becomes_mov() {
        let p = asm("ldr r0, =255\n");
        assert_eq!(p.words().len(), 1);
        assert_eq!(decode(p.words()[0]).expect("decode").to_string(), "mov r0, #255");
    }

    #[test]
    fn inverted_literal_becomes_mvn() {
        let p = asm("ldr r0, =0xFFFFFFFF\n");
        assert_eq!(p.words().len(), 1);
        assert!(matches!(
            decode(p.words()[0]).expect("decode"),
            Instr::DataProc { op: DpOp::Mvn, .. }
        ));
    }

    #[test]
    fn label_literal_uses_pool() {
        let p = asm("ldr r0, =data\n swi #0\ndata: .word 99\n");
        // words: ldr, swi, data(99), pool(addr of data = 8)
        assert_eq!(p.words().len(), 4);
        assert_eq!(p.words()[2], 99);
        assert_eq!(p.words()[3], 8);
    }

    #[test]
    fn push_pop_sugar() {
        let p = asm("push {r0-r2, lr}\n pop {r0-r2, pc}\n");
        match decode(p.words()[0]).expect("decode") {
            Instr::Block { op: BlockOp::Stm, rn, regs, before: true, up: false, writeback: true, .. } => {
                assert_eq!(rn, Reg::SP);
                assert_eq!(regs, 0b0100_0000_0000_0111);
            }
            other => panic!("unexpected {other}"),
        }
        match decode(p.words()[1]).expect("decode") {
            Instr::Block { op: BlockOp::Ldm, regs, before: false, up: true, writeback: true, .. } => {
                assert_eq!(regs, 0b1000_0000_0000_0111);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn addressing_modes_parse() {
        let p = asm(
            "ldr r0, [r1]\n\
             ldr r0, [r1, #8]\n\
             ldr r0, [r1, #-8]\n\
             ldr r0, [r1, #8]!\n\
             ldr r0, [r1], #8\n\
             ldrb r0, [r1, r2]\n\
             str r0, [r1, r2, lsl #2]\n",
        );
        let texts: Vec<String> =
            p.words().iter().map(|&w| decode(w).expect("decode").to_string()).collect();
        assert_eq!(texts[0], "ldr r0, [r1]");
        assert_eq!(texts[1], "ldr r0, [r1, #8]");
        assert_eq!(texts[2], "ldr r0, [r1, #-8]");
        assert_eq!(texts[3], "ldr r0, [r1, #8]!");
        assert_eq!(texts[4], "ldr r0, [r1], #8");
        assert_eq!(texts[5], "ldrb r0, [r1, r2]");
        assert_eq!(texts[6], "str r0, [r1, r2, lsl #2]");
    }

    #[test]
    fn proteus_ops_assemble() {
        let p = asm("pfu 3, r0, r1, r2\n mcr c4, r0\n mrc r0, c4\n ldop r0, a\n stres r1\n retsd\n mcro o2, r3\n mrco r3, o2\n");
        let texts: Vec<String> =
            p.words().iter().map(|&w| decode(w).expect("decode").to_string()).collect();
        assert_eq!(texts[0], "pfu 3, r0, r1, r2");
        assert_eq!(texts[1], "mcr c4, r0");
        assert_eq!(texts[2], "mrc r0, c4");
        assert_eq!(texts[3], "ldop r0, a");
        assert_eq!(texts[4], "stres r1");
        assert_eq!(texts[5], "retsd");
        assert_eq!(texts[6], "mcro o2, r3");
        assert_eq!(texts[7], "mrco r3, o2");
    }

    #[test]
    fn cond_suffixes_parse_in_both_positions() {
        let p = asm("addeqs r0, r0, #1\n addseq r0, r0, #1\n ldrneb r0, [r1]\n ldrbne r0, [r1]\n");
        for &w in p.words() {
            let i = decode(w).expect("decode");
            assert_ne!(i.cond(), Cond::Al);
        }
    }

    #[test]
    fn org_directive_rebases() {
        let p = asm(".org 0x8000\nentry: b entry\n");
        assert_eq!(p.origin(), 0x8000);
        assert_eq!(p.symbol("entry"), Some(0x8000));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("mov r0, #1\n bogus r1\n").expect_err("should fail");
        assert_eq!(e.line, 2);
        let e = assemble("mov r0, #0x101\n").expect_err("imm not encodable");
        assert!(e.message.contains("not encodable"));
        let e = assemble("x: mov r0, #1\nx: mov r1, #1\n").expect_err("dup label");
        assert!(e.message.contains("duplicate"));
        let e = assemble("b nowhere\n").expect_err("undefined label");
        assert!(e.message.contains("undefined"));
    }

    #[test]
    fn word_directive_with_labels_and_numbers() {
        let p = asm("v: .word 1, 2, v\n");
        assert_eq!(p.words(), &[1, 2, 0]);
    }

    #[test]
    fn space_and_align() {
        let p = asm("mov r0, #0\n.align 16\nbuf: .space 8\nafter: mov r1, #0\n");
        assert_eq!(p.symbol("buf"), Some(16));
        assert_eq!(p.symbol("after"), Some(24));
    }

    #[test]
    fn write_words_fills_a_space_section() {
        let mut p = asm(".org 0x100\nmov r0, #0\nbuf: .space 8\nafter: mov r1, #0\n");
        let before = p.words().to_vec();
        p.write_words(0x104, &[7, 9]);
        assert_eq!(p.words()[1..3], [7, 9]);
        assert_eq!(p.words()[0], before[0]);
        assert_eq!(p.words()[3], before[3]);
        p.write_words(0x110, &[]);
        assert_eq!(p.words().len(), 4);
    }

    #[test]
    fn write_words_rejects_out_of_range_and_misaligned() {
        let p = asm(".org 0x100\nbuf: .space 8\n");
        for (addr, len) in [(0xFC, 1), (0x100, 3), (0x108, 1), (0x102, 1), (u32::MAX - 3, 1)] {
            let mut q = p.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.write_words(addr, &vec![1; len]);
            }));
            assert!(r.is_err(), "write of {len} words at 0x{addr:X} accepted");
            assert_eq!(q, p, "a rejected write left the program as it was");
        }
    }
}
