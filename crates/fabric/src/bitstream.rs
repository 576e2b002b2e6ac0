//! Bitstream format with separate static and state sections.
//!
//! The paper (§4.1) requires the configuration to be split so that only the
//! state of CLB registers moves when a resident circuit's context is
//! swapped. We model a Virtex-like *full-frame* format: the static section
//! always covers every CLB of the fabric (so a 500-CLB PFU configuration is
//! always [`CONFIG_BYTES_PER_CLB`] × 500 = 54 000 bytes ≈ the paper's
//! 54 KB figure, independent of how much of the PFU the circuit uses),
//! while the state section packs one register bit per CLB.
//!
//! The format is fully serialisable: [`Bitstream::to_words`] /
//! [`Bitstream::from_words`] round-trip, and [`crate::device::Device`]
//! executes circuits from the decoded form only.

use crate::error::FabricError;
use crate::netlist::{Netlist, Node, NodeId, Port};
use crate::place::{FabricDims, Placement, SourceRef};

/// Static configuration bytes per CLB. 16-bit LUT truth table, four
/// LUT-pin routing selectors, the register's data-source selector and
/// Virtex-style frame padding: 27 words = 108 bytes. 500 CLBs → 54 000
/// bytes, matching the paper's "54 Kbytes … for a configuration".
pub const CONFIG_BYTES_PER_CLB: usize = 108;

/// Words per CLB in the static section.
pub const WORDS_PER_CLB: usize = CONFIG_BYTES_PER_CLB / 4;

/// Magic word opening a serialised bitstream (`"PFPL"`).
pub const MAGIC: u32 = 0x5046_504C;

/// Encoded routing-mux selector. See [`SourceRef`] for the decoded form.
pub type Selector = u32;

const TAG_CONST: u32 = 0;
const TAG_PORT: u32 = 1;
const TAG_LUT: u32 = 2;
const TAG_DFF: u32 = 3;

/// Encode a [`SourceRef`] into a routing-mux selector word.
pub fn encode_source(src: SourceRef) -> Selector {
    match src {
        SourceRef::Const(v) => (TAG_CONST << 28) | u32::from(v),
        SourceRef::Port(port, bit) => (TAG_PORT << 28) | (u32::from(port) << 16) | u32::from(bit),
        SourceRef::ClbLut(clb) => (TAG_LUT << 28) | u32::from(clb),
        SourceRef::ClbDff(clb) => (TAG_DFF << 28) | u32::from(clb),
    }
}

/// Decode a selector word.
///
/// # Errors
///
/// [`FabricError::MalformedBitstream`] on an unknown tag.
pub fn decode_source(sel: Selector) -> Result<SourceRef, FabricError> {
    match sel >> 28 {
        TAG_CONST => Ok(SourceRef::Const(sel & 1 == 1)),
        TAG_PORT => Ok(SourceRef::Port(((sel >> 16) & 0x0FFF) as u16, (sel & 0xFFFF) as u16)),
        TAG_LUT => Ok(SourceRef::ClbLut((sel & 0xFFFF) as u16)),
        TAG_DFF => Ok(SourceRef::ClbDff((sel & 0xFFFF) as u16)),
        tag => Err(FabricError::MalformedBitstream { detail: format!("unknown selector tag {tag}") }),
    }
}

/// Static configuration of one CLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClbStatic {
    /// Whether the LUT participates in the design.
    pub lut_used: bool,
    /// LUT truth table.
    pub truth: u16,
    /// Routing selector feeding each LUT pin.
    pub pin_src: [Selector; 4],
    /// Whether the register participates in the design.
    pub dff_used: bool,
    /// Routing selector feeding the register's D input.
    pub dff_src: Selector,
}

/// The state section: one register bit per CLB (whether used or not —
/// full-frame, like the static section).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateFrames {
    /// Register value per CLB, indexed by CLB number.
    pub bits: Vec<bool>,
}

impl StateFrames {
    /// Bytes this section occupies on the configuration bus (8-byte frame
    /// header + packed bits).
    pub fn bytes(&self) -> usize {
        8 + self.bits.len().div_ceil(8)
    }

    /// Words on the 32-bit configuration bus.
    pub fn words(&self) -> usize {
        2 + self.bits.len().div_ceil(32)
    }

    /// The bits packed into 32-bit words: CLB `i` is bit `i % 32` of word
    /// `i / 32`, and the unused high bits of the last word are zero. This
    /// is the layout of the bitstream's state section and of a gate-level
    /// circuit's saved state frames.
    pub fn to_words(&self) -> Vec<u32> {
        let mut words = vec![0u32; self.bits.len().div_ceil(32)];
        for (i, &bit) in self.bits.iter().enumerate() {
            words[i / 32] |= u32::from(bit) << (i % 32);
        }
        words
    }

    /// Unpack `clbs` bits from [`StateFrames::to_words`]'s layout.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `clbs.div_ceil(32)` words.
    pub fn from_words(words: &[u32], clbs: usize) -> Self {
        Self { bits: (0..clbs).map(|i| words[i / 32] >> (i % 32) & 1 == 1).collect() }
    }
}

/// A complete PFU configuration: static frames, initial state frames, and
/// the interface descriptor (port names and output routing) that
/// accompanies a circuit when an application registers it with the OS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    dims: FabricDims,
    clbs: Vec<ClbStatic>,
    inputs: Vec<Port>,
    outputs: Vec<(String, Vec<Selector>)>,
    initial_state: StateFrames,
}

impl Bitstream {
    /// Fabric dimensions this configuration targets.
    pub fn dims(&self) -> FabricDims {
        self.dims
    }

    /// Per-CLB static configuration, indexed by CLB number.
    pub fn clbs(&self) -> &[ClbStatic] {
        &self.clbs
    }

    /// Declared input ports.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Output buses: name plus a routing selector per bit.
    pub fn outputs(&self) -> &[(String, Vec<Selector>)] {
        &self.outputs
    }

    /// Initial register state (loaded with the static section on a full
    /// configuration).
    pub fn initial_state(&self) -> &StateFrames {
        &self.initial_state
    }

    /// Size of the static section in bytes. Full-frame: depends only on
    /// the fabric dimensions. For [`FabricDims::PFU`] this is 54 000 bytes.
    pub fn static_bytes(&self) -> usize {
        self.dims.clbs() * CONFIG_BYTES_PER_CLB
    }

    /// Size of the state section in bytes.
    pub fn state_bytes(&self) -> usize {
        self.initial_state.bytes()
    }

    /// Serialise to configuration-bus words (magic, dims, static frames,
    /// state frames, descriptor).
    pub fn to_words(&self) -> Vec<u32> {
        let mut w = Vec::with_capacity(4 + self.dims.clbs() * WORDS_PER_CLB);
        w.push(MAGIC);
        w.push((u32::from(self.dims.width) << 16) | u32::from(self.dims.height));
        // Static frames.
        for clb in &self.clbs {
            let mut frame = [0u32; WORDS_PER_CLB];
            frame[0] = u32::from(clb.lut_used) | (u32::from(clb.dff_used) << 1);
            frame[1] = u32::from(clb.truth);
            frame[2..6].copy_from_slice(&clb.pin_src);
            frame[6] = clb.dff_src;
            // frame[7..] stays zero: reserved routing capacity.
            w.extend_from_slice(&frame);
        }
        // State frames.
        w.push(self.initial_state.bits.len() as u32);
        w.extend(self.initial_state.to_words());
        // Descriptor: inputs then outputs, with length-prefixed names.
        w.push(self.inputs.len() as u32);
        for p in &self.inputs {
            push_str(&mut w, &p.name);
            w.push(u32::from(p.width));
        }
        w.push(self.outputs.len() as u32);
        for (name, sels) in &self.outputs {
            push_str(&mut w, name);
            w.push(sels.len() as u32);
            w.extend_from_slice(sels);
        }
        w
    }

    /// Deserialise from configuration-bus words.
    ///
    /// # Errors
    ///
    /// [`FabricError::MalformedBitstream`] on bad magic, truncation or any
    /// structurally invalid field.
    pub fn from_words(words: &[u32]) -> Result<Self, FabricError> {
        let mut r = Reader { words, pos: 0 };
        if r.next()? != MAGIC {
            return Err(FabricError::MalformedBitstream { detail: "bad magic".to_string() });
        }
        let dims_word = r.next()?;
        let dims = FabricDims::new((dims_word >> 16) as u16, (dims_word & 0xFFFF) as u16);
        let n_clbs = dims.clbs();
        if n_clbs == 0 || n_clbs > u16::MAX as usize {
            return Err(FabricError::MalformedBitstream {
                detail: format!("implausible fabric dimensions {}x{}", dims.width, dims.height),
            });
        }
        let mut clbs = Vec::with_capacity(n_clbs);
        for _ in 0..n_clbs {
            let mut frame = [0u32; WORDS_PER_CLB];
            for slot in frame.iter_mut() {
                *slot = r.next()?;
            }
            for &pad in &frame[7..] {
                if pad != 0 {
                    return Err(FabricError::MalformedBitstream {
                        detail: "nonzero reserved routing word".to_string(),
                    });
                }
            }
            clbs.push(ClbStatic {
                lut_used: frame[0] & 1 == 1,
                dff_used: frame[0] >> 1 & 1 == 1,
                truth: (frame[1] & 0xFFFF) as u16,
                pin_src: [frame[2], frame[3], frame[4], frame[5]],
                dff_src: frame[6],
            });
        }
        let n_state = r.next()? as usize;
        if n_state != n_clbs {
            return Err(FabricError::MalformedBitstream {
                detail: format!("state frame covers {n_state} CLBs, fabric has {n_clbs}"),
            });
        }
        let state_words = (0..n_state.div_ceil(32)).map(|_| r.next()).collect::<Result<Vec<_>, _>>()?;
        let initial_state = StateFrames::from_words(&state_words, n_state);
        let n_in = r.next()? as usize;
        let mut inputs = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            let name = read_str(&mut r)?;
            let width = r.next()? as u16;
            inputs.push(Port { name, width });
        }
        let n_out = r.next()? as usize;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let name = read_str(&mut r)?;
            let n_bits = r.next()? as usize;
            let mut sels = Vec::with_capacity(n_bits);
            for _ in 0..n_bits {
                sels.push(r.next()?);
            }
            outputs.push((name, sels));
        }
        Ok(Self { dims, clbs, inputs, outputs, initial_state })
    }
}

struct Reader<'a> {
    words: &'a [u32],
    pos: usize,
}

impl Reader<'_> {
    fn next(&mut self) -> Result<u32, FabricError> {
        let w = self.words.get(self.pos).copied().ok_or(FabricError::MalformedBitstream {
            detail: "truncated bitstream".to_string(),
        })?;
        self.pos += 1;
        Ok(w)
    }
}

fn push_str(w: &mut Vec<u32>, s: &str) {
    let bytes = s.as_bytes();
    w.push(bytes.len() as u32);
    for chunk in bytes.chunks(4) {
        let mut word = 0u32;
        for (i, &b) in chunk.iter().enumerate() {
            word |= u32::from(b) << (8 * i);
        }
        w.push(word);
    }
}

fn read_str(r: &mut Reader<'_>) -> Result<String, FabricError> {
    let len = r.next()? as usize;
    if len > 4096 {
        return Err(FabricError::MalformedBitstream { detail: "implausible string length".to_string() });
    }
    let mut bytes = Vec::with_capacity(len);
    for i in 0..len.div_ceil(4) {
        let word = r.next()?;
        for j in 0..4 {
            if i * 4 + j < len {
                bytes.push((word >> (8 * j) & 0xFF) as u8);
            }
        }
    }
    String::from_utf8(bytes)
        .map_err(|_| FabricError::MalformedBitstream { detail: "non-UTF-8 port name".to_string() })
}

/// Encode a placed netlist into a [`Bitstream`].
///
/// # Errors
///
/// Propagates placement inconsistencies as [`FabricError`] variants.
pub fn encode(
    netlist: &Netlist,
    placement: &Placement,
    dims: FabricDims,
) -> Result<Bitstream, FabricError> {
    let mut clbs = vec![ClbStatic::default(); dims.clbs()];
    let mut state_bits = vec![false; dims.clbs()];
    for (i, node) in netlist.nodes().iter().enumerate() {
        let id = NodeId(i as u32);
        match node {
            Node::Lut { inputs, truth } => {
                let clb = placement.lut_site[&id] as usize;
                let cfg = &mut clbs[clb];
                cfg.lut_used = true;
                cfg.truth = *truth;
                for (pin, &src) in inputs.iter().enumerate() {
                    cfg.pin_src[pin] = encode_source(placement.source_of(netlist, src));
                }
            }
            Node::Dff { d, init } => {
                let clb = placement.dff_site[&id] as usize;
                clbs[clb].dff_used = true;
                clbs[clb].dff_src = encode_source(placement.source_of(netlist, *d));
                state_bits[clb] = *init;
            }
            Node::Const(_) | Node::Input { .. } => {}
        }
    }
    let outputs = netlist
        .outputs()
        .iter()
        .map(|(name, bits)| {
            let sels = bits
                .iter()
                .map(|&b| encode_source(placement.source_of(netlist, b)))
                .collect();
            (name.clone(), sels)
        })
        .collect();
    Ok(Bitstream {
        dims,
        clbs,
        inputs: netlist.inputs().to_vec(),
        outputs,
        initial_state: StateFrames { bits: state_bits },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::place;
    use proptest::prelude::*;

    fn sample_bitstream() -> Bitstream {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 8);
        let c = b.input_bus("op_b", 8);
        let s = b.add(&a, &c);
        let r = b.register_bus(&s, 0x5A);
        b.output_bus("result", &r);
        let done = b.const_bit(true);
        b.output_bit("done", done);
        let n = b.finish().expect("netlist");
        let p = place::place(&n, FabricDims::PFU).expect("place");
        encode(&n, &p, FabricDims::PFU).expect("encode")
    }

    #[test]
    fn pfu_static_section_is_54_kbytes() {
        let bs = sample_bitstream();
        assert_eq!(bs.static_bytes(), 54_000);
    }

    #[test]
    fn state_section_is_tiny_compared_to_static() {
        let bs = sample_bitstream();
        assert!(bs.state_bytes() < 100, "state is {} bytes", bs.state_bytes());
        assert!(bs.static_bytes() / bs.state_bytes() > 500);
    }

    #[test]
    fn words_roundtrip() {
        let bs = sample_bitstream();
        let words = bs.to_words();
        let back = Bitstream::from_words(&words).expect("decode");
        assert_eq!(bs, back);
    }

    /// Encode `bs` with `bits` as its state section and decode it again.
    fn state_roundtrip(bs: &mut Bitstream, bits: Vec<bool>) -> StateFrames {
        bs.initial_state = StateFrames { bits };
        Bitstream::from_words(&bs.to_words()).expect("decode").initial_state
    }

    #[test]
    fn state_frames_roundtrip_every_one_hot_position() {
        // Placement puts the sample's registers at a few CLBs only, so
        // `words_roundtrip` leaves most state bit positions unexercised.
        let mut bs = sample_bitstream();
        let n = bs.dims().clbs();
        for i in 0..n {
            let bits: Vec<bool> = (0..n).map(|j| j == i).collect();
            assert_eq!(state_roundtrip(&mut bs, bits.clone()).bits, bits, "one-hot CLB {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn state_frames_roundtrip_random_patterns(
            bits in proptest::collection::vec(any::<bool>(), 500..501),
        ) {
            let mut bs = sample_bitstream();
            prop_assert_eq!(bits.len(), bs.dims().clbs());
            prop_assert_eq!(state_roundtrip(&mut bs, bits.clone()).bits, bits);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let bs = sample_bitstream();
        let mut words = bs.to_words();
        words[0] = 0xDEAD_BEEF;
        assert!(matches!(
            Bitstream::from_words(&words),
            Err(FabricError::MalformedBitstream { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bs = sample_bitstream();
        let words = bs.to_words();
        assert!(Bitstream::from_words(&words[..words.len() - 1]).is_err());
    }

    #[test]
    fn selector_roundtrip() {
        use crate::place::SourceRef;
        for src in [
            SourceRef::Const(false),
            SourceRef::Const(true),
            SourceRef::Port(2, 31),
            SourceRef::ClbLut(499),
            SourceRef::ClbDff(0),
        ] {
            assert_eq!(decode_source(encode_source(src)).expect("decode"), src);
        }
    }

    #[test]
    fn initial_state_carries_register_init() {
        let bs = sample_bitstream();
        let ones: usize = bs.initial_state().bits.iter().filter(|&&b| b).count();
        // 0x5A has four set bits.
        assert_eq!(ones, 4);
    }
}
