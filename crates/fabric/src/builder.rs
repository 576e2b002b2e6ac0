//! Programmatic construction of netlists.
//!
//! [`NetlistBuilder`] offers gate-level primitives (LUTs, flip-flops) and a
//! growing library of datapath helpers (adders, multipliers, muxes,
//! comparators, saturating arithmetic) — enough to build the real circuits
//! used by the Proteus workloads. Everything lowers to LUT4 + DFF, the only
//! resources a CLB provides.

use crate::error::FabricError;
use crate::netlist::{Netlist, Node, NodeId, Port};

/// Incremental netlist constructor.
///
/// # Example
///
/// ```
/// use proteus_fabric::builder::NetlistBuilder;
/// # fn main() -> Result<(), proteus_fabric::FabricError> {
/// let mut b = NetlistBuilder::new();
/// let a = b.input_bus("op_a", 8);
/// let c = b.input_bus("op_b", 8);
/// let lt = b.less_than(&a, &c);
/// b.output_bit("result", lt);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.inputs().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    nodes: Vec<Node>,
    inputs: Vec<Port>,
    outputs: Vec<(String, Vec<NodeId>)>,
    zero: Option<NodeId>,
    one: Option<NodeId>,
}

impl NetlistBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// A constant bit. Constants are cached so repeated requests share one
    /// node.
    pub fn const_bit(&mut self, value: bool) -> NodeId {
        let slot = if value { &mut self.one } else { &mut self.zero };
        if let Some(id) = *slot {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Const(value));
        if value {
            self.one = Some(id);
        } else {
            self.zero = Some(id);
        }
        id
    }

    /// A constant bus of the given width holding `value` (little-endian
    /// bit order: element 0 is bit 0).
    pub fn const_bus(&mut self, value: u64, width: u16) -> Vec<NodeId> {
        (0..width).map(|i| self.const_bit((value >> i) & 1 == 1)).collect()
    }

    /// Declare a named input port of `width` bits and return its bit nodes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn input_bus(&mut self, name: &str, width: u16) -> Vec<NodeId> {
        assert!(width > 0, "input port must have at least one bit");
        let port = self.inputs.len() as u16;
        self.inputs.push(Port { name: name.to_string(), width });
        (0..width).map(|bit| self.push(Node::Input { port, bit })).collect()
    }

    /// Declare a 1-bit input port.
    pub fn input_bit(&mut self, name: &str) -> NodeId {
        self.input_bus(name, 1)[0]
    }

    /// Register an output bus under `name`.
    pub fn output_bus(&mut self, name: &str, bits: &[NodeId]) {
        self.outputs.push((name.to_string(), bits.to_vec()));
    }

    /// Register a 1-bit output under `name`.
    pub fn output_bit(&mut self, name: &str, bit: NodeId) {
        self.outputs.push((name.to_string(), vec![bit]));
    }

    /// Raw 4-input LUT. `truth` bit `i` is the output when the pins (pin 0
    /// least significant) spell the value `i`.
    pub fn lut4(&mut self, inputs: [NodeId; 4], truth: u16) -> NodeId {
        self.push(Node::Lut { inputs, truth })
    }

    /// A LUT computing an arbitrary 2-input function. `f` is consulted at
    /// build time for all four input combinations.
    pub fn lut2<F: Fn(bool, bool) -> bool>(&mut self, a: NodeId, b: NodeId, f: F) -> NodeId {
        let zero = self.const_bit(false);
        let mut truth = 0u16;
        for idx in 0..16u16 {
            let pa = idx & 1 == 1;
            let pb = idx >> 1 & 1 == 1;
            if f(pa, pb) {
                truth |= 1 << idx;
            }
        }
        self.lut4([a, b, zero, zero], truth)
    }

    /// A LUT computing an arbitrary 3-input function.
    pub fn lut3<F: Fn(bool, bool, bool) -> bool>(
        &mut self,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        f: F,
    ) -> NodeId {
        let zero = self.const_bit(false);
        let mut truth = 0u16;
        for idx in 0..16u16 {
            let pa = idx & 1 == 1;
            let pb = idx >> 1 & 1 == 1;
            let pc = idx >> 2 & 1 == 1;
            if f(pa, pb, pc) {
                truth |= 1 << idx;
            }
        }
        self.lut4([a, b, c, zero], truth)
    }

    /// D flip-flop with configuration-time initial value (state bit).
    pub fn dff(&mut self, d: NodeId, init: bool) -> NodeId {
        self.push(Node::Dff { d, init })
    }

    /// Register an entire bus; returns the registered bus.
    pub fn register_bus(&mut self, bus: &[NodeId], init: u64) -> Vec<NodeId> {
        bus.iter()
            .enumerate()
            .map(|(i, &b)| self.dff(b, (init >> i) & 1 == 1))
            .collect()
    }

    // ---- 1-bit logic ----------------------------------------------------

    /// Logical NOT.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.lut2(a, a, |x, _| !x)
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.lut2(a, b, |x, y| x && y)
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.lut2(a, b, |x, y| x || y)
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.lut2(a, b, |x, y| x ^ y)
    }

    /// 2:1 mux — `sel ? b : a`.
    pub fn mux2(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.lut3(sel, a, b, |s, x, y| if s { y } else { x })
    }

    /// OR-reduce a slice of bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn or_reduce(&mut self, bits: &[NodeId]) -> NodeId {
        assert!(!bits.is_empty(), "cannot reduce an empty bus");
        // Balanced tree keeps combinational depth logarithmic.
        let mut layer: Vec<NodeId> = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 { self.or2(pair[0], pair[1]) } else { pair[0] });
            }
            layer = next;
        }
        layer[0]
    }

    // ---- bus logic -------------------------------------------------------

    /// Bitwise NOT of a bus.
    pub fn not_bus(&mut self, a: &[NodeId]) -> Vec<NodeId> {
        a.iter().map(|&x| self.not(x)).collect()
    }

    /// Bitwise XOR of two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor_bus(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.xor2(x, y)).collect()
    }

    /// Per-bit 2:1 mux over buses — `sel ? b : a`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mux_bus(&mut self, sel: NodeId, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.mux2(sel, x, y)).collect()
    }

    // ---- arithmetic -------------------------------------------------------

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NodeId, b: NodeId, cin: NodeId) -> (NodeId, NodeId) {
        let sum = self.lut3(a, b, cin, |x, y, c| x ^ y ^ c);
        let carry = self.lut3(a, b, cin, |x, y, c| (x && y) || (c && (x ^ y)));
        (sum, carry)
    }

    /// Ripple-carry addition of two equal-width buses, discarding the final
    /// carry (wrapping semantics, like Rust's `wrapping_add`).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        self.add_with_carry(a, b, None).0
    }

    /// Ripple-carry addition returning `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add_with_carry(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
        cin: Option<NodeId>,
    ) -> (Vec<NodeId>, NodeId) {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        let mut carry = cin.unwrap_or_else(|| self.const_bit(false));
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    /// Wrapping subtraction `a - b` via two's complement.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn sub(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let nb = self.not_bus(b);
        let one = self.const_bit(true);
        self.add_with_carry(a, &nb, Some(one)).0
    }

    /// Unsigned `a < b` for equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn less_than(&mut self, a: &[NodeId], b: &[NodeId]) -> NodeId {
        // a < b  <=>  borrow out of a - b  <=>  !carry_out(a + !b + 1)
        let nb = self.not_bus(b);
        let one = self.const_bit(true);
        let (_, carry) = self.add_with_carry(a, &nb, Some(one));
        self.not(carry)
    }

    /// Equality of two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn equal(&mut self, a: &[NodeId], b: &[NodeId]) -> NodeId {
        let x = self.xor_bus(a, b);
        let any = self.or_reduce(&x);
        self.not(any)
    }

    /// Combinational shift-and-add multiplier. Output width is
    /// `a.len() + b.len()`.
    pub fn mul(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let out_w = a.len() + b.len();
        let zero = self.const_bit(false);
        let mut acc: Vec<NodeId> = vec![zero; out_w];
        for (i, &bb) in b.iter().enumerate() {
            // Partial product: a gated by bit i of b, shifted left i.
            let mut pp: Vec<NodeId> = vec![zero; out_w];
            for (j, &ab) in a.iter().enumerate() {
                if i + j < out_w {
                    pp[i + j] = self.and2(ab, bb);
                }
            }
            acc = self.add(&acc, &pp);
        }
        acc
    }

    /// Saturating unsigned add of two equal-width buses: on carry-out the
    /// result clamps to all-ones.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn sat_add(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        let (sum, carry) = self.add_with_carry(a, b, None);
        sum.into_iter().map(|s| self.or2(s, carry)).collect()
    }

    /// Select a constant-position slice of a bus (compile-time shift).
    ///
    /// Bits shifted in are zero. `shift` may exceed the width.
    pub fn shr_const(&mut self, a: &[NodeId], shift: usize) -> Vec<NodeId> {
        let zero = self.const_bit(false);
        (0..a.len()).map(|i| a.get(i + shift).copied().unwrap_or(zero)).collect()
    }

    /// Compile-time left shift; bits shifted in are zero.
    pub fn shl_const(&mut self, a: &[NodeId], shift: usize) -> Vec<NodeId> {
        let zero = self.const_bit(false);
        (0..a.len())
            .map(|i| if i >= shift { a[i - shift] } else { zero })
            .collect()
    }

    /// Zero-extend or truncate a bus to `width` bits.
    pub fn resize(&mut self, a: &[NodeId], width: usize) -> Vec<NodeId> {
        let zero = self.const_bit(false);
        (0..width).map(|i| a.get(i).copied().unwrap_or(zero)).collect()
    }

    /// Population count of a bus; output is `ceil(log2(len+1))` bits wide.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty.
    pub fn popcount(&mut self, a: &[NodeId]) -> Vec<NodeId> {
        assert!(!a.is_empty(), "popcount of empty bus");
        let out_w = (usize::BITS - a.len().leading_zeros()) as usize;
        let mut acc = self.resize(&[a[0]], out_w);
        for &bit in &a[1..] {
            let b = self.resize(&[bit], out_w);
            acc = self.add(&acc, &b);
        }
        acc
    }

    /// Free-running counter of `width` bits that increments when `enable`
    /// is high; returns the current (registered) value.
    pub fn counter(&mut self, width: u16, enable: NodeId) -> Vec<NodeId> {
        // Allocate the DFFs first so the increment can feed back.
        let zero = self.const_bit(false);
        let dff_ids: Vec<NodeId> = (0..width).map(|_| self.push(Node::Dff { d: zero, init: false })).collect();
        let one_bus = self.const_bus(1, width);
        let incremented = self.add(&dff_ids, &one_bus);
        let next = self.mux_bus(enable, &dff_ids, &incremented);
        for (dff, nxt) in dff_ids.iter().zip(&next) {
            if let Node::Dff { d, .. } = &mut self.nodes[dff.index()] {
                *d = *nxt;
            }
        }
        dff_ids
    }

    /// Rewire an already-allocated DFF's `d` input — used to close feedback
    /// loops that were allocated with a placeholder.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop node.
    pub fn set_dff_input(&mut self, dff: NodeId, d: NodeId) {
        match &mut self.nodes[dff.index()] {
            Node::Dff { d: slot, .. } => *slot = d,
            other => panic!("set_dff_input on non-DFF node {other:?}"),
        }
    }

    /// Allocate a DFF whose input will be wired later with
    /// [`Self::set_dff_input`].
    pub fn dff_placeholder(&mut self, init: bool) -> NodeId {
        let zero = self.const_bit(false);
        self.push(Node::Dff { d: zero, init })
    }

    /// Finish building, validating the netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::check`] failures and reports duplicate port
    /// names.
    pub fn finish(self) -> Result<Netlist, FabricError> {
        let netlist = self.finish_unchecked();
        for (i, p) in netlist.inputs.iter().enumerate() {
            if netlist.inputs[..i].iter().any(|q| q.name == p.name) {
                return Err(FabricError::DuplicatePort { name: p.name.clone() });
            }
        }
        for (i, (name, _)) in netlist.outputs.iter().enumerate() {
            if netlist.outputs[..i].iter().any(|(n, _)| n == name) {
                return Err(FabricError::DuplicatePort { name: name.clone() });
            }
        }
        netlist.check()?;
        Ok(netlist)
    }

    /// Finish without validation (used by tests that construct deliberately
    /// malformed netlists).
    pub fn finish_unchecked(self) -> Netlist {
        Netlist { nodes: self.nodes, inputs: self.inputs, outputs: self.outputs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetlistSim;

    /// Build, simulate one combinational step, read `result`.
    fn eval2(f: impl FnOnce(&mut NetlistBuilder, Vec<NodeId>, Vec<NodeId>) -> Vec<NodeId>, w: u16, a: u64, b: u64) -> u64 {
        let mut bld = NetlistBuilder::new();
        let ab = bld.input_bus("op_a", w);
        let bb = bld.input_bus("op_b", w);
        let out = f(&mut bld, ab, bb);
        bld.output_bus("result", &out);
        let n = bld.finish().expect("netlist");
        let mut sim = NetlistSim::new(&n).expect("sim");
        sim.set_input("op_a", a);
        sim.set_input("op_b", b);
        sim.settle();
        sim.output("result")
    }

    #[test]
    fn adder_matches_wrapping_add() {
        for (a, b) in [(0u64, 0u64), (1, 1), (200, 99), (255, 255), (128, 128)] {
            let got = eval2(|bld, x, y| bld.add(&x, &y), 8, a, b);
            assert_eq!(got, (a + b) & 0xFF, "a={a} b={b}");
        }
    }

    #[test]
    fn subtractor_matches_wrapping_sub() {
        for (a, b) in [(0u64, 0u64), (5, 9), (200, 99), (0, 255)] {
            let got = eval2(|bld, x, y| bld.sub(&x, &y), 8, a, b);
            assert_eq!(got, (a.wrapping_sub(b)) & 0xFF, "a={a} b={b}");
        }
    }

    #[test]
    fn multiplier_matches() {
        for (a, b) in [(0u64, 0u64), (3, 5), (255, 255), (17, 19)] {
            let got = eval2(|bld, x, y| bld.mul(&x, &y), 8, a, b);
            assert_eq!(got, a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn sat_add_clamps() {
        assert_eq!(eval2(|bld, x, y| bld.sat_add(&x, &y), 8, 200, 100), 255);
        assert_eq!(eval2(|bld, x, y| bld.sat_add(&x, &y), 8, 20, 30), 50);
    }

    #[test]
    fn less_than_and_equal() {
        let lt = |a: u64, b: u64| {
            eval2(
                |bld, x, y| {
                    let r = bld.less_than(&x, &y);
                    vec![r]
                },
                8,
                a,
                b,
            )
        };
        assert_eq!(lt(3, 4), 1);
        assert_eq!(lt(4, 3), 0);
        assert_eq!(lt(9, 9), 0);

        let eq = eval2(
            |bld, x, y| {
                let r = bld.equal(&x, &y);
                vec![r]
            },
            8,
            42,
            42,
        );
        assert_eq!(eq, 1);
    }

    #[test]
    fn popcount_counts() {
        let got = eval2(
            |bld, x, _| bld.popcount(&x),
            8,
            0b1011_0110,
            0,
        );
        assert_eq!(got, 5);
    }

    #[test]
    fn counter_increments_when_enabled() {
        let mut bld = NetlistBuilder::new();
        let en = bld.input_bit("op_a");
        let cnt = bld.counter(8, en);
        bld.output_bus("result", &cnt);
        let n = bld.finish().expect("netlist");
        let mut sim = NetlistSim::new(&n).expect("sim");
        sim.set_input("op_a", 1);
        for expect in 0..5u64 {
            sim.settle();
            assert_eq!(sim.output("result"), expect);
            sim.clock_edge();
        }
        sim.set_input("op_a", 0);
        sim.settle();
        let frozen = sim.output("result");
        sim.clock_edge();
        sim.settle();
        assert_eq!(sim.output("result"), frozen);
    }

    #[test]
    fn duplicate_output_port_rejected() {
        let mut bld = NetlistBuilder::new();
        let a = bld.input_bit("op_a");
        bld.output_bit("result", a);
        bld.output_bit("result", a);
        assert!(matches!(bld.finish(), Err(FabricError::DuplicatePort { .. })));
    }
}
