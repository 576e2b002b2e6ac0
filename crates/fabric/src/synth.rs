//! Gate-level synthesis: a technology-independent gate IR, lowering to
//! LUT4s, and a LUT-packing optimisation pass.
//!
//! The [`crate::builder::NetlistBuilder`] API produces one LUT per
//! logical operator, which is convenient but wasteful — a real flow maps
//! logic *cones* into LUTs. This module provides the missing front end:
//!
//! 1. [`GateNetlist`] — AND/OR/XOR/NOT/MUX gates of arbitrary arity plus
//!    flip-flops, the level a hand-written HDL netlist or a simple
//!    compiler would emit;
//! 2. [`synthesize`] — lowering into the LUT4+DFF [`Netlist`] the fabric
//!    accepts;
//! 3. [`pack_luts`] — a classic single-fanout cone-packing pass: a LUT
//!    feeding exactly one other LUT is absorbed whenever the combined
//!    support still fits in four inputs. Equivalence is guaranteed by
//!    construction (truth tables are recomputed exhaustively) and checked
//!    by the property tests against random gate networks.

//!
//! # Example
//!
//! ```
//! use proteus_fabric::synth::{pack_luts, synthesize, GateNetlist};
//!
//! # fn main() -> Result<(), proteus_fabric::FabricError> {
//! let mut g = GateNetlist::new();
//! let a = g.input_bus("op_a", 4);
//! let b = g.input_bus("op_b", 4);
//! let bits: Vec<_> = a.iter().zip(&b).map(|(&x, &y)| (x, y)).collect();
//! let mut outs = Vec::new();
//! for (x, y) in bits {
//!     let n = g.and(vec![x, y]);
//!     outs.push(g.not(n)); // NAND per bit
//! }
//! g.output_bus("result", &outs);
//! let lowered = synthesize(&g)?;
//! let (packed, stats) = pack_luts(&lowered);
//! assert!(stats.luts_after <= stats.luts_before);
//! assert!(packed.check().is_ok());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::builder::NetlistBuilder;
use crate::error::FabricError;
use crate::netlist::{Netlist, Node, NodeId};

/// Identifier of a gate inside one [`GateNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub u32);

/// A technology-independent gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// One bit of a named input port.
    Input {
        /// Index into the netlist's input ports, in declaration order.
        port: u16,
        /// Bit within the port.
        bit: u16,
    },
    /// Constant driver.
    Const(bool),
    /// Inverter.
    Not(GateId),
    /// N-ary AND (arity ≥ 1).
    And(Vec<GateId>),
    /// N-ary OR.
    Or(Vec<GateId>),
    /// N-ary XOR.
    Xor(Vec<GateId>),
    /// 2:1 multiplexer: `sel ? hi : lo`.
    Mux {
        /// Select line.
        sel: GateId,
        /// Value when `sel` is low.
        lo: GateId,
        /// Value when `sel` is high.
        hi: GateId,
    },
    /// D flip-flop.
    Dff {
        /// Sampled input.
        d: GateId,
        /// Configuration-time value.
        init: bool,
    },
}

/// A gate-level design: what a simple HDL front end emits.
#[derive(Debug, Clone, Default)]
pub struct GateNetlist {
    gates: Vec<Gate>,
    inputs: Vec<(String, u16)>,
    outputs: Vec<(String, Vec<GateId>)>,
}

impl GateNetlist {
    /// An empty design.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, gate: Gate) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(gate);
        id
    }

    /// Declare an input port; returns its bit gates.
    pub fn input_bus(&mut self, name: &str, width: u16) -> Vec<GateId> {
        let port = self.inputs.len() as u16;
        self.inputs.push((name.to_string(), width));
        (0..width).map(|bit| self.push(Gate::Input { port, bit })).collect()
    }

    /// A constant bit.
    pub fn constant(&mut self, v: bool) -> GateId {
        self.push(Gate::Const(v))
    }

    /// Inverter.
    pub fn not(&mut self, a: GateId) -> GateId {
        self.push(Gate::Not(a))
    }

    /// N-ary AND.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn and(&mut self, inputs: Vec<GateId>) -> GateId {
        assert!(!inputs.is_empty(), "AND needs at least one input");
        self.push(Gate::And(inputs))
    }

    /// N-ary OR.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn or(&mut self, inputs: Vec<GateId>) -> GateId {
        assert!(!inputs.is_empty(), "OR needs at least one input");
        self.push(Gate::Or(inputs))
    }

    /// N-ary XOR.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn xor(&mut self, inputs: Vec<GateId>) -> GateId {
        assert!(!inputs.is_empty(), "XOR needs at least one input");
        self.push(Gate::Xor(inputs))
    }

    /// 2:1 mux.
    pub fn mux(&mut self, sel: GateId, lo: GateId, hi: GateId) -> GateId {
        self.push(Gate::Mux { sel, lo, hi })
    }

    /// Flip-flop.
    pub fn dff(&mut self, d: GateId, init: bool) -> GateId {
        self.push(Gate::Dff { d, init })
    }

    /// Register an output bus.
    pub fn output_bus(&mut self, name: &str, bits: &[GateId]) {
        self.outputs.push((name.to_string(), bits.to_vec()));
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the design has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Reference evaluation: one settle + clock edge. `inputs[name]` is
    /// the port value; returns the named output values *before* the edge
    /// and advances flip-flop state held in `dff_state` (keyed by gate
    /// id).
    pub fn eval(
        &self,
        inputs: &HashMap<String, u64>,
        dff_state: &mut HashMap<u32, bool>,
    ) -> HashMap<String, u64> {
        let mut values = vec![false; self.gates.len()];
        // Iterate until fixpoint (gates may be declared in any order;
        // combinational designs converge in ≤ depth passes).
        for _ in 0..self.gates.len().max(1) {
            let mut changed = false;
            for (i, g) in self.gates.iter().enumerate() {
                let v = match g {
                    Gate::Input { port, bit } => {
                        let (name, _) = &self.inputs[*port as usize];
                        inputs.get(name).copied().unwrap_or(0) >> bit & 1 == 1
                    }
                    Gate::Const(c) => *c,
                    Gate::Not(a) => !values[a.0 as usize],
                    Gate::And(xs) => xs.iter().all(|x| values[x.0 as usize]),
                    Gate::Or(xs) => xs.iter().any(|x| values[x.0 as usize]),
                    Gate::Xor(xs) => xs.iter().fold(false, |acc, x| acc ^ values[x.0 as usize]),
                    Gate::Mux { sel, lo, hi } => {
                        if values[sel.0 as usize] {
                            values[hi.0 as usize]
                        } else {
                            values[lo.0 as usize]
                        }
                    }
                    Gate::Dff { init, .. } => *dff_state.get(&(i as u32)).copied().get_or_insert(*init),
                };
                if values[i] != v {
                    values[i] = v;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let out = self
            .outputs
            .iter()
            .map(|(name, bits)| {
                let v = bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, b)| acc | (u64::from(values[b.0 as usize]) << i));
                (name.clone(), v)
            })
            .collect();
        for (i, g) in self.gates.iter().enumerate() {
            if let Gate::Dff { d, .. } = g {
                dff_state.insert(i as u32, values[d.0 as usize]);
            }
        }
        out
    }
}

/// Lower a gate netlist into LUT4s + DFFs (no optimisation; follow with
/// [`pack_luts`]).
///
/// # Errors
///
/// Propagates [`Netlist::check`] failures (e.g. combinational loops in
/// the gate design).
pub fn synthesize(design: &GateNetlist) -> Result<Netlist, FabricError> {
    let mut b = NetlistBuilder::new();
    let mut port_nodes: Vec<Vec<NodeId>> = Vec::new();
    for (name, width) in &design.inputs {
        port_nodes.push(b.input_bus(name, *width));
    }
    let mut map: Vec<Option<NodeId>> = vec![None; design.gates.len()];
    // DFF placeholders first so feedback works.
    for (i, g) in design.gates.iter().enumerate() {
        if let Gate::Dff { init, .. } = g {
            map[i] = Some(b.dff_placeholder(*init));
        }
    }
    // Lower combinational gates until every one is mapped (worklist over
    // declaration order, repeated until fixpoint — handles any order).
    for _ in 0..design.gates.len().max(1) {
        let mut progressed = false;
        for (i, g) in design.gates.iter().enumerate() {
            if map[i].is_some() {
                continue;
            }
            let get = |id: GateId| map[id.0 as usize];
            let node = match g {
                Gate::Input { port, bit } => Some(port_nodes[*port as usize][*bit as usize]),
                Gate::Const(v) => Some(b.const_bit(*v)),
                Gate::Not(a) => get(*a).map(|n| b.not(n)),
                Gate::And(xs) => lower_nary(&mut b, xs, &map, |b, x, y| b.and2(x, y)),
                Gate::Or(xs) => lower_nary(&mut b, xs, &map, |b, x, y| b.or2(x, y)),
                Gate::Xor(xs) => lower_nary(&mut b, xs, &map, |b, x, y| b.xor2(x, y)),
                Gate::Mux { sel, lo, hi } => match (get(*sel), get(*lo), get(*hi)) {
                    (Some(s), Some(l), Some(h)) => Some(b.mux2(s, l, h)),
                    _ => None,
                },
                Gate::Dff { .. } => unreachable!("mapped above"),
            };
            if let Some(n) = node {
                map[i] = Some(n);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Wire DFF inputs.
    for (i, g) in design.gates.iter().enumerate() {
        if let Gate::Dff { d, .. } = g {
            let Some(dff) = map[i] else {
                // Invariant: DFF gates are allocated unconditionally in
                // the first mapping pass above.
                debug_assert!(false, "DFF gate {i} unallocated");
                return Err(FabricError::DanglingNode { node: i as u32 });
            };
            let src = map[d.0 as usize].ok_or(FabricError::DanglingNode { node: d.0 })?;
            b.set_dff_input(dff, src);
        }
    }
    for (name, bits) in &design.outputs {
        let nodes: Result<Vec<NodeId>, FabricError> = bits
            .iter()
            .map(|g| map[g.0 as usize].ok_or(FabricError::DanglingNode { node: g.0 }))
            .collect();
        b.output_bus(name, &nodes?);
    }
    b.finish()
}

fn lower_nary(
    b: &mut NetlistBuilder,
    xs: &[GateId],
    map: &[Option<NodeId>],
    f: impl Fn(&mut NetlistBuilder, NodeId, NodeId) -> NodeId,
) -> Option<NodeId> {
    let nodes: Option<Vec<NodeId>> = xs.iter().map(|x| map[x.0 as usize]).collect();
    let nodes = nodes?;
    let mut acc = nodes[0];
    for &n in &nodes[1..] {
        acc = f(b, acc, n);
    }
    Some(acc)
}

/// Statistics from a [`pack_luts`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// LUTs before packing.
    pub luts_before: usize,
    /// LUTs after packing and dead-logic removal.
    pub luts_after: usize,
    /// Merge operations performed.
    pub merges: usize,
}

/// Pack single-fanout LUT chains: absorb a LUT into its lone consumer
/// whenever the merged support is ≤ 4 inputs, then sweep dead logic.
/// The result is functionally identical (truth tables are recomputed
/// exhaustively).
pub fn pack_luts(netlist: &Netlist) -> (Netlist, PackStats) {
    let mut nodes: Vec<Node> = netlist.nodes().to_vec();
    let luts_before = count_luts(&nodes);
    let mut merges = 0usize;
    loop {
        let fanout = lut_fanout(&nodes, netlist);
        let mut did = false;
        for m in 0..nodes.len() {
            let Node::Lut { inputs: m_in, truth: m_truth } = nodes[m] else { continue };
            // Find a feeding LUT whose only consumer is `m`.
            let Some(&src) = m_in.iter().find(|src| {
                matches!(nodes[src.index()], Node::Lut { .. })
                    && fanout[src.index()] == 1
                    && src.index() != m
            }) else {
                continue;
            };
            let Node::Lut { inputs: l_in, truth: l_truth } = nodes[src.index()] else { continue };
            // Combined support: L's inputs plus M's other inputs.
            let mut support: Vec<NodeId> = Vec::new();
            let l_used = used_pins(l_truth);
            for (pin, inp) in l_in.iter().enumerate() {
                if l_used[pin] && !support.contains(inp) {
                    support.push(*inp);
                }
            }
            let m_used = used_pins(m_truth);
            for (pin, inp) in m_in.iter().enumerate() {
                if m_used[pin] && *inp != src && !support.contains(inp) {
                    support.push(*inp);
                }
            }
            if support.len() > 4 {
                continue;
            }
            // Recompute the merged truth table exhaustively.
            let pad = support.first().copied().unwrap_or(src);
            let mut new_inputs = [pad; 4];
            for (i, s) in support.iter().enumerate() {
                new_inputs[i] = *s;
            }
            let mut new_truth = 0u16;
            for assign in 0..16u16 {
                let bit_of = |node: NodeId| -> bool {
                    support.iter().position(|&s| s == node).is_some_and(|p| assign >> p & 1 == 1)
                };
                let mut l_addr = 0usize;
                for (pin, inp) in l_in.iter().enumerate() {
                    if l_used[pin] && bit_of(*inp) {
                        l_addr |= 1 << pin;
                    }
                }
                let l_out = l_truth >> l_addr & 1 == 1;
                let mut m_addr = 0usize;
                for (pin, inp) in m_in.iter().enumerate() {
                    let v = if *inp == src { l_out } else { m_used[pin] && bit_of(*inp) };
                    if v {
                        m_addr |= 1 << pin;
                    }
                }
                if m_truth >> m_addr & 1 == 1 {
                    new_truth |= 1 << assign;
                }
            }
            nodes[m] = Node::Lut { inputs: new_inputs, truth: new_truth };
            merges += 1;
            did = true;
            break; // fanout counts are stale; restart the scan
        }
        if !did {
            break;
        }
    }
    let packed = sweep_dead(nodes, netlist);
    let stats = PackStats { luts_before, luts_after: packed.lut_count(), merges };
    (packed, stats)
}

/// Which pins actually influence a truth table.
fn used_pins(truth: u16) -> [bool; 4] {
    let mut used = [false; 4];
    for (pin, u) in used.iter_mut().enumerate() {
        for addr in 0..16usize {
            let other = addr ^ (1 << pin);
            if (truth >> addr & 1) != (truth >> other & 1) {
                *u = true;
                break;
            }
        }
    }
    used
}

fn count_luts(nodes: &[Node]) -> usize {
    nodes.iter().filter(|n| matches!(n, Node::Lut { .. })).count()
}

/// Fanout of each node counting only *live* uses (LUT pins that matter,
/// DFF inputs, outputs).
fn lut_fanout(nodes: &[Node], netlist: &Netlist) -> Vec<usize> {
    let mut fanout = vec![0usize; nodes.len()];
    for node in nodes {
        match node {
            Node::Lut { inputs, truth } => {
                let used = used_pins(*truth);
                for (pin, inp) in inputs.iter().enumerate() {
                    if used[pin] {
                        fanout[inp.index()] += 1;
                    }
                }
            }
            Node::Dff { d, .. } => fanout[d.index()] += 1,
            _ => {}
        }
    }
    for (_, bits) in netlist.outputs() {
        for b in bits {
            fanout[b.index()] += 1;
        }
    }
    fanout
}

/// Remove LUTs (and constants) unreachable from outputs or flip-flops,
/// rebuilding the netlist with dense ids.
fn sweep_dead(nodes: Vec<Node>, original: &Netlist) -> Netlist {
    let mut live = vec![false; nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (_, bits) in original.outputs() {
        for b in bits {
            stack.push(b.index());
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        if matches!(n, Node::Dff { .. } | Node::Input { .. }) {
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        match &nodes[i] {
            Node::Lut { inputs, truth } => {
                let used = used_pins(*truth);
                for (pin, inp) in inputs.iter().enumerate() {
                    if used[pin] {
                        stack.push(inp.index());
                    }
                }
            }
            Node::Dff { d, .. } => stack.push(d.index()),
            _ => {}
        }
    }
    // Dead pins of live LUTs must still reference *something* valid;
    // retarget them to the node itself is not allowed (cycle), so keep
    // whatever they referenced alive too.
    loop {
        let mut grew = false;
        for (i, n) in nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            if let Node::Lut { inputs, .. } = n {
                for inp in inputs {
                    if !live[inp.index()] {
                        live[inp.index()] = true;
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let mut remap = vec![NodeId(0); nodes.len()];
    let mut new_nodes = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if live[i] {
            remap[i] = NodeId(new_nodes.len() as u32);
            new_nodes.push(*n);
        }
    }
    for n in &mut new_nodes {
        match n {
            Node::Lut { inputs, .. } => {
                for inp in inputs.iter_mut() {
                    *inp = remap[inp.index()];
                }
            }
            Node::Dff { d, .. } => *d = remap[d.index()],
            _ => {}
        }
    }
    let outputs = original
        .outputs()
        .iter()
        .map(|(name, bits)| (name.clone(), bits.iter().map(|b| remap[b.index()]).collect()))
        .collect();
    Netlist { nodes: new_nodes, inputs: original.inputs().to_vec(), outputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetlistSim;

    /// A small combinational design: out = (a & b) ^ ~(c | d) per bit.
    fn sample_design(width: u16) -> GateNetlist {
        let mut g = GateNetlist::new();
        let a = g.input_bus("op_a", width);
        let b = g.input_bus("op_b", width);
        let mut outs = Vec::new();
        for i in 0..width as usize {
            let and = g.and(vec![a[i], b[i]]);
            let or = g.or(vec![a[i], b[i]]);
            let nor = g.not(or);
            let x = g.xor(vec![and, nor]);
            outs.push(x);
        }
        g.output_bus("result", &outs);
        g
    }

    fn check_equiv(design: &GateNetlist, netlist: &Netlist, samples: &[(u64, u64)]) {
        let mut sim = NetlistSim::new(netlist).expect("sim");
        for &(a, b) in samples {
            let mut inputs = HashMap::new();
            inputs.insert("op_a".to_string(), a);
            inputs.insert("op_b".to_string(), b);
            let mut dffs = HashMap::new();
            let want = design.eval(&inputs, &mut dffs)["result"];
            sim.set_input("op_a", a);
            sim.set_input("op_b", b);
            sim.settle();
            assert_eq!(sim.output("result"), want, "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn synthesis_matches_reference() {
        let design = sample_design(8);
        let netlist = synthesize(&design).expect("synth");
        check_equiv(&design, &netlist, &[(0, 0), (0xFF, 0x0F), (0xAA, 0x55), (0x3C, 0xC3)]);
    }

    #[test]
    fn packing_reduces_luts_and_preserves_function() {
        let design = sample_design(8);
        let netlist = synthesize(&design).expect("synth");
        let (packed, stats) = pack_luts(&netlist);
        assert!(packed.check().is_ok());
        assert!(
            stats.luts_after < stats.luts_before,
            "packing should shrink {} LUTs (got {})",
            stats.luts_before,
            stats.luts_after
        );
        assert!(stats.merges > 0);
        check_equiv(&design, &packed, &[(0, 0), (0xFF, 0x0F), (0xAA, 0x55), (0x81, 0x7E)]);
    }

    #[test]
    fn sequential_designs_synthesize() {
        // A toggling register gated by op_a bit 0: d = a ? !q : q. The
        // DFF forward-references the mux (feedback); lowering resolves
        // DFFs before combinational logic, so declaration order is free.
        let mut g = GateNetlist::new();
        let a = g.input_bus("op_a", 1);
        let nq_id = GateId(g.len() as u32 + 1); // the Not added after the dff
        let mux_id = GateId(g.len() as u32 + 2);
        let q2 = g.dff(mux_id, false);
        let got_nq = g.not(q2);
        let got_mux = g.mux(a[0], q2, got_nq);
        assert_eq!(got_nq, nq_id);
        assert_eq!(got_mux, mux_id);
        g.output_bus("result", &[q2]);

        let netlist = synthesize(&g).expect("synth");
        let mut sim = NetlistSim::new(&netlist).expect("sim");
        sim.set_input("op_a", 1);
        let mut expected = false;
        for _ in 0..4 {
            sim.settle();
            assert_eq!(sim.output("result"), u64::from(expected));
            sim.clock_edge();
            expected = !expected;
        }
    }

    #[test]
    fn wide_gates_lower_correctly() {
        let mut g = GateNetlist::new();
        let a = g.input_bus("op_a", 8);
        let all = g.and(a.clone());
        let any = g.or(a.clone());
        let parity = g.xor(a);
        g.output_bus("result", &[all, any, parity]);
        let netlist = synthesize(&g).expect("synth");
        let (packed, _) = pack_luts(&netlist);
        let mut sim = NetlistSim::new(&packed).expect("sim");
        for v in [0u64, 0xFF, 0x80, 0x7F, 0xA5] {
            sim.set_input("op_a", v);
            sim.settle();
            let r = sim.output("result");
            assert_eq!(r & 1 == 1, v == 0xFF, "all({v:#x})");
            assert_eq!(r >> 1 & 1 == 1, v != 0, "any({v:#x})");
            assert_eq!(r >> 2 & 1 == 1, (v.count_ones() & 1) == 1, "parity({v:#x})");
        }
    }
}
