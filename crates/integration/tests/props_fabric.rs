//! Property tests over the fabric: circuits built from the builder
//! library must compute exactly their Rust semantics after the full
//! place → encode → serialise → deserialise → decode → simulate chain.

use proptest::prelude::*;
use proteus_fabric::builder::NetlistBuilder;
use proteus_fabric::place::FabricDims;
use proteus_fabric::{compile, Bitstream, Device, Netlist, NodeId};

fn build_pfu_circuit(
    f: impl FnOnce(&mut NetlistBuilder, Vec<NodeId>, Vec<NodeId>) -> Vec<NodeId>,
) -> Netlist {
    let mut b = NetlistBuilder::new();
    let a = b.input_bus("op_a", 32);
    let c = b.input_bus("op_b", 32);
    let out = f(&mut b, a, c);
    let out32 = b.resize(&out, 32);
    b.output_bus("result", &out32);
    let one = b.const_bit(true);
    b.output_bit("done", one);
    b.finish().expect("netlist")
}

/// Compile + serialise + reload, then run on the device.
fn through_bitstream(netlist: &Netlist) -> Device {
    let compiled = compile(netlist, FabricDims::new(64, 64)).expect("compile");
    let words = compiled.bitstream().to_words();
    let reloaded = Bitstream::from_words(&words).expect("deserialise");
    let mut dev = Device::new(FabricDims::new(64, 64));
    dev.load(&reloaded).expect("load");
    dev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adder_semantics_hold(a in any::<u32>(), b in any::<u32>()) {
        let netlist = build_pfu_circuit(|bld, x, y| bld.add(&x, &y));
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(a, b, 4).expect("run");
        prop_assert_eq!(r, a.wrapping_add(b));
    }

    #[test]
    fn subtractor_semantics_hold(a in any::<u32>(), b in any::<u32>()) {
        let netlist = build_pfu_circuit(|bld, x, y| bld.sub(&x, &y));
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(a, b, 4).expect("run");
        prop_assert_eq!(r, a.wrapping_sub(b));
    }

    #[test]
    fn comparator_semantics_hold(a in any::<u32>(), b in any::<u32>()) {
        let netlist = build_pfu_circuit(|bld, x, y| {
            let lt = bld.less_than(&x, &y);
            let eq = bld.equal(&x, &y);
            vec![lt, eq]
        });
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(a, b, 4).expect("run");
        prop_assert_eq!(r & 1 == 1, a < b);
        prop_assert_eq!(r >> 1 & 1 == 1, a == b);
    }

    #[test]
    fn multiplier_semantics_hold(a in any::<u16>(), b in any::<u16>()) {
        let netlist = build_pfu_circuit(|bld, x, y| bld.mul(&x[..16], &y[..16]));
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(u32::from(a), u32::from(b), 4).expect("run");
        prop_assert_eq!(r, u32::from(a) * u32::from(b));
    }

    #[test]
    fn sat_add_semantics_hold(a in any::<u8>(), b in any::<u8>()) {
        let netlist = build_pfu_circuit(|bld, x, y| bld.sat_add(&x[..8], &y[..8]));
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(u32::from(a), u32::from(b), 4).expect("run");
        prop_assert_eq!(r as u8, a.saturating_add(b));
    }

    #[test]
    fn popcount_semantics_hold(a in any::<u32>()) {
        let netlist = build_pfu_circuit(|bld, x, _| bld.popcount(&x));
        let mut dev = through_bitstream(&netlist);
        let (r, _) = dev.run_instruction(a, 0, 4).expect("run");
        prop_assert_eq!(r, a.count_ones());
    }

    /// Bitstream word serialisation round-trips for any compiled circuit.
    #[test]
    fn bitstream_words_roundtrip(width in 1u16..16, shift in 0usize..8) {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 32);
        let c = b.input_bus("op_b", 32);
        let x = b.xor_bus(&a[..width as usize], &c[..width as usize]);
        let sh = b.shl_const(&x, shift);
        let out = b.resize(&sh, 32);
        b.output_bus("result", &out);
        let one = b.const_bit(true);
        b.output_bit("done", one);
        let netlist = b.finish().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let words = compiled.bitstream().to_words();
        let back = Bitstream::from_words(&words).expect("decode");
        prop_assert_eq!(&back, compiled.bitstream());
    }

    /// Accumulator state frames survive arbitrary save/restore points.
    #[test]
    fn state_frames_replay(adds in proptest::collection::vec(any::<u32>(), 1..12), cut in 0usize..11) {
        let netlist = proteus_fabric::library::accumulator32().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");
        let cut = cut.min(adds.len() - 1);
        let mut total = 0u32;
        for &v in &adds[..cut] {
            total = total.wrapping_add(v);
            dev.run_instruction(v, 0, 4).expect("run");
        }
        let saved = dev.save_state().expect("save");
        // Trash the device with a fresh configuration, then restore.
        dev.load(compiled.bitstream()).expect("reload");
        dev.load_state(&saved).expect("restore");
        for &v in &adds[cut..] {
            total = total.wrapping_add(v);
            let (r, _) = dev.run_instruction(v, 0, 4).expect("run");
            prop_assert_eq!(r, total);
        }
    }

    /// Registers start from the configuration's initial state bit for bit,
    /// and saved state resumes in a second device loaded from the same
    /// deserialised bitstream.
    #[test]
    fn register_init_runs_and_state_moves_between_devices(
        init in any::<u32>(),
        adds in proptest::collection::vec(any::<u32>(), 2..12),
        cut in 0usize..10,
    ) {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 32);
        let _ = b.input_bus("op_b", 32);
        let _ = b.input_bit("init");
        let acc: Vec<_> = (0..32).map(|i| b.dff_placeholder(init >> i & 1 == 1)).collect();
        let sum = b.add(&acc, &a);
        for (d, s) in acc.iter().zip(&sum) {
            b.set_dff_input(*d, *s);
        }
        b.output_bus("result", &sum);
        let one = b.const_bit(true);
        b.output_bit("done", one);
        let netlist = b.finish().expect("netlist");
        let words = compile(&netlist, FabricDims::PFU).expect("compile").bitstream().to_words();
        let bitstream = Bitstream::from_words(&words).expect("deserialise");
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(&bitstream).expect("load");

        let (r, _) = dev.run_instruction(adds[0], 0, 4).expect("run");
        prop_assert_eq!(r, init.wrapping_add(adds[0]));
        let cut = 1 + cut % (adds.len() - 1);
        let mut total = r;
        for &v in &adds[1..cut] {
            total = total.wrapping_add(v);
            let (r, _) = dev.run_instruction(v, 0, 4).expect("run");
            prop_assert_eq!(r, total);
        }
        let saved = dev.save_state().expect("save");
        let mut dev2 = Device::new(FabricDims::PFU);
        dev2.load(&bitstream).expect("load");
        dev2.load_state(&saved).expect("restore");
        for &v in &adds[cut..] {
            total = total.wrapping_add(v);
            let (r, _) = dev2.run_instruction(v, 0, 4).expect("run");
            prop_assert_eq!(r, total);
        }
    }
}
