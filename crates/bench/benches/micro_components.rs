//! Substrate microbenchmarks: how expensive are the pieces the
//! experiments are built from? Useful when tuning the simulator and as
//! an ablation of where host time goes.

use criterion::{criterion_group, criterion_main, Criterion};
use porsche::kernel::{Kernel, KernelConfig, SpawnSpec};
use proteus_apps::twofish::{BlockCircuit, Twofish};
use proteus_apps::workload::TWOFISH_KEY;
use proteus_apps::{alpha, echo, AppKind, WorkloadConfig, WorkloadSpec};
use proteus_cpu::{CoprocResult, Coprocessor, Cpu, Memory, NullCoprocessor, Stop};
use proteus_fabric::place::FabricDims;
use proteus_fabric::{compile, library, Device};
use proteus_isa::{assemble, decode, encode, Instr};
use proteus_rfu::{Cam, PfuCircuit, Rfu, RfuConfig, TupleKey};

fn bench_isa(c: &mut Criterion) {
    let program = assemble(
        "start: ldr r1, =4096\nloop: subs r1, r1, #1\n add r2, r2, r1\n bne loop\n swi #0\n",
    )
    .expect("asm");
    c.bench_function("isa/decode_word", |b| {
        let word = program.words()[1];
        b.iter(|| decode(std::hint::black_box(word)).expect("decode"))
    });
    c.bench_function("isa/encode_roundtrip", |b| {
        let instr: Vec<Instr> = program.words().iter().map(|&w| decode(w).expect("decode")).collect();
        b.iter(|| instr.iter().map(|&i| encode(i)).fold(0u32, u32::wrapping_add))
    });
    c.bench_function("cpu/interpret_16k_cycles", |b| {
        b.iter(|| {
            let mut mem = Memory::new(64 * 1024);
            mem.load_program(&program).expect("load");
            let mut cpu = Cpu::new();
            cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
            cpu.cycles()
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    let netlist = library::alpha_blend_channel().expect("netlist");
    c.bench_function("fabric/compile_alpha_blend", |b| {
        b.iter(|| compile(&netlist, FabricDims::PFU).expect("compile"))
    });
    let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
    c.bench_function("fabric/device_load_54kB", |b| {
        let mut dev = Device::new(FabricDims::PFU);
        b.iter(|| dev.load(compiled.bitstream()).expect("load"))
    });
    c.bench_function("fabric/gate_level_blend_instruction", |b| {
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");
        b.iter(|| dev.run_instruction(0x80C8, 0x28, 8).expect("run"))
    });
}

fn bench_twofish(c: &mut Criterion) {
    let tf = Twofish::new(b"benchmark-key-01");
    c.bench_function("twofish/encrypt_block", |b| {
        let pt = [7u8; 16];
        b.iter(|| tf.encrypt_block(std::hint::black_box(&pt)))
    });
    c.bench_function("twofish/key_schedule", |b| {
        b.iter(|| Twofish::new(std::hint::black_box(b"benchmark-key-01")))
    });
}

/// A unit with `circuit` resident on PFU 0 and `(PID 1, CID 0)` mapped
/// to it in TLB1, the PID register set: every issue is a hardware hit.
fn rfu_with(circuit: Box<dyn PfuCircuit>) -> Rfu {
    let mut rfu = Rfu::new(RfuConfig::default());
    rfu.pfus_mut().load(0, circuit);
    rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
    rfu.write_reg(15, 1);
    rfu
}

/// Operations per timed iteration in the dispatch benches: the harness
/// reads the clock after every iteration, which would swamp a
/// nanosecond-scale operation. Reported times are per 1000 operations,
/// so µs read as ns per operation.
const OPS_PER_ITER: u32 = 1000;

/// A workload circuit constructor.
type MakeCircuit = fn() -> Box<dyn PfuCircuit>;

fn bench_dispatch(c: &mut Criterion) {
    // Figure 1's hardware path per workload circuit: TLB1 match, PFU
    // `run_clocks`, completion. The budget always covers the latency,
    // so each issue completes (Twofish walks its five-phase protocol).
    let circuits: [(&str, MakeCircuit); 4] = [
        ("alpha", alpha::blend_circuit),
        ("echo_scale", echo::scale_circuit),
        ("echo_sat_add", echo::sat_add_circuit),
        ("twofish", || Box::new(BlockCircuit::new(&TWOFISH_KEY))),
    ];
    for (name, make) in circuits {
        c.bench_function(format!("rfu/hw_dispatch/{name}"), |b| {
            let mut rfu = rfu_with(make());
            b.iter(|| {
                let mut acc = 0u32;
                for op in 0..OPS_PER_ITER {
                    match rfu.exec_custom(1, 0, std::hint::black_box(op), 0x80C8, 5, 0x100, 1 << 16) {
                        CoprocResult::Done { value, .. } => acc = acc.wrapping_add(value),
                        other => panic!("expected a hardware completion, got {other:?}"),
                    }
                }
                acc
            })
        });
    }

    // A full 16-slot TLB: the worst-case hit (last slot) and a miss.
    let mut cam = Cam::new(16);
    for slot in 0..16u32 {
        cam.insert(slot as usize, TupleKey::new(slot + 1, (slot % 4) as u8), slot);
    }
    for (name, key, expect) in
        [("hit_last", TupleKey::new(16, 3), Some(15)), ("miss", TupleKey::new(17, 0), None)]
    {
        assert_eq!(cam.lookup(key), expect);
        c.bench_function(format!("rfu/cam_lookup_16/{name}"), |b| {
            b.iter(|| (0..OPS_PER_ITER).filter(|_| cam.lookup(std::hint::black_box(key)).is_some()).count())
        });
    }

    // The alpha guest's pixel loop interpreted by `Cpu::run` against a
    // real `Rfu`: interpretation plus one hardware dispatch per pixel.
    let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 256, 4));
    let entry = spec.program().symbol("start").expect("guest programs define start");
    c.bench_function("cpu/pfu_loop_rfu", |b| {
        b.iter(|| {
            let mut mem = Memory::new(64 * 1024);
            mem.load_program(spec.program()).expect("load");
            let mut cpu = Cpu::new();
            cpu.set_reg(13, 64 * 1024);
            cpu.set_pc(entry);
            let mut rfu = rfu_with(alpha::blend_circuit());
            let stop = cpu.run(&mut mem, &mut rfu, u64::MAX);
            assert_eq!(stop, Stop::Swi { imm: 0 });
            assert_eq!(cpu.reg(0), spec.expected_checksum());
            cpu.cycles()
        })
    });
}

fn bench_kernel(c: &mut Criterion) {
    let program = assemble("start: ldr r1, =256\nloop: swi #1\n subs r1, r1, #1\n bne loop\n mov r0, #0\n swi #0\n")
        .expect("asm");
    c.bench_function("kernel/512_context_switches", |b| {
        b.iter(|| {
            let mut kernel = Kernel::new(KernelConfig::default());
            let entry = program.symbol("start").expect("start");
            kernel.spawn(SpawnSpec::new(&program).entry(entry)).expect("spawn");
            kernel.spawn(SpawnSpec::new(&program).entry(entry)).expect("spawn");
            let mut cpu = Cpu::new();
            let mut rfu = Rfu::new(RfuConfig::default());
            kernel.run(&mut cpu, &mut rfu, 1_000_000_000).expect("run").stats.context_switches
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(20);
    targets = bench_isa, bench_fabric, bench_twofish, bench_dispatch, bench_kernel
}
criterion_main!(benches);
