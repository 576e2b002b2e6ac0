//! Cross-crate integration: full machines running mixed workloads.

use porsche::cis::DispatchMode;
use porsche::kernel::{KernelConfig, SpawnSpec};
use porsche::process::CircuitSpec;
use proteus::machine::{Machine, MachineConfig};
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::RfuConfig;

/// The paper's headline scenario writ small: all three applications at
/// once, contending for 4 PFUs, every result checksum-validated.
#[test]
fn mixed_application_workload_validates() {
    let specs: Vec<WorkloadSpec> = [
        WorkloadConfig::new(AppKind::Alpha, 128, 12),
        WorkloadConfig::new(AppKind::Twofish, 8, 12),
        WorkloadConfig::new(AppKind::Echo, 256, 12),
    ]
    .into_iter()
    .map(WorkloadSpec::build)
    .collect();

    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 20_000, ..KernelConfig::default() },
        rfu: RfuConfig::default(),
    });
    // Two instances of each: 2*1 + 2*1 + 2*2 = 6 circuits on 4 PFUs.
    let mut expected = Vec::new();
    for spec in &specs {
        for _ in 0..2 {
            let pid = machine.spawn(spec.spawn_spec(false)).expect("spawn");
            expected.push((pid, spec.expected_checksum()));
        }
    }
    let report = machine.run(2_000_000_000).expect("run");
    assert!(report.killed.is_empty(), "{report:?}");
    for (pid, checksum) in expected {
        let (_, _, code) =
            report.exited.iter().find(|(p, _, _)| *p == pid).expect("process exited");
        assert_eq!(*code, checksum, "pid {pid}");
    }
    assert!(report.stats.evictions > 0, "6 circuits on 4 PFUs must contend: {:?}", report.stats);
}

/// Dispatch TLBs survive context switches because they match on the
/// (PID, CID) tuple — two processes with the same CID never collide.
#[test]
fn same_cid_different_processes_do_not_interfere() {
    let program = proteus_isa::assemble(
        "start:\n\
         \x20   ldr r4, =500\n\
         loop:\n\
         \x20   pfu 0, r2, r0, r1\n\
         \x20   add r0, r2, #1\n\
         \x20   subs r4, r4, #1\n\
         \x20   bne loop\n\
         \x20   swi #0\n",
    )
    .expect("asm");
    let entry = program.symbol("start").expect("start");
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 1_000, ..KernelConfig::default() },
        rfu: RfuConfig::default(),
    });
    // Process 1 adds 1 per custom instruction, process 2 adds 1000: if
    // dispatch ever confused the tuples, the exit codes would mix.
    let p1 = machine
        .spawn(SpawnSpec::new(&program).entry(entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("inc1", 2, 4, |a, _| a + 1)),
            software_alt: None, image: None }))
        .expect("spawn");
    let p2 = machine
        .spawn(SpawnSpec::new(&program).entry(entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("inc1000", 2, 4, |a, _| a + 1000)),
            software_alt: None, image: None }))
        .expect("spawn");
    let report = machine.run(100_000_000).expect("run");
    // Each loop iteration computes r0 = f(r0) + 1.
    let f1 = report.exited.iter().find(|(p, _, _)| *p == p1).expect("p1").2;
    let f2 = report.exited.iter().find(|(p, _, _)| *p == p2).expect("p2").2;
    assert_eq!(f1, 1000, "p1: 500 iterations of +2");
    assert_eq!(f2, 500_500, "p2: 500 iterations of +1001");
}

/// A tiny dispatch TLB forces mapping faults (§4.2) but never wrong
/// results, and mapping faults must dwarf configuration loads.
#[test]
fn tlb_thrash_is_correct_and_cheap() {
    let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 64, 10));
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 10_000, ..KernelConfig::default() },
        rfu: RfuConfig { tlb_capacity: 2, ..RfuConfig::default() },
    });
    for _ in 0..4 {
        machine.spawn(spec.spawn_spec(false)).expect("spawn");
    }
    let report = machine.run(2_000_000_000).expect("run");
    assert!(report.killed.is_empty());
    for (_, _, code) in &report.exited {
        assert_eq!(*code, spec.expected_checksum());
    }
    // 4 tuples on 2 TLB slots: mapping faults happen, but since all four
    // circuits stay resident there are no reloads after the first four.
    assert!(report.stats.mapping_faults > 0, "{:?}", report.stats);
    assert_eq!(report.stats.config_loads, 4, "{:?}", report.stats);
}

/// Exercising §4.3 corner: the software alternative ABI is entered from
/// arbitrary loop positions and must preserve the process's registers.
#[test]
fn software_dispatch_preserves_application_registers() {
    // r6..r9 carry sentinel values across the custom instruction; the
    // software alternative clobbers lots of registers internally.
    let program = proteus_isa::assemble(
        "start:\n\
         \x20   ldr r6, =0x61616161\n\
         \x20   ldr r7, =0x62626262\n\
         \x20   ldr r8, =0x63636363\n\
         \x20   ldr r9, =0x64646464\n\
         \x20   mov r0, #21\n\
         \x20   mov r1, #2\n\
         \x20   pfu 0, r2, r0, r1\n\
         \x20   ldr r3, =0x61616161\n\
         \x20   cmp r6, r3\n\
         \x20   bne fail\n\
         \x20   ldr r3, =0x64646464\n\
         \x20   cmp r9, r3\n\
         \x20   bne fail\n\
         \x20   mov r0, r2\n\
         \x20   swi #0\n\
         fail:\n\
         \x20   mov r0, #0\n\
         \x20   swi #0\n\
         sw_mul:\n\
         \x20   push {r0-r9}\n\
         \x20   ldop r0, a\n\
         \x20   ldop r1, b\n\
         \x20   mul r2, r0, r1\n\
         \x20   mov r6, #0\n\
         \x20   mov r7, #0\n\
         \x20   mov r8, #0\n\
         \x20   mov r9, #0\n\
         \x20   stres r2\n\
         \x20   pop {r0-r9}\n\
         \x20   retsd\n",
    )
    .expect("asm");
    let entry = program.symbol("start").expect("start");
    let sw = program.symbol("sw_mul");
    // Decoy occupies the only PFU so the instruction dispatches to
    // software.
    let decoy = proteus_isa::assemble(
        "start: ldr r2, =4000\nloop: pfu 0, r1, r0, r0\n subs r2, r2, #1\n bne loop\n mov r0, #0\n swi #0\n",
    )
    .expect("asm");
    let decoy_entry = decoy.symbol("start").expect("start");
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig {
            quantum: 5_000,
            mode: DispatchMode::SoftwareFallback,
            ..KernelConfig::default()
        },
        rfu: RfuConfig { pfus: 1, ..RfuConfig::default() },
    });
    machine
        .spawn(SpawnSpec::new(&decoy).entry(decoy_entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("spin", 30, 4, |a, _| a)),
            software_alt: None, image: None }))
        .expect("spawn decoy");
    let p = machine
        .spawn(SpawnSpec::new(&program).entry(entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("mul", 2, 4, |a, b| a.wrapping_mul(b))),
            software_alt: sw, image: None }))
        .expect("spawn");
    let report = machine.run(200_000_000).expect("run");
    let code = report.exited.iter().find(|(pid, _, _)| *pid == p).expect("exited").2;
    assert_eq!(code, 42, "registers must survive software dispatch");
    assert!(report.stats.software_installs >= 1, "{:?}", report.stats);
}

/// Killing a process frees its PFUs and TLB entries for the survivors.
#[test]
fn killed_process_releases_resources() {
    // This process touches an unmapped address after some circuit use.
    let bad = proteus_isa::assemble(
        "start:\n\
         \x20   mov r0, #1\n\
         \x20   pfu 0, r1, r0, r0\n\
         \x20   ldr r2, =0x0FFFFFF0\n\
         \x20   ldr r3, [r2]\n\
         \x20   swi #0\n",
    )
    .expect("asm");
    let entry = bad.symbol("start").expect("start");
    let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 64, 4));
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 20_000, ..KernelConfig::default() },
        rfu: RfuConfig { pfus: 1, ..RfuConfig::default() },
    });
    let killed = machine
        .spawn(SpawnSpec::new(&bad).entry(entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("id", 1, 4, |a, _| a)),
            software_alt: None, image: None }))
        .expect("spawn");
    let good = machine.spawn(spec.spawn_spec(false)).expect("spawn");
    let report = machine.run(2_000_000_000).expect("run");
    assert_eq!(report.killed, vec![killed]);
    let (_, _, code) = report.exited.iter().find(|(p, _, _)| *p == good).expect("survivor");
    assert_eq!(*code, spec.expected_checksum(), "survivor unaffected by the kill");
}

/// Regression: a tuple dispatched to software must STAY on the software
/// path even when its TLB2 entry is evicted and a PFU has freed up in
/// the meantime. Migrating it back to fresh hardware mid-protocol would
/// desynchronise stateful instructions whose shadow state lives in
/// process memory (twofish's 5-invocation phase machine). Found by the
/// full-scale dynamic-load experiment.
#[test]
fn software_dispatched_tuple_never_migrates_back_to_hardware() {
    use proteus_apps::twofish::BlockCircuit;
    use proteus_apps::workload::TWOFISH_KEY;
    // A twofish job forced onto the software path by a decoy holding the
    // single PFU; TLB capacity 1 makes every other fault evict entries;
    // the decoy exits midway, freeing the PFU — the trap.
    let tf = WorkloadSpec::build(WorkloadConfig::new(AppKind::Twofish, 24, 4));
    let decoy = proteus_isa::assemble(
        "start: ldr r2, =1500
loop: pfu 0, r1, r0, r0
 subs r2, r2, #1
 bne loop
 mov r0, #0
 swi #0
",
    )
    .expect("asm");
    let decoy_entry = decoy.symbol("start").expect("start");
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig {
            quantum: 5_000,
            mode: DispatchMode::SoftwareFallback,
            ..KernelConfig::default()
        },
        rfu: RfuConfig { pfus: 1, tlb_capacity: 1, ..RfuConfig::default() },
    });
    machine
        .spawn(SpawnSpec::new(&decoy).entry(decoy_entry).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("spin", 30, 4, |a, _| a)),
            software_alt: None,
            image: None,
        }))
        .expect("spawn decoy");
    let tf_pid = machine.spawn(tf.spawn_spec(true)).expect("spawn twofish");
    // Sanity: the block circuit would be loadable if the kernel
    // (incorrectly) migrated back to hardware.
    let _ = BlockCircuit::new(&TWOFISH_KEY);
    let report = machine.run(5_000_000_000).expect("run");
    assert!(report.killed.is_empty(), "{report:?}");
    let (_, _, code) = report.exited.iter().find(|(p, _, _)| *p == tf_pid).expect("exited");
    assert_eq!(*code, tf.expected_checksum(), "stateful soft dispatch must stay coherent");
    assert!(report.stats.software_installs >= 1, "{:?}", report.stats);
}

/// The kernel's event trace records a coherent timeline: spawn before
/// dispatch, fault before its resolution, exit last.
#[test]
fn event_trace_orders_the_management_story() {
    let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 64, 6));
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 10_000, trace_capacity: 4096, ..KernelConfig::default() },
        rfu: RfuConfig { pfus: 1, ..RfuConfig::default() },
    });
    for _ in 0..2 {
        machine.spawn(spec.spawn_spec(false)).expect("spawn");
    }
    machine.run(2_000_000_000).expect("run");
    let events = machine.kernel().trace().snapshot();
    assert!(!events.is_empty());
    // Cycles are monotonically non-decreasing.
    for pair in events.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "{pair:?}");
    }
    use porsche::trace::Event;
    let idx_of = |pred: &dyn Fn(&Event) -> bool| events.iter().position(|(_, _, e)| pred(e));
    let first_spawn = idx_of(&|e| matches!(e, Event::Spawn { .. })).expect("spawn");
    let first_fault = idx_of(&|e| matches!(e, Event::Fault { .. })).expect("fault");
    let first_load = idx_of(&|e| matches!(e, Event::ConfigLoad { .. })).expect("load");
    let first_exit = idx_of(&|e| matches!(e, Event::Exit { .. })).expect("exit");
    assert!(first_spawn < first_fault && first_fault < first_load && first_load < first_exit);
    // Two processes fighting over one PFU must show evictions in the
    // timeline, and every fault precedes some resolution event.
    assert!(events.iter().any(|(_, _, e)| matches!(e, Event::Eviction { .. })));
    let first_key = proteus_rfu::TupleKey::new(1, 0);
    assert!(
        events.iter().any(|(_, _, e)| matches!(e, Event::ConfigLoad { key, .. } if *key == first_key)),
        "pid 1's circuit 0 is loaded"
    );
}

/// Guest console output works through the kernel syscall layer.
#[test]
fn console_hello_world() {
    let mut source = String::from("start:\n");
    for byte in b"hello, proteus\n" {
        source.push_str(&format!("    mov r0, #{byte}\n    swi #2\n"));
    }
    source.push_str("    mov r0, #0\n    swi #0\n");
    let program = proteus_isa::assemble(&source).expect("asm");
    let entry = program.symbol("start").expect("start");
    let mut machine = Machine::new(MachineConfig::default());
    let pid = machine.spawn(SpawnSpec::new(&program).entry(entry)).expect("spawn");
    machine.run(10_000_000).expect("run");
    assert_eq!(machine.kernel().console_of(pid), Some(b"hello, proteus\n".as_slice()));
}
