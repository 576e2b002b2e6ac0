//! Short loops that time single public calls, for the per-layer costs
//! the traced run cannot separate: one hardware dispatch, one software
//! dispatch round trip, one dispatch-TLB lookup, one probe emission.
//!
//! Each loop runs `REPS` times and reports the median ns per call.

use std::hint::black_box;
use std::time::Instant;

use porsche::probe::{Callsite, Event, Probe, Tag};
use proteus_apps::{AppKind, WorkloadConfig, WorkloadSpec};
use proteus_cpu::coproc::{CoprocResult, Coprocessor};
use proteus_isa::OperandSel;
use proteus_rfu::{Cam, Rfu, RfuConfig, TupleKey};

use crate::median;

const REPS: usize = 5;

/// Median ns per call of `body`, which performs `calls` calls per rep.
fn time_per_call(calls: u64, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// The per-call costs, or a description of a call that misbehaved.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    /// `exec_custom` completing on a loaded, TLB1-mapped PFU, averaged
    /// over every application circuit.
    pub ns_per_hw_dispatch: f64,
    /// `exec_custom` via TLB2, `read_operand` ×2, `write_result`,
    /// `return_from_software`.
    pub ns_per_sw_roundtrip: f64,
    /// `Cam::lookup` on a full 16-entry CAM, hits and misses alternating.
    pub ns_per_tlb_lookup: f64,
    /// `Probe::emit` with no extra sinks, over a mix of kernel events.
    pub ns_per_emit: f64,
    /// `Probe::compute_span` with no extra sinks (the fast path).
    pub ns_per_compute_span: f64,
}

impl Micro {
    /// The value reported when a loop's calls misbehaved.
    pub const UNMEASURED: Micro = Micro {
        ns_per_hw_dispatch: f64::NAN,
        ns_per_sw_roundtrip: f64::NAN,
        ns_per_tlb_lookup: f64::NAN,
        ns_per_emit: f64::NAN,
        ns_per_compute_span: f64::NAN,
    };
}

/// Run every loop; `scale` multiplies the iteration counts.
pub fn measure(scale: u64) -> Result<Micro, String> {
    Ok(Micro {
        ns_per_hw_dispatch: hw_dispatch(20_000 * scale)?,
        ns_per_sw_roundtrip: sw_roundtrip(50_000 * scale)?,
        ns_per_tlb_lookup: tlb_lookup(100_000 * scale),
        ns_per_emit: emit(20_000 * scale),
        ns_per_compute_span: compute_span(50_000 * scale),
    })
}

fn hw_dispatch(calls: u64) -> Result<f64, String> {
    let mut per_circuit = Vec::new();
    for app in AppKind::ALL {
        let spec = WorkloadSpec::build(WorkloadConfig::new(app, 16, 1));
        for circuit in spec.circuits(false) {
            let mut rfu = Rfu::new(RfuConfig::default());
            rfu.pfus_mut().load(0, circuit.circuit);
            let key = TupleKey::new(1, circuit.cid);
            rfu.tlb_hw_mut().insert(0, key, 0);
            let mut bad = None;
            let ns = time_per_call(calls, || {
                for i in 0..calls {
                    let r =
                        rfu.exec_custom(1, circuit.cid, black_box(i as u32), 7, 3, 0x100, 1 << 16);
                    if !matches!(r, CoprocResult::Done { .. }) {
                        bad = Some(r);
                    }
                    black_box(r);
                }
            });
            if let Some(r) = bad {
                return Err(format!("{} hardware dispatch returned {r:?}", app.name()));
            }
            per_circuit.push(ns);
        }
    }
    Ok(per_circuit.iter().sum::<f64>() / per_circuit.len() as f64)
}

fn sw_roundtrip(calls: u64) -> Result<f64, String> {
    let mut rfu = Rfu::new(RfuConfig::default());
    rfu.tlb_sw_mut().insert(0, TupleKey::new(1, 0), 0x2000);
    let mut bad = None;
    let ns = time_per_call(calls, || {
        for i in 0..calls {
            let a = black_box(i as u32);
            match rfu.exec_custom(1, 0, a, 0x5A5A, 3, 0x100, 1 << 16) {
                CoprocResult::SoftwareDispatch { target: 0x2000, .. } => {}
                other => bad = Some(format!("software dispatch returned {other:?}")),
            }
            let x = rfu.read_operand(OperandSel::A) ^ rfu.read_operand(OperandSel::B);
            rfu.write_result(x);
            let ret = rfu.return_from_software();
            if ret.result != a ^ 0x5A5A || ret.rd != 3 || ret.ret_addr != 0x100 {
                bad = Some(format!("software return carried {ret:?}"));
            }
        }
    });
    match bad {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

fn tlb_lookup(calls: u64) -> f64 {
    let mut cam = Cam::new(16);
    for slot in 0..16u32 {
        cam.insert(slot as usize, TupleKey::new(slot + 1, (slot % 2) as u8), slot);
    }
    // Even i: a resident key at every CAM position; odd i: a miss.
    let keys: Vec<TupleKey> =
        (0..32u32).map(|i| TupleKey::new(i / 2 + 1 + (i % 2) * 100, ((i / 2) % 2) as u8)).collect();
    time_per_call(calls, || {
        for i in 0..calls as usize {
            black_box(cam.lookup(black_box(keys[i % keys.len()])));
        }
    })
}

fn emit(calls: u64) -> f64 {
    let key = TupleKey::new(1, 0);
    let events = [
        (Callsite::ContextSwitch, Event::ContextSwitch { from: Some(1), to: 2, cost: 300 }),
        (Callsite::TlbMiss, Event::Fault { key, cost: 200 }),
        (Callsite::TlbMiss, Event::TlbProgram { key, soft: false, evicted: true, cost: 20 }),
        (Callsite::Reconfiguration, Event::Eviction { key, pfu: 1 }),
        (Callsite::Reconfiguration, Event::BusTransfer { words: 4096, cost: 5000 }),
        (Callsite::Reconfiguration, Event::ConfigLoad { key, pfu: 1 }),
        (Callsite::Syscall, Event::Syscall { pid: 1, number: 3, cost: 50 }),
    ];
    let mut probe = Probe::new(0);
    time_per_call(calls, || {
        for i in 0..calls {
            let (callsite, event) = events[i as usize % events.len()];
            let pid = (i % 8) as u32 + 1;
            probe.emit(i, Tag::new(pid, callsite), black_box(event));
        }
    })
}

fn compute_span(calls: u64) -> f64 {
    let mut probe = Probe::new(0);
    time_per_call(calls, || {
        for i in 0..calls {
            let pid = (i % 8) as u32 + 1;
            probe.compute_span(i, pid, black_box(90_000), 8_000, 2_000, 400, 100);
        }
    })
}
