//! `machine_zoo`: every machine family's default scheduler, once per
//! pass, single-threaded.  The per-family step loops and the shared
//! data-path semantics do all the work; the fleet executor and the
//! service do none.  A change to one family's loop, to the shared
//! semantics or to the schedulers shows here, and on no other workload
//! except through the service's simulate jobs.

use skilltax_machine::array::ArraySubtype;
use skilltax_machine::dataflow::DataflowSubtype;
use skilltax_machine::interconnect::FabricTopology;
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::program::{Assembler, Program};
use skilltax_machine::spatial::SpatialMachine;
use skilltax_machine::universal::{Bitstream, CellConfig, LutCell, LutFabric, Source};
use skilltax_machine::workload::{
    matmul_reference, reduce_sum_reference, run_matmul_array, run_matmul_uni, run_reduce_dataflow,
};
use skilltax_machine::{FaultPlan, Instr, LinkOutage, MachineError, Stats, Word};

use crate::gen::Rng;
use crate::libwork::{layer, LibWorkload};
use crate::report::Report;
use crate::trace::{Scope, Span};

const MULTI_CORES: usize = 256;
const RING_CORES: usize = 64;
const SPATIAL_CORES: usize = 64;
const LONG_ITERS: Word = 4096;
const REDUCE_WORDS: usize = 1024;
const REDUCE_DPS: usize = 8;
const FABRIC_REGIONS: usize = 12;
const STORM_OUTAGE: u64 = 60_000;
const STORM_RETRIES: u32 = 80;
const MATMUL_DIM: usize = 16;

/// Family span names, in pass order.
const FAMILIES: [&str; 8] = [
    "multi",
    "multi.ring",
    "spatial",
    "dataflow",
    "fabric",
    "fault.resilient",
    "array",
    "uni",
];

pub struct Inputs {
    stagger: Vec<Program>,
    stagger_expect: Vec<Word>,
    ring: Vec<Program>,
    ring_expect: Vec<Word>,
    spatial: Vec<Program>,
    spatial_expect: Vec<Word>,
    reduce: Vec<Word>,
    fabric: Bitstream,
    storm: Vec<Program>,
    storm_payload: Word,
    a: Vec<Word>,
    b: Vec<Word>,
}

type Run = Result<(Vec<Word>, Stats), String>;
type Raw = Result<(Vec<Word>, Stats), MachineError>;

#[derive(Debug, PartialEq)]
pub struct Out {
    /// One result per family, in [`FAMILIES`] order.
    runs: Vec<Run>,
    storm_faults: u64,
}

/// Count to `iters`, store the count at address 0 and halt.
fn count_loop(iters: Word) -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").expect("fresh label");
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.movi(2, 0).emit(Instr::Store(2, 0)).emit(Instr::Halt);
    asm.assemble().expect("count loop assembles")
}

/// Staggered halts: one core in `every` runs long, the rest halt early.
fn staggered(cores: usize, every: usize, offset: usize) -> (Vec<Program>, Vec<Word>) {
    let iters: Vec<Word> = (0..cores)
        .map(|c| {
            if (c + offset).is_multiple_of(every) {
                LONG_ITERS
            } else {
                8
            }
        })
        .collect();
    (iters.iter().map(|&n| count_loop(n)).collect(), iters)
}

/// A backward ring: core `i > 0` sends its payload to `i - 1`, every core
/// but the last receives from `i + 1` into register 5.
fn ring(payloads: &[Word]) -> (Vec<Program>, Vec<Word>) {
    let n = payloads.len();
    let programs = (0..n)
        .map(|i| {
            let mut asm = Assembler::new();
            if i > 0 {
                asm.movi(0, payloads[i]).emit(Instr::Send(i - 1, 0));
            }
            if i + 1 < n {
                asm.emit(Instr::Recv(5, i + 1));
            }
            asm.emit(Instr::Halt);
            asm.assemble().expect("ring program assembles")
        })
        .collect();
    let expect = (0..n)
        .map(|i| if i + 1 < n { payloads[i + 1] } else { 0 })
        .collect();
    (programs, expect)
}

/// Independent delay chains on the LUT fabric: chain `r` is `r + 1`
/// registered buffers fed from constant one, so every output is high
/// after `regions` clock edges.
fn fabric_chains(regions: usize) -> Bitstream {
    let buffer = LutCell::new(1, vec![false, true]).expect("a 1-input buffer");
    let mut cells = Vec::new();
    let mut outputs = Vec::with_capacity(regions);
    for r in 0..regions {
        for j in 0..=r {
            let input = if j == 0 {
                Source::One
            } else {
                Source::Cell(cells.len() - 1)
            };
            cells.push(CellConfig {
                lut: buffer.clone(),
                inputs: vec![input],
                registered: true,
            });
        }
        outputs.push(Source::Cell(cells.len() - 1));
    }
    Bitstream { cells, outputs }
}

fn multi(subtype: u8, cores: usize) -> Result<MultiMachine, MachineError> {
    Ok(MultiMachine::new(
        MultiSubtype::from_index(subtype)?,
        cores,
        4,
    ))
}

pub struct MachineZoo;

impl LibWorkload for MachineZoo {
    const ROOT: &'static str = "machine_zoo.pass";
    type Inputs = Inputs;
    type Out = Out;

    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let (stagger, stagger_expect) = staggered(MULTI_CORES, 32, rng.below(32) as usize);
        let (spatial, spatial_expect) = staggered(SPATIAL_CORES, 16, rng.below(16) as usize);
        let payloads: Vec<Word> = (0..RING_CORES).map(|_| rng.range(1, 1 << 20)).collect();
        let (ring, ring_expect) = ring(&payloads);
        let storm_payload = rng.range(1, 1 << 20);
        let mut sender = Assembler::new();
        sender
            .movi(0, storm_payload)
            .emit(Instr::Send(1, 0))
            .emit(Instr::Halt);
        let mut receiver = Assembler::new();
        receiver.emit(Instr::Recv(5, 0)).emit(Instr::Halt);
        let mut words = |n: usize, lo: i64, hi: i64| -> Vec<Word> {
            (0..n).map(|_| rng.range(lo, hi)).collect()
        };
        Inputs {
            stagger,
            stagger_expect,
            ring,
            ring_expect,
            spatial,
            spatial_expect,
            reduce: words(REDUCE_WORDS, -1_000_000, 1_000_000),
            fabric: fabric_chains(FABRIC_REGIONS),
            storm: vec![
                sender.assemble().expect("storm sender assembles"),
                receiver.assemble().expect("storm receiver assembles"),
            ],
            storm_payload,
            a: words(MATMUL_DIM * MATMUL_DIM, -100, 100),
            b: words(MATMUL_DIM * MATMUL_DIM, -100, 100),
        }
    }

    fn op(x: &Inputs, scope: &mut Scope) -> Out {
        let err = |e: MachineError| e.to_string();
        let mut storm_faults = 0;
        let runs = vec![
            scope.call("multi", || -> Raw {
                let mut m = multi(1, MULTI_CORES)?;
                let stats = m.run(&x.stagger)?;
                let out = (0..MULTI_CORES)
                    .map(|c| m.memory().bank(c).contents()[0])
                    .collect();
                Ok((out, stats))
            }),
            scope.call("multi.ring", || -> Raw {
                let mut m = multi(2, RING_CORES)?;
                let stats = m.run(&x.ring)?;
                Ok(((0..RING_CORES).map(|c| m.core_reg(c, 5)).collect(), stats))
            }),
            scope.call("spatial", || -> Raw {
                let mut m = SpatialMachine::new(
                    MultiSubtype::from_index(1)?,
                    FabricTopology::Crossbar,
                    SPATIAL_CORES,
                    4,
                )?;
                let stats = m.run(&x.spatial)?;
                Ok((
                    (0..SPATIAL_CORES).map(|c| m.core_reg(c, 0)).collect(),
                    stats,
                ))
            }),
            scope.call("dataflow", || {
                run_reduce_dataflow(DataflowSubtype::IV, REDUCE_DPS, &x.reduce)
                    .map(|r| (r.outputs, r.stats))
            }),
            scope.call("fabric", || -> Raw {
                let mut f = LutFabric::new(x.fabric.cells.len(), 2, 0).configure(&x.fabric)?;
                let (out, stats) = f.run_until(&[], 1_000, |o| o.iter().all(|&b| b))?;
                Ok((out.into_iter().map(Word::from).collect(), stats))
            }),
            scope.call("fault.resilient", || -> Raw {
                let plan = FaultPlan::seeded(0)
                    .fail_link(LinkOutage {
                        from: 0,
                        to: 1,
                        from_cycle: 0,
                        until_cycle: STORM_OUTAGE,
                    })
                    .with_max_retries(STORM_RETRIES);
                let mut m = multi(2, 2)?;
                let outcome = m.run_resilient(&x.storm, plan)?;
                storm_faults = outcome.faults_injected;
                Ok((vec![m.core_reg(1, 5)], outcome.stats))
            }),
            scope.call("array", || {
                run_matmul_array(ArraySubtype::III, &x.a, &x.b, MATMUL_DIM)
                    .map(|r| (r.outputs, r.stats))
            }),
            scope.call("uni", || {
                run_matmul_uni(&x.a, &x.b, MATMUL_DIM).map(|r| (r.outputs, r.stats))
            }),
        ];
        Out {
            runs: runs.into_iter().map(|r| r.map_err(err)).collect(),
            storm_faults,
        }
    }

    fn check(x: &Inputs, out: &Out) -> bool {
        let product = matmul_reference(&x.a, &x.b, MATMUL_DIM);
        let expect: [Vec<Word>; 8] = [
            x.stagger_expect.clone(),
            x.ring_expect.clone(),
            x.spatial_expect.clone(),
            vec![reduce_sum_reference(&x.reduce)],
            vec![1; FABRIC_REGIONS],
            vec![x.storm_payload],
            product.clone(),
            product,
        ];
        out.runs.len() == expect.len()
            && out
                .runs
                .iter()
                .zip(&expect)
                .all(|(run, want)| matches!(run, Ok((got, _)) if got == want))
    }

    fn instructions(out: &Out) -> u64 {
        out.runs.iter().flatten().map(|(_, s)| s.instructions).sum()
    }

    fn layers(spans: &[Span], reference: &Out, report: &mut Report) -> Result<(), String> {
        let per_call = |name: &str, count: fn(&Stats) -> u64| -> Result<f64, String> {
            let i = FAMILIES.iter().position(|f| *f == name).expect("a family");
            let stats = reference.runs[i].as_ref().map_err(Clone::clone)?.1;
            let l = layer(spans, name);
            Ok(l.self_ns / (l.calls * count(&stats).max(1) as f64))
        };
        let instr = |s: &Stats| s.instructions;
        let cycles = |s: &Stats| s.cycles;
        report.set("multi.ns_per_instr", per_call("multi", instr)?);
        report.set("multi.ns_per_cycle", per_call("multi", cycles)?);
        report.set(
            "multi.ring.ns_per_msg",
            per_call("multi.ring", |s| s.messages)?,
        );
        report.set("spatial.ns_per_instr", per_call("spatial", instr)?);
        report.set("spatial.ns_per_cycle", per_call("spatial", cycles)?);
        report.set("dataflow.ns_per_instr", per_call("dataflow", instr)?);
        report.set("dataflow.ns_per_cycle", per_call("dataflow", cycles)?);
        report.set("fabric.ns_per_cycle", per_call("fabric", cycles)?);
        report.set(
            "fault.resilient.ns_per_cycle",
            per_call("fault.resilient", cycles)?,
        );
        report.set("array.ns_per_instr", per_call("array", instr)?);
        report.set("array.ns_per_cycle", per_call("array", cycles)?);
        report.set("uni.ns_per_instr", per_call("uni", instr)?);
        let shares: [(&str, &'static str); 8] = [
            ("multi", "multi.share"),
            ("multi.ring", "multi.ring.share"),
            ("spatial", "spatial.share"),
            ("dataflow", "dataflow.share"),
            ("fabric", "fabric.share"),
            ("fault.resilient", "fault.resilient.share"),
            ("array", "array.share"),
            ("uni", "uni.share"),
        ];
        for (name, metric) in shares {
            report.set(metric, layer(spans, name).share);
        }
        let storm_ok = reference.runs[5].is_ok();
        report.set("fault.faults_per_instance", reference.storm_faults as f64);
        report.set("fault.completed_frac", if storm_ok { 1.0 } else { 0.0 });
        Ok(())
    }
}
