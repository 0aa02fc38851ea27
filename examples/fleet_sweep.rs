//! Fleet-scale sweeps: the structure-of-arrays batch executor.
//!
//! Runs the same machine swarm twice — once as N independent sequential
//! simulations, once as one [`UniFleet`] / [`ArrayFleet`] stepping all N
//! instances in lockstep over contiguous per-field lanes — and checks
//! the hard contract from DESIGN.md §14: per-instance `Stats` are
//! bit-identical, so the fleet is purely a layout/throughput choice,
//! never a semantics choice.  Three sweeps:
//!
//! 1. a uni-processor parameter sweep with data-dependent divergence
//!    (each instance spins a different bound, so pc-cohorts regroup),
//! 2. a chunked fleet across worker threads (contiguous instance ranges,
//!    one sub-fleet per worker),
//! 3. a seeded Monte-Carlo fault study on an array machine, fleet vs
//!    per-seed `run_resilient`.
//!
//! Run with: `cargo run --release --example fleet_sweep`

use std::time::Instant;

use skilltax::machine::array::ArraySubtype;
use skilltax::machine::cancel::CancelToken;
use skilltax::machine::fleet::{
    chunked_results, run_uni_fleet_chunked, FleetExec, LaneKernels, UniFleet,
};
use skilltax::machine::isa::Instr;
use skilltax::machine::program::{Assembler, Program};
use skilltax::machine::uniprocessor::UniProcessor;
use skilltax::machine::workload::run_fault_monte_carlo_array;
use skilltax::machine::Word;

/// Spin until `r0` reaches the bound preloaded at `mem[0]` — the
/// divergence workload: every instance loops a different number of
/// times, so the fleet's lockstep cohorts split and re-merge.
fn spin_program() -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(2, 0).emit(Instr::Load(1, 2));
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

fn bound(i: usize) -> Word {
    200 + (i * 13 % 97) as Word
}

fn main() {
    let program = spin_program();
    let n = 256;

    // 1. Parameter sweep: fleet vs N sequential uni-processors.
    let start = Instant::now();
    let sequential: Vec<_> = (0..n)
        .map(|i| {
            let mut m = UniProcessor::new(2);
            m.memory_mut().bank_mut(0).write(0, bound(i));
            m.run(&program)
        })
        .collect();
    let sequential_wall = start.elapsed();

    let start = Instant::now();
    let mut fleet = UniFleet::new(n, 2);
    for i in 0..n {
        fleet.write_mem(i, 0, bound(i));
    }
    let fleet_results = fleet.run(&program);
    let fleet_wall = start.elapsed();

    assert_eq!(sequential, fleet_results, "fleet must be bit-identical");
    let cycles: u64 = fleet_results
        .iter()
        .map(|r| r.as_ref().unwrap().cycles)
        .sum();
    println!("uni swarm      n={n}: {cycles} total cycles, identical per-instance stats");
    println!(
        "  sequential {:>10.1?}   fleet {:>10.1?}",
        sequential_wall, fleet_wall
    );

    // 2. The same swarm chunked across worker threads: still identical.
    let chunks = run_uni_fleet_chunked(
        n,
        2,
        1_000_000,
        &CancelToken::new(),
        &program,
        LaneKernels::default(),
        |global, fleet, local| fleet.write_mem(local, 0, bound(global)),
        0, // resolve via SKILLTAX_FLEET_THREADS / SKILLTAX_THREADS
    );
    let workers = chunks.len();
    assert_eq!(chunked_results(chunks), fleet_results);
    println!("chunked fleet  n={n}: {workers} chunk(s), results identical to one big fleet");

    // 3. Monte-Carlo fault study on IAP-III: each seed is one instance;
    //    the fleet injects the same seeded stalls and bit flips in the
    //    same order as per-seed `run_resilient`.
    let seeds: Vec<u64> = (0..64).map(|s| s * 11 + 5).collect();
    let seq = run_fault_monte_carlo_array(
        ArraySubtype::III,
        4,
        &seeds,
        0.2,
        0.05,
        FleetExec::Sequential,
    );
    let flt =
        run_fault_monte_carlo_array(ArraySubtype::III, 4, &seeds, 0.2, 0.05, FleetExec::fleet());
    assert_eq!(seq, flt, "fault study must be bit-identical");
    let completed = flt.iter().filter(|r| r.is_ok()).count();
    let faults: u64 = flt
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|o| o.faults_injected))
        .sum();
    println!(
        "fault study    {} seeds on {}: {completed} completed, {faults} faults injected, \
         fleet == per-seed run_resilient",
        seeds.len(),
        ArraySubtype::III.class_name(),
    );
}
