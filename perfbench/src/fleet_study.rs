//! `fleet_study`: the structure-of-arrays fleet executor on its own.
//! One op is a divergent uni swarm, a lockstep IAP-III swarm and a
//! Monte-Carlo fault study over IAP-I..IV, all through the default
//! fleet path, single-threaded.  The service and the schedulers do no
//! work here, so a change to the fleet's kernels shows on this workload
//! and nowhere else; divergent and lockstep swarms use the fleet in
//! opposite ways, so a kernel change that helps one and hurts the other
//! shows too.

use skilltax_machine::array::ArraySubtype;
use skilltax_machine::fleet::FleetExec;
use skilltax_machine::workload::{
    run_fault_monte_carlo_array, run_spin_swarm_uni, run_vector_add_swarm_array,
};
use skilltax_machine::{RunOutcome, Stats};

use crate::gen::Rng;
use crate::libwork::{layer, LibWorkload};
use crate::report::Report;
use crate::stats::percentile;
use crate::trace::{Scope, Span};

const UNI_INSTANCES: usize = 256;
const ARRAY_INSTANCES: usize = 1024;
const ARRAY_LANES: usize = 16;
/// Monte-Carlo population per op, split evenly over IAP-I..IV.
const MC_SEEDS: usize = 256;
const MC_LANES: usize = 16;
const STALL_RATE: f64 = 0.05;
const FLIP_RATE: f64 = 0.01;

pub struct Inputs {
    base_iters: i64,
    mc_seeds: Vec<u64>,
}

#[derive(Debug, PartialEq)]
pub struct Out {
    uni: Result<Stats, String>,
    array: Result<Stats, String>,
    faulted: Vec<Result<RunOutcome, String>>,
}

pub struct FleetStudy;

impl LibWorkload for FleetStudy {
    const ROOT: &'static str = "fleet_study.op";
    type Inputs = Inputs;
    type Out = Out;

    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        Inputs {
            // A narrow band: the seed moves the data, not the work size.
            base_iters: rng.range(148, 152),
            mc_seeds: (0..MC_SEEDS).map(|_| rng.next_u64()).collect(),
        }
    }

    fn op(inputs: &Inputs, scope: &mut Scope) -> Out {
        let uni = scope.call("fleet.uni_divergent", || {
            run_spin_swarm_uni(UNI_INSTANCES, inputs.base_iters, FleetExec::fleet())
        });
        let array = scope.call("fleet.array_lockstep", || {
            run_vector_add_swarm_array(
                ArraySubtype::III,
                ARRAY_INSTANCES,
                ARRAY_LANES,
                FleetExec::fleet(),
            )
        });
        let faulted = scope.call("fleet.array_faulted", || {
            ArraySubtype::ALL
                .iter()
                .zip(inputs.mc_seeds.chunks(MC_SEEDS / ArraySubtype::ALL.len()))
                .flat_map(|(&subtype, seeds)| {
                    run_fault_monte_carlo_array(
                        subtype,
                        MC_LANES,
                        seeds,
                        STALL_RATE,
                        FLIP_RATE,
                        FleetExec::fleet(),
                    )
                })
                .collect::<Vec<_>>()
        });
        Out {
            uni: uni.map_err(|e| e.to_string()),
            array: array.map_err(|e| e.to_string()),
            faulted: faulted
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect(),
        }
    }

    /// The swarms gate their own outputs (the vector-add swarm checks
    /// every lane against `x + y` and fails the call otherwise); what is
    /// left is that every call and every Monte-Carlo seed completed.
    /// Stats are gated by `libwork::run` against the seed's first op.
    fn check(_: &Inputs, out: &Out) -> bool {
        out.uni.is_ok()
            && out.array.is_ok()
            && out.faulted.len() == MC_SEEDS
            && out.faulted.iter().all(Result::is_ok)
    }

    fn instructions(out: &Out) -> u64 {
        let stats = |r: &Result<Stats, String>| r.as_ref().map_or(0, |s| s.instructions);
        stats(&out.uni)
            + stats(&out.array)
            + out
                .faulted
                .iter()
                .map(|r| r.as_ref().map_or(0, |o| o.stats.instructions))
                .sum::<u64>()
    }

    fn layers(spans: &[Span], reference: &Out, report: &mut Report) -> Result<(), String> {
        let instr = |r: &Result<Stats, String>| r.as_ref().map_or(0, |s| s.instructions);
        let faulted_instr: u64 = reference
            .faulted
            .iter()
            .map(|r| r.as_ref().map_or(0, |o| o.stats.instructions))
            .sum();
        let layers: [(&str, u64, [&'static str; 4]); 3] = [
            (
                "fleet.uni_divergent",
                instr(&reference.uni),
                [
                    "fleet.uni_divergent.ns_per_instr",
                    "fleet.uni_divergent.share",
                    "fleet.uni_divergent.ms_p50",
                    "fleet.uni_divergent.ms_p99",
                ],
            ),
            (
                "fleet.array_lockstep",
                instr(&reference.array),
                [
                    "fleet.array_lockstep.ns_per_instr",
                    "fleet.array_lockstep.share",
                    "fleet.array_lockstep.ms_p50",
                    "fleet.array_lockstep.ms_p99",
                ],
            ),
            (
                "fleet.array_faulted",
                faulted_instr,
                [
                    "fleet.array_faulted.ns_per_instr",
                    "fleet.array_faulted.share",
                    "fleet.array_faulted.ms_p50",
                    "fleet.array_faulted.ms_p99",
                ],
            ),
        ];
        for (name, instr, [per_instr, share, p50, p99]) in layers {
            let l = layer(spans, name);
            report.set(per_instr, l.self_ns / (l.calls * instr.max(1) as f64));
            report.set(share, l.share);
            report.set(p50, percentile(&l.durs_ms, 50.0)?);
            report.set(p99, percentile(&l.durs_ms, 99.0)?);
        }
        let outcomes: Vec<&RunOutcome> = reference.faulted.iter().flatten().collect();
        let faults: u64 = outcomes.iter().map(|o| o.faults_injected).sum();
        let completed = outcomes.iter().filter(|o| !o.degraded).count();
        report.set("fault.faults_per_instance", faults as f64 / MC_SEEDS as f64);
        report.set("fault.completed_frac", completed as f64 / MC_SEEDS as f64);
        Ok(())
    }
}
