//! Untimed cross-checks against independent references, on a seeded
//! sample of the run's configurations, shrunk to a size the references
//! afford:
//!
//! * barrier and lock runs: the lockstep engine (`Engine::LockstepOracle`)
//!   must give results identical to the event engine's;
//! * lint-synth: `explore_oracle`, the enumerative explorer, must give the
//!   DPOR engine's findings, and the placement synthesized on it must add
//!   no outcome to the program's.

use std::panic::{catch_unwind, AssertUnwindSafe};

use armbar_analyze::lint::{analyze_case_with, ExploreFn, Finding};
use armbar_analyze::synth::synthesize_with;
use armbar_sim::{Engine, Platform};
use armbar_wmm::{explore, explore_memo_clear, explore_oracle, MemoryModel};

use crate::deck::{lint_case, Setup, Shape, UnitSpec, STRATA};
use crate::exec::{barrier_call, check_barrier, check_dlock, dlock_call};
use crate::rng::Rng;

/// Cores of the shrunk many-core platform the lockstep engine runs.
pub const ORACLE_CORES: usize = 64;
/// Barrier episodes of a shrunk barrier check.
pub const ORACLE_ROUNDS: u64 = 3;
/// Operations per client of a shrunk lock check.
pub const ORACLE_PER_CLIENT: u64 = 4;
/// Configurations checked per run.
pub const SAMPLE: usize = 3;

/// Check a seeded sample of `setup`'s deck against the references; one
/// entry per check, `Err` saying what disagreed.
#[must_use]
pub fn oracle_sample(setup: &Setup, seed: u64) -> Vec<Result<(), String>> {
    let mut rng = Rng::new(seed, 0x0AC1E);
    (0..SAMPLE)
        .map(|_| {
            let unit = setup.deck[rng.below(setup.deck.len())];
            guarded(|| check_unit(unit, &mut rng))
        })
        .collect()
}

fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panic in oracle check".to_string()))
}

fn check_unit(unit: UnitSpec, rng: &mut Rng) -> Result<(), String> {
    match unit {
        UnitSpec::Barrier(mut b) => {
            b.threads = ORACLE_CORES;
            b.rounds = ORACLE_ROUNDS;
            b.expected_rounds = ORACLE_ROUNDS;
            let platform = if b.mca {
                Platform::manycore_mca(ORACLE_CORES)
            } else {
                Platform::manycore(ORACLE_CORES)
            };
            let event = barrier_call(&platform, &b, None);
            let lockstep = barrier_call(&platform, &b, Some(Engine::LockstepOracle));
            check_barrier(&b, &event)?;
            if event != lockstep {
                return Err(format!(
                    "barrier {b:?}: event {event:?} != lockstep {lockstep:?}"
                ));
            }
            Ok(())
        }
        UnitSpec::Dlock(mut d) => {
            d.per_client = ORACLE_PER_CLIENT;
            d.expected_ops = d.clients() as u64 * ORACLE_PER_CLIENT;
            let platform = crate::deck::build_profile(d.profile);
            let event = dlock_call(&platform, &d, None);
            let lockstep = dlock_call(&platform, &d, Some(Engine::LockstepOracle));
            check_dlock(&d, &event)?;
            let same = event.result == lockstep.result
                && event.latency == lockstep.latency
                && event.fairness.to_bits() == lockstep.fairness.to_bits()
                && event.subverted == lockstep.subverted
                && event.total_ops == lockstep.total_ops;
            if !same {
                return Err(format!("lock {d:?}: event and lockstep engines disagree"));
            }
            Ok(())
        }
        UnitSpec::Lint(l) => check_lint(shrink(STRATA[l.stratum].1), rng),
    }
}

/// The smallest instance of a shape's family.
fn shrink(shape: Shape) -> Shape {
    match shape {
        Shape::Mcs { .. } => Shape::Mcs {
            handoffs: 1,
            payload: 1,
            work: 1,
        },
        Shape::Ticket { .. } | Shape::LiftedTicket => Shape::Ticket {
            rounds: 2,
            payload: 1,
            work: 1,
        },
        Shape::Pilot { .. } | Shape::LiftedPilot => Shape::Pilot { chain: 2, reads: 2 },
    }
}

fn verdicts(findings: &[Finding]) -> Vec<String> {
    findings
        .iter()
        .map(|f| {
            format!(
                "{} {} {:?} +{} -{} {}",
                f.site_label(),
                f.kind.label(),
                f.suggestion,
                f.added,
                f.removed,
                f.outcomes_base
            )
        })
        .collect()
}

fn check_lint(shape: Shape, rng: &mut Rng) -> Result<(), String> {
    let case = lint_case(shape, &[], rng);
    explore_memo_clear();
    let engine = verdicts(&analyze_case_with(&case, explore as ExploreFn));
    let oracle = verdicts(&analyze_case_with(&case, explore_oracle));
    if engine != oracle {
        return Err(format!(
            "{}: findings differ: engine {engine:?} oracle {oracle:?}",
            case.name
        ));
    }
    let synth = synthesize_with(&case, explore_oracle);
    let seed = explore_oracle(&case.program, MemoryModel::ArmWmm);
    let best = explore_oracle(&synth.best.program, MemoryModel::ArmWmm);
    let added = seed.diff(&best).added;
    if !added.is_empty() {
        return Err(format!(
            "{}: best placement adds {} outcomes",
            case.name,
            added.len()
        ));
    }
    Ok(())
}
