//! Running one unit: the public call(s) into the layers, timed, then the
//! unit's invariants checked. A failed check or a panic is a failed unit,
//! never a crash of the benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use armbar_analyze::lint::{analyze_case_with, ExploreFn, Finding, FindingKind, Proof};
use armbar_analyze::synth::{chosen_point, pareto_fronts, synthesize_with};
use armbar_barriers::Barrier;
use armbar_sim::{Engine, Platform, PlatformKind};
use armbar_simapps::barrier_sim::{run_barrier_with_engine, BarrierConfig, BarrierResult};
use armbar_simapps::delegation_sim::{
    run_delegation_metrics, CsProfile, DelegationBarriers, DelegationConfig,
};
use armbar_simapps::ticket_sim::{run_ticket_metrics, TicketConfig};
use armbar_simapps::{run_mcs_metrics, DlockMetrics, McsConfig};
use armbar_wmm::{explore_memo_clear, explore_memo_stats};

use crate::deck::{
    BarrierUnit, Design, DlockUnit, LintUnit, Setup, UnitSpec, DESIGNS, FAMILIES, REPLAY_ITERS,
};
use crate::trace::span;

/// Public calls a unit makes at most (lint-synth: lint, synth, pareto).
pub const MAX_STEPS: usize = 3;

/// What one unit did. Everything except `step_ns` is deterministic for a
/// fixed unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// Host nanoseconds of each of the unit's public calls, in call order
    /// (0 past the unit's last call).
    pub step_ns: [u64; MAX_STEPS],
    /// Simulated cycles (barrier and lock runs; replay cycles of the
    /// priced front points on lint-synth).
    pub sim_cycles: u64,
    /// Barrier-stall cycles summed over cores.
    pub stall_cycles: u64,
    /// Lock operations completed.
    pub dlock_ops: u64,
    /// p99 operation latency in simulated cycles.
    pub dlock_p99_cycles: u64,
    /// Lint findings.
    pub findings: u64,
    /// Composed placements the synthesis verified.
    pub leaves_checked: u64,
    /// Subtrees the synthesis bound cut.
    pub nodes_pruned: u64,
    /// The synthesis search ran to completion.
    pub synth_complete: bool,
    /// Replay cycles the chosen placements save, summed over platforms.
    pub saved_cycles: i64,
    /// Explorer memo hits and misses during the unit.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
}

/// Run `unit` with `explorer` as the lint-synth exploration backend,
/// catching panics. `Err` carries why the unit failed.
///
/// # Errors
///
/// A failed invariant check or a panic inside the layers.
pub fn execute(setup: &Setup, unit: &UnitSpec, explorer: ExploreFn) -> Result<UnitCounts, String> {
    let depth = crate::trace::depth();
    catch_unwind(AssertUnwindSafe(|| {
        span("unit", || run(setup, unit, explorer))
    }))
    .unwrap_or_else(|panic| {
        crate::trace::unwind_to(depth);
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panic: {msg}"))
    })
}

fn run(setup: &Setup, unit: &UnitSpec, explorer: ExploreFn) -> Result<UnitCounts, String> {
    match *unit {
        UnitSpec::Barrier(b) => {
            let platform = &setup.platforms[usize::from(b.mca)];
            let t = Instant::now();
            let r = span("simapps.run_barrier", || barrier_call(platform, &b, None));
            let step_ns = [elapsed_ns(t), 0, 0];
            check_barrier(&b, &r)?;
            Ok(UnitCounts {
                step_ns,
                sim_cycles: r.cycles,
                stall_cycles: r.stall.cause_total(),
                ..UnitCounts::default()
            })
        }
        UnitSpec::Dlock(d) => {
            let platform = &setup.platforms[d.profile];
            let t = Instant::now();
            let m = span("simapps.dlock", || dlock_call(platform, &d, None));
            let step_ns = [elapsed_ns(t), 0, 0];
            check_dlock(&d, &m)?;
            Ok(UnitCounts {
                step_ns,
                sim_cycles: m.result.cycles,
                stall_cycles: m.result.stall.cause_total(),
                dlock_ops: m.total_ops,
                dlock_p99_cycles: m.latency.quantile(0.99),
                ..UnitCounts::default()
            })
        }
        UnitSpec::Lint(l) => run_lint(setup, l, explorer),
    }
}

impl UnitCounts {
    /// Host nanoseconds of the whole unit.
    #[must_use]
    pub fn host_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `run_barrier` call of `unit` (event engine unless `engine` says).
#[must_use]
pub fn barrier_call(
    platform: &Platform,
    unit: &BarrierUnit,
    engine: Option<Engine>,
) -> BarrierResult {
    let cfg = BarrierConfig {
        family: FAMILIES[unit.family].1,
        threads: unit.threads,
        rounds: unit.rounds,
        work_nops: unit.work_nops,
    };
    run_barrier_with_engine(platform, cfg, engine.unwrap_or(Engine::EventDriven))
}

/// Every barrier round completed.
///
/// # Errors
///
/// The result reports another number of rounds, or no cycles.
pub fn check_barrier(unit: &BarrierUnit, r: &BarrierResult) -> Result<(), String> {
    if r.rounds != unit.expected_rounds || r.cycles == 0 {
        return Err(format!(
            "barrier: {} rounds in {} cycles, expected {} rounds",
            r.rounds, r.cycles, unit.expected_rounds
        ));
    }
    Ok(())
}

/// The lock-run call of `unit`.
#[must_use]
pub fn dlock_call(platform: &Platform, unit: &DlockUnit, engine: Option<Engine>) -> DlockMetrics {
    let clients = unit.clients();
    match DESIGNS[unit.design].1 {
        Design::Ticket => run_ticket_metrics(
            platform,
            TicketConfig {
                threads: clients,
                global_lines: 1,
                cs_nops: 10,
                post_nops: unit.gap_nops,
                release_barrier: Barrier::DmbSt,
                per_thread: unit.per_client,
            },
            engine,
        ),
        Design::Mcs => run_mcs_metrics(
            platform,
            McsConfig {
                threads: clients,
                global_lines: 1,
                cs_nops: 10,
                post_nops: unit.gap_nops,
                acquire_barrier: Barrier::DmbLd,
                release_barrier: Barrier::DmbSt,
                per_thread: unit.per_client,
            },
            engine,
        ),
        Design::Delegation(kind, mode) => run_delegation_metrics(
            platform,
            DelegationConfig {
                kind,
                clients,
                barriers: DelegationBarriers {
                    req: Barrier::Ldar,
                    resp: Barrier::DmbSt,
                },
                mode,
                profile: CsProfile::counter(),
                per_client: unit.per_client,
                interval_nops: unit.gap_nops,
            },
            engine,
        ),
    }
}

/// Acquisitions equal clients × `per_client`, and the latency histogram
/// holds one sample per operation, except each client's last (the core
/// halts instead of marking it; `delegation_sim`'s and `mcs_sim`'s own
/// tests pin the same count).
///
/// # Errors
///
/// Either count is off.
pub fn check_dlock(unit: &DlockUnit, m: &DlockMetrics) -> Result<(), String> {
    let (acq, ops, samples) = (m.result.acquisitions, m.total_ops, m.latency.total());
    let clients = unit.clients() as u64;
    if acq != unit.expected_ops || ops != unit.expected_ops || samples + clients != ops {
        return Err(format!(
            "{}: {acq} acquisitions, {ops} ops, {samples} latency samples; expected {} ops",
            DESIGNS[unit.design].0, unit.expected_ops
        ));
    }
    Ok(())
}

fn run_lint(setup: &Setup, unit: LintUnit, explorer: ExploreFn) -> Result<UnitCounts, String> {
    let case = &setup.cases[unit.case];
    // Every `armbar-lint` invocation starts with a cold memo.
    explore_memo_clear();
    let t = Instant::now();
    let findings = span("analyze.lint", || analyze_case_with(case, explorer));
    let t_synth = Instant::now();
    let synth = span("analyze.synth", || synthesize_with(case, explorer));
    let t_pareto = Instant::now();
    let front = span("analyze.pareto", || pareto_fronts(&synth, REPLAY_ITERS));
    let step_ns = [
        elapsed_ns(t) - elapsed_ns(t_synth),
        elapsed_ns(t_synth) - elapsed_ns(t_pareto),
        elapsed_ns(t_pareto),
    ];
    let (memo_hits, memo_misses) = explore_memo_stats();

    check_findings(&case.name, &findings)?;
    if synth.best.score > synth.seed.score {
        return Err(format!(
            "{}: best placement dearer than the seed",
            case.name
        ));
    }
    let mut saved = 0;
    for kind in PlatformKind::ALL {
        let p = chosen_point(&front, kind)
            .ok_or_else(|| format!("{}: no front point on {kind:?}", case.name))?;
        if p.saved_vs_seed < 0 {
            return Err(format!(
                "{}: chosen point dearer than the seed on {kind:?}",
                case.name
            ));
        }
        saved += p.saved_vs_seed;
    }
    Ok(UnitCounts {
        step_ns,
        sim_cycles: front.iter().map(|p| p.cycles).sum(),
        findings: findings.len() as u64,
        leaves_checked: synth.leaves_checked as u64,
        nodes_pruned: synth.nodes_pruned as u64,
        synth_complete: synth.complete,
        saved_cycles: saved,
        memo_hits,
        memo_misses,
        ..UnitCounts::default()
    })
}

/// Every suggestion carries the proof its verdict needs: an outcome-set
/// proof and a rewritten program for a suggested deletion or downgrade,
/// adding no outcome; a counterexample for a missing or necessary verdict.
///
/// # Errors
///
/// Names the first finding without its proof.
pub fn check_findings(case: &str, findings: &[Finding]) -> Result<(), String> {
    for f in findings {
        let ok = match f.kind {
            FindingKind::Redundant => {
                matches!(f.proof, Proof::OutcomesEqual { .. })
                    && f.rewritten.is_some()
                    && f.added == 0
            }
            FindingKind::OverStrong => {
                matches!(
                    f.proof,
                    Proof::OutcomesEqual { .. } | Proof::OutcomesPreserved { .. }
                ) && f.rewritten.is_some()
                    && f.added == 0
            }
            FindingKind::Missing | FindingKind::Necessary => {
                matches!(f.proof, Proof::CounterExample(_))
            }
        };
        if !ok {
            return Err(format!(
                "{case}: {} finding at {} lacks its proof ({})",
                f.kind.label(),
                f.site_label(),
                f.proof_label()
            ));
        }
    }
    Ok(())
}
