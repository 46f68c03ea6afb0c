//! The benchmark's own checks: deterministic work per seed, and failures
//! that land in `error_rate` instead of crashing the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use armbar_perfbench::bench::{run, Report, RunOpts, Tally};
use armbar_perfbench::deck::{setup, Setup, UnitSpec, Workload, STRATA};
use armbar_perfbench::exec::{execute, UnitCounts};
use armbar_wmm::{explore, explore_dpor_uncached, MemoryModel};

/// The explorer memo and its counters are process-wide, and lint units
/// clear them: tests that run units take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cheapest deck unit of each kind the deck holds, by a static proxy:
/// fewest threads, fewest cores, smallest program.
fn cheapest(s: &Setup) -> usize {
    let weight = |u: &UnitSpec| match u {
        UnitSpec::Barrier(b) => b.threads,
        UnitSpec::Dlock(d) => d.cores * 100 + d.design,
        UnitSpec::Lint(l) => s.cases[l.case]
            .program
            .threads
            .iter()
            .map(|t| t.instrs.len())
            .sum(),
    };
    (0..s.deck.len())
        .min_by_key(|&i| weight(&s.deck[i]))
        .expect("non-empty deck")
}

fn without_time(c: UnitCounts) -> UnitCounts {
    UnitCounts {
        step_ns: [0; 3],
        ..c
    }
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let _turn = serial();
    for w in Workload::ALL {
        let a = setup(w, 11);
        let b = setup(w, 11);
        let u = cheapest(&a);
        let ca = execute(&a, &a.deck[u], explore).expect("unit passes");
        let cb = execute(&b, &b.deck[u], explore).expect("unit passes");
        assert_eq!(without_time(ca), without_time(cb), "{}", w.name());
        assert!(ca.host_ns() > 0);
    }
}

#[test]
fn seeds_change_the_lint_inputs_but_not_the_work() {
    let a = setup(Workload::LintSynth, 1);
    let b = setup(Workload::LintSynth, 2);
    for (x, y) in a.deck.iter().zip(&b.deck) {
        let (UnitSpec::Lint(x), UnitSpec::Lint(y)) = (x, y) else {
            unreachable!("lint deck holds lint units")
        };
        assert_eq!(x.stratum, y.stratum);
        let (px, py) = (&a.cases[x.case].program, &b.cases[y.case].program);
        if STRATA[x.stratum].0 == "ticket_lock.s" {
            assert_ne!(px, py, "relabelling changes the program");
            let sx = explore_dpor_uncached(px, MemoryModel::ArmWmm, 1);
            let sy = explore_dpor_uncached(py, MemoryModel::ArmWmm, 1);
            assert_eq!(sx.outcomes.len(), sy.outcomes.len());
            assert_eq!(
                (sx.states_visited, sx.states_pruned),
                (sy.states_visited, sy.states_pruned)
            );
        }
    }
}

#[test]
fn a_wrong_expected_value_is_a_failed_unit_not_a_crash() {
    let _turn = serial();
    let mut s = setup(Workload::DlockGrid, 5);
    let u = cheapest(&s);
    let UnitSpec::Dlock(d) = &mut s.deck[u] else {
        unreachable!("dlock deck holds lock units")
    };
    d.expected_ops += 1;
    let mut tally = Tally::new(s.deck.len());
    tally.run(&s, &[u, u], explore, |_, _| {});
    assert_eq!((tally.attempted, tally.failures.len()), (2, 2));
    assert!(tally.best_ns[u].is_none());
    assert!(
        tally.failures[0].contains("expected"),
        "{}",
        tally.failures[0]
    );
}

#[test]
fn a_panicking_unit_is_a_failed_unit_not_a_crash() {
    let _turn = serial();
    let mut s = setup(Workload::ManycoreBarrier, 5);
    let u = cheapest(&s);
    let UnitSpec::Barrier(b) = &mut s.deck[u] else {
        unreachable!("barrier deck holds barrier units")
    };
    // More threads than the platform has cores: `run_barrier` panics.
    b.threads = 4096;
    let err = execute(&s, &s.deck[u], explore).expect_err("infeasible unit fails");
    assert!(err.starts_with("panic:"), "{err}");
}

/// Per-layer counts a speed-only change must leave identical.
const DETERMINISTIC: [&str; 7] = [
    "sim.cycles",
    "sim.stall_cycles",
    "simapps.dlock.ops",
    "simapps.dlock.p99_cycles",
    "wmm.states_visited",
    "wmm.states_pruned",
    "analyze.findings",
];

#[test]
fn traced_runs_repeat_their_deterministic_counts() {
    let _turn = serial();
    for workload in Workload::ALL {
        let opts = RunOpts {
            workload,
            seed: 3,
            seconds: 0.001,
            trace: true,
        };
        let counts = |r: &Report| -> Vec<(String, f64)> {
            r.metrics
                .iter()
                .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        let (a, b) = (run(opts), run(opts));
        assert!(a.correct && b.correct, "{}: {:?}", workload.name(), a.notes);
        assert_eq!(counts(&a).len(), DETERMINISTIC.len());
        assert_eq!(counts(&a), counts(&b), "{}", workload.name());
        assert!(
            counts(&a).iter().any(|(_, v)| *v > 0.0),
            "{}",
            workload.name()
        );
    }
}
