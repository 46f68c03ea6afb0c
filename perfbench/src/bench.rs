//! One run of one workload: set-up, a short discarded warm-up, then passes
//! over the deck in a closed loop (one caller; the next unit starts when
//! the last returns) until the run's seconds are spent, then untimed
//! oracle checks and the metrics.
//!
//! Each unit runs once per pass, and the passes are spread over the whole
//! run, so a unit's latency is the fastest of its runs (for a unit of
//! several public calls, the sum of each call's fastest run). On a shared
//! host, other tenants slow stretches of a run by up to 2x; the fastest of
//! several runs spread over time filters them out, where a mean or median
//! of back-to-back runs follows them.

use std::fmt::Write as _;
use std::time::Instant;

use armbar_analyze::lint::ExploreFn;
use armbar_wmm::explore;

use crate::deck::{self, Setup, SetupTimes, UnitSpec, Workload, DESIGNS, FAMILIES};
use crate::exec::{execute, UnitCounts, MAX_STEPS};
use crate::stats::{median, tail};
use crate::trace::{self, ExploreCall, Span};
use crate::verify::oracle_sample;

/// Extra set-ups timed before each pass; `setup_s` is the median of all.
pub const SETUPS_PER_PASS: usize = 5;

/// Passes a run makes at least, however long they take.
pub const MIN_PASSES: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of passes to run; no new pass starts that would end later.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No unit and no oracle check failed.
    pub correct: bool,
    /// Units run: warm-up, measured and oracle checks.
    pub attempted: u64,
    /// Units that failed a check or panicked.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Spans of the traced passes (empty when untraced).
    pub spans: Vec<Span>,
}

/// Results of passes over one deck, per deck unit.
pub struct Tally {
    /// Fastest successful run of each of each unit's calls, in nanoseconds.
    pub best_ns: Vec<Option<[u64; MAX_STEPS]>>,
    /// Counts of each unit's first successful run (deterministic).
    pub counts: Vec<Option<UnitCounts>>,
    /// Runs attempted.
    pub attempted: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// Passes made.
    pub passes: usize,
    /// Wall-clock seconds of those passes.
    pub wall_s: f64,
}

impl Tally {
    /// An empty tally for a deck of `n` units.
    #[must_use]
    pub fn new(n: usize) -> Tally {
        Tally {
            best_ns: vec![None; n],
            counts: vec![None; n],
            attempted: 0,
            failures: Vec::new(),
            passes: 0,
            wall_s: 0.0,
        }
    }

    /// Run the deck units `order` names, in that order, folding the results
    /// in. `after(u, ns)` runs behind each unit (`ns` is `None` for a
    /// failed run).
    pub fn run(
        &mut self,
        setup: &Setup,
        order: &[usize],
        explorer: ExploreFn,
        mut after: impl FnMut(usize, Option<u64>),
    ) {
        let t = Instant::now();
        for &u in order {
            self.attempted += 1;
            match execute(setup, &setup.deck[u], explorer) {
                Ok(c) => {
                    let best = self.best_ns[u].get_or_insert(c.step_ns);
                    for (b, ns) in best.iter_mut().zip(c.step_ns) {
                        *b = (*b).min(ns);
                    }
                    self.counts[u].get_or_insert(c);
                    after(u, Some(c.host_ns()));
                }
                Err(e) => {
                    self.failures.push(e);
                    after(u, None);
                }
            }
        }
        self.wall_s += t.elapsed().as_secs_f64();
        self.passes += 1;
    }

    /// Latency of every unit that succeeded at least once, in ms: the sum
    /// over its calls of each call's fastest run.
    #[must_use]
    pub fn best_ms(&self) -> Vec<f64> {
        self.best_ns
            .iter()
            .flatten()
            .map(|steps| steps.iter().sum::<u64>() as f64 / 1e6)
            .collect()
    }

    /// Units per host second at each unit's fastest speed.
    #[must_use]
    pub fn units_per_s(&self) -> f64 {
        let ms = self.best_ms();
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
    }

    /// Units per wall-clock second over all passes, interference included.
    #[must_use]
    pub fn wall_units_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }
}

/// Run `opts` to completion.
#[must_use]
pub fn run(opts: RunOpts) -> Report {
    let setup = deck::setup(opts.workload, opts.seed);
    let mut times = vec![setup.times];
    let n = setup.deck.len();
    let mut notes = vec![format!(
        "workload {} seed {} deck {n} units, cpus {}",
        opts.workload.name(),
        opts.seed,
        allowed_cpus()
    )];

    let mut warmup = Tally::new(n);
    warmup.run(&setup, &setup.order(0)[..n.div_ceil(8)], explore, |_, _| {});

    let started = Instant::now();
    let mut plain = Tally::new(n);
    let mut traced = Tally::new(n);
    // Every traced run as (deck index, ns); its spans carry its index here
    // as their unit id. A failed run never counts as the fastest.
    let mut traced_runs: Vec<(usize, u64)> = Vec::new();
    if opts.trace {
        trace::enable(true);
        trace::set_recording(false);
    }
    for pass in 1.. {
        for _ in 0..SETUPS_PER_PASS {
            times.push(deck::setup(opts.workload, opts.seed).times);
        }
        let order = setup.order(pass);
        // A traced run alternates untraced and traced passes, so both see
        // the same stretches of host interference.
        if opts.trace && pass % 2 == 0 {
            trace::set_recording(true);
            trace::set_unit(traced_runs.len());
            traced.run(&setup, &order, trace::traced_explore, |u, ns| {
                traced_runs.push((u, ns.unwrap_or(u64::MAX)));
                trace::set_unit(traced_runs.len());
            });
            trace::set_recording(false);
        } else {
            plain.run(&setup, &order, explore, |_, _| {});
        }
        let done = plain.passes + traced.passes;
        let elapsed = started.elapsed().as_secs_f64();
        let paired = !opts.trace || traced.passes == plain.passes;
        if done >= MIN_PASSES && paired && elapsed * (done + 1) as f64 / done as f64 > opts.seconds
        {
            break;
        }
    }

    let setup_s = median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    notes.push(format!(
        "untraced: {} passes, {:.4} units/s at each unit's fastest ({:.4} units/s wall clock), p50 {:.4} ms",
        plain.passes,
        plain.units_per_s(),
        plain.wall_units_per_s(),
        median(&plain.best_ms())
    ));
    let mut spans = Vec::new();
    let metrics = if opts.trace {
        let (s, explores) = trace::take();
        trace::enable(false);
        spans = s;
        let overhead_pct = (plain.units_per_s() / traced.units_per_s() - 1.0) * 100.0;
        notes.push(format!(
            "traced: {} passes, {:.4} units/s at each unit's fastest, p50 {:.4} ms; tracing overhead {overhead_pct:+.2}%",
            traced.passes,
            traced.units_per_s(),
            median(&traced.best_ms())
        ));
        per_layer(
            &setup,
            &times,
            &traced,
            &traced_runs,
            &spans,
            &explores,
            overhead_pct,
        )
    } else {
        let best = plain.best_ms();
        let t = tail(&best);
        if let Some(t) = t {
            notes.push(format!(
                "unit latency = fastest of {} passes; unit_tail_ms is p{} of {} units ({} beyond); setup_s is the median of {} set-ups",
                plain.passes,
                t.percentile,
                t.samples,
                t.beyond,
                times.len()
            ));
        }
        if opts.workload == Workload::LintSynth {
            let saved: i64 = plain.counts.iter().flatten().map(|c| c.saved_cycles).sum();
            notes.push(format!(
                "synth_saved_kcycles {:.3} kcycles (replay cycles the chosen Pareto placements save over the deck, summed over platforms)",
                saved as f64 / 1e3
            ));
        }
        vec![
            metric("setup_s", setup_s, "s"),
            metric("units_per_s", plain.units_per_s(), "1/s"),
            metric("unit_p50_ms", median(&best), "ms"),
            metric("unit_tail_ms", t.map_or(0.0, |t| t.value), "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    let oracle = oracle_sample(&setup, opts.seed);
    let tallies = [&warmup, &plain, &traced];
    let mut failures: Vec<String> = tallies
        .iter()
        .flat_map(|t| t.failures.iter().cloned())
        .collect();
    failures.extend(oracle.iter().filter_map(|r| r.clone().err()));
    let attempted = tallies.iter().map(|t| t.attempted).sum::<u64>() + oracle.len() as u64;
    let failed = failures.len() as u64;
    notes.push(format!(
        "error_rate {} ({failed} failed / {attempted} attempted; oracle checks {}/{} agree)",
        failed as f64 / attempted as f64,
        oracle.iter().filter(|r| r.is_ok()).count(),
        oracle.len()
    ));
    for f in failures.iter().take(5) {
        notes.push(format!("FAILED: {f}"));
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Per-layer metrics from the traced passes. Times come from each unit's
/// fastest traced run; counts from its first. Layers a workload does not
/// use report 0.
fn per_layer(
    setup: &Setup,
    times: &[SetupTimes],
    traced: &Tally,
    runs: &[(usize, u64)],
    spans: &[Span],
    explores: &[ExploreCall],
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut fastest: Vec<Option<(usize, u64)>> = vec![None; setup.deck.len()];
    for (r, &(u, ns)) in runs.iter().enumerate() {
        if ns != u64::MAX && fastest[u].is_none_or(|(_, best)| ns < best) {
            fastest[u] = Some((r, ns));
        }
    }
    let mut chosen = vec![false; runs.len()];
    for &(r, _) in fastest.iter().flatten() {
        chosen[r] = true;
    }
    // (inclusive, self) ns of the spans named `name` in run `r`.
    let mut by_run: Vec<Vec<(&str, u64, u64)>> = vec![Vec::new(); runs.len()];
    for (s, own) in spans.iter().zip(trace::self_ns(spans)) {
        by_run[s.unit].push((s.name, s.ns(), own));
    }
    let span_ns = |r: usize, name: &str| -> (u64, u64) {
        by_run[r]
            .iter()
            .filter(|(n, _, _)| *n == name)
            .fold((0, 0), |(a, b), &(_, incl, own)| (a + incl, b + own))
    };
    // (run, unit, counts) of every unit with a successful traced run.
    let units: Vec<(usize, UnitSpec, UnitCounts)> = fastest
        .iter()
        .enumerate()
        .filter_map(|(u, f)| Some((f.as_ref()?.0, setup.deck[u], traced.counts[u]?)))
        .collect();
    let explores: Vec<&ExploreCall> = explores
        .iter()
        .filter(|e| chosen[spans[e.span].unit])
        .collect();

    let mean = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    // Set-up.
    let setup_median = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    put(
        "sim.platform_build_us".into(),
        setup_median(|t| t.platform_build_us),
        "us",
    );
    put(
        "extract.parse_us".into(),
        setup_median(|t| t.parse_us),
        "us",
    );
    put("extract.lift_us".into(), setup_median(|t| t.lift_us), "us");
    put(
        "extract.instrs_lifted".into(),
        setup.instrs_lifted as f64,
        "count",
    );

    // Simulator workloads.
    let barrier: Vec<_> = units
        .iter()
        .filter_map(|&(r, s, _)| match s {
            UnitSpec::Barrier(b) => Some((r, b)),
            _ => None,
        })
        .collect();
    let arrival_us: Vec<f64> = barrier
        .iter()
        .map(|(r, b)| {
            span_ns(*r, "simapps.run_barrier").0 as f64 / 1e3 / (b.threads as f64 * b.rounds as f64)
        })
        .collect();
    put("sim.us_per_arrival".into(), median(&arrival_us), "us");
    for (f, (name, _)) in FAMILIES.iter().enumerate() {
        let of: Vec<_> = barrier.iter().filter(|(_, b)| b.family == f).collect();
        let total: u64 = of
            .iter()
            .map(|(r, _)| span_ns(*r, "simapps.run_barrier").0)
            .sum();
        put(
            format!("simapps.barrier.{name}_ms"),
            mean(ms(total), of.len()),
            "ms",
        );
    }
    let dlock: Vec<_> = units
        .iter()
        .filter_map(|&(r, s, c)| match s {
            UnitSpec::Dlock(d) => Some((r, d, c)),
            _ => None,
        })
        .collect();
    for (d, (name, _)) in DESIGNS.iter().enumerate() {
        let of: Vec<_> = dlock.iter().filter(|(_, u, _)| u.design == d).collect();
        let total: u64 = of
            .iter()
            .map(|(r, _, _)| span_ns(*r, "simapps.dlock").0)
            .sum();
        put(
            format!("simapps.dlock.{name}_ms"),
            mean(ms(total), of.len()),
            "ms",
        );
    }
    let dlock_ns: u64 = dlock
        .iter()
        .map(|(r, _, _)| span_ns(*r, "simapps.dlock").0)
        .sum();
    let ops: u64 = dlock.iter().map(|(_, _, c)| c.dlock_ops).sum();
    put(
        "simapps.dlock.us_per_op".into(),
        mean(dlock_ns as f64 / 1e3, ops as usize),
        "us",
    );

    // Explorer and analysis.
    let lint: Vec<_> = units
        .iter()
        .filter(|(_, s, _)| matches!(s, UnitSpec::Lint(_)))
        .collect();
    let n_lint = lint.len();
    for (suffix, pick) in [("", None), (".narrow", Some(false)), (".wide", Some(true))] {
        let calls: Vec<&&ExploreCall> = explores
            .iter()
            .filter(|e| pick.is_none_or(|w| e.wide == w))
            .collect();
        let total: u64 = calls.iter().map(|e| spans[e.span].ns()).sum();
        let miss_ns: u64 = calls
            .iter()
            .filter(|e| !e.memo_hit)
            .map(|e| spans[e.span].ns())
            .sum();
        let states: u64 = calls.iter().map(|e| e.states_visited).sum();
        put(
            format!("wmm.explore_ms{suffix}"),
            mean(ms(total), n_lint),
            "ms",
        );
        put(
            format!("wmm.ns_per_state{suffix}"),
            mean(miss_ns as f64, states as usize),
            "ns",
        );
    }
    let hits: u64 = lint.iter().map(|(_, _, c)| c.memo_hits).sum();
    let misses: u64 = lint.iter().map(|(_, _, c)| c.memo_misses).sum();
    put(
        "wmm.memo_hit_ratio".into(),
        mean(hits as f64, (hits + misses) as usize),
        "ratio",
    );
    put("wmm.explore_calls".into(), explores.len() as f64, "count");
    let lint_ms = |name: &str, own: bool| -> f64 {
        let total: u64 = lint
            .iter()
            .map(|(r, _, _)| {
                let (incl, slf) = span_ns(*r, name);
                if own {
                    slf
                } else {
                    incl
                }
            })
            .sum();
        mean(ms(total), n_lint)
    };
    put(
        "analyze.lint_self_ms".into(),
        lint_ms("analyze.lint", true),
        "ms",
    );
    put(
        "analyze.synth_self_ms".into(),
        lint_ms("analyze.synth", true),
        "ms",
    );
    put(
        "analyze.pareto_ms".into(),
        lint_ms("analyze.pareto", false),
        "ms",
    );
    let sum = |f: fn(&UnitCounts) -> u64| units.iter().map(|(_, _, c)| f(c)).sum::<u64>() as f64;
    put(
        "synth.leaves_checked".into(),
        sum(|c| c.leaves_checked),
        "count",
    );
    put(
        "synth.nodes_pruned".into(),
        sum(|c| c.nodes_pruned),
        "count",
    );
    put(
        "synth.complete_ratio".into(),
        mean(
            lint.iter().filter(|(_, _, c)| c.synth_complete).count() as f64,
            n_lint,
        ),
        "ratio",
    );
    let saved: i64 = units.iter().map(|(_, _, c)| c.saved_cycles).sum();
    put(
        "analyze.synth_saved_kcycles".into(),
        saved as f64 / 1e3,
        "kcycles",
    );

    // Deterministic counts, summed over the deck.
    put("sim.cycles".into(), sum(|c| c.sim_cycles), "cycles");
    put("sim.stall_cycles".into(), sum(|c| c.stall_cycles), "cycles");
    put("simapps.dlock.ops".into(), ops as f64, "count");
    put(
        "simapps.dlock.p99_cycles".into(),
        mean(
            dlock
                .iter()
                .map(|(_, _, c)| c.dlock_p99_cycles)
                .sum::<u64>() as f64,
            dlock.len(),
        ),
        "cycles",
    );
    put(
        "wmm.states_visited".into(),
        explores.iter().map(|e| e.states_visited).sum::<u64>() as f64,
        "count",
    );
    put(
        "wmm.states_pruned".into(),
        explores.iter().map(|e| e.states_pruned).sum::<u64>() as f64,
        "count",
    );
    put("analyze.findings".into(), sum(|c| c.findings), "count");
    put("trace.overhead_pct".into(), overhead_pct, "%");
    out
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn allowed_cpus() -> String {
    proc_status_field("Cpus_allowed_list:").unwrap_or_else(|| "?".to_string())
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// The spans as TSV (`run id parent name start_ns end_ns self_ns`).
#[must_use]
pub fn spans_tsv(spans: &[Span]) -> String {
    let own = trace::self_ns(spans);
    let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (id, (s, o)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{}\t{}\t{o}",
            s.unit, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
