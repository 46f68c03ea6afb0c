//! The benchmark's inputs: three workloads, each a deck of units generated
//! from a seed.
//!
//! Every list of families, designs, profiles and shapes below is the
//! benchmark's own copy, written out by name. None is taken from the
//! repository's sweep lists (`BarrierFamily::ALL`, `DelegationKind::ALL`,
//! `corpus()`, ...), so growing those lists never changes a workload.
//!
//! The seed draws the free parameters of every unit in the deck (thread
//! counts within a narrow band, local work, think time, location
//! numbering), chosen so that the draws change the inputs but hardly the
//! work, and the order each pass runs the deck in. Every seed's deck holds
//! the same strata in the same numbers.

use armbar_analyze::LintCase;
use armbar_barriers::{Barrier, ResponseMode};
use armbar_extract::{lift_file, parse, AsmFile};
use armbar_sim::Platform;
use armbar_simapps::barrier_sim::BarrierFamily;
use armbar_simapps::delegation_sim::DelegationKind;
use armbar_wmm::unroll::{
    mcs_handoff_unrolled, mcs_payload_regs, mcs_prologue_fence_index, pilot_roundtrip_unrolled,
    ticket_handoff_unrolled, ticket_last_grant_reg, ticket_payload_regs, MCS_PAYLOAD_BASE,
};
use armbar_wmm::{Instr, Program};

use crate::rng::Rng;

/// The benchmark's own copy of `corpus/asm/pilot_roundtrip.s`.
pub const PILOT_ROUNDTRIP_S: &str = include_str!("../kernels/pilot_roundtrip.s");
/// The benchmark's own copy of `corpus/asm/ticket_lock.s`.
pub const TICKET_LOCK_S: &str = include_str!("../kernels/ticket_lock.s");

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_barrier` at 256 to 1024 threads: the event engine with most
    /// cores parked.
    ManycoreBarrier,
    /// Lock and delegation runs at 4 to 8 cores: every core busy.
    DlockGrid,
    /// Lint, synthesis and Pareto pricing of unrolled lock shapes.
    LintSynth,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ManycoreBarrier,
        Workload::DlockGrid,
        Workload::LintSynth,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ManycoreBarrier => "manycore-barrier",
            Workload::DlockGrid => "dlock-grid",
            Workload::LintSynth => "lint-synth",
        }
    }

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn stream(self) -> u64 {
        match self {
            Workload::ManycoreBarrier => 1,
            Workload::DlockGrid => 2,
            Workload::LintSynth => 3,
        }
    }
}

// ------------------------------------------------------- manycore-barrier

/// Barrier families, by the benchmark's names.
pub const FAMILIES: [(&str, BarrierFamily); 3] = [
    ("centralized", BarrierFamily::Centralized),
    ("tree", BarrierFamily::CombiningTree),
    ("hierarchical", BarrierFamily::Hierarchical),
];

/// Thread bands `(lo, hi)`: three units per band and platform, threads
/// drawn in steps of 8.
pub const THREAD_BANDS: [(usize, usize); 3] = [(256, 288), (512, 544), (992, 1024)];

/// Cores of the many-core platforms the barrier units run on.
pub const MANYCORE_CORES: usize = 1024;

/// Barrier episodes per unit: enough that stepping dominates the unit
/// (`Machine::new(1024)` is under 0.1 ms of a 6 to 45 ms unit), few
/// enough that the fastest of a unit's runs finds a quiet stretch of host.
pub const BARRIER_ROUNDS: u64 = 12;

/// One `run_barrier` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierUnit {
    /// Index into [`FAMILIES`].
    pub family: usize,
    /// Participating threads.
    pub threads: usize,
    /// Episodes per thread.
    pub rounds: u64,
    /// Local work between episodes.
    pub work_nops: u32,
    /// Run on `Platform::manycore_mca` instead of `Platform::manycore`.
    pub mca: bool,
    /// Episodes the result must report.
    pub expected_rounds: u64,
}

// ------------------------------------------------------------- dlock-grid

/// A lock design of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// In-place ticket lock (`run_ticket_metrics`).
    Ticket,
    /// In-place MCS queue lock (`run_mcs_metrics`).
    Mcs,
    /// A delegation lock in one response mode (`run_delegation_metrics`).
    Delegation(DelegationKind, ResponseMode),
}

/// Lock designs, by the benchmark's names: both in-place locks and every
/// delegation kind in Flag and Pilot modes.
pub const DESIGNS: [(&str, Design); 12] = [
    ("ticket", Design::Ticket),
    ("mcs", Design::Mcs),
    (
        "ffwd-flag",
        Design::Delegation(DelegationKind::Ffwd, ResponseMode::Flag),
    ),
    (
        "ffwd-pilot",
        Design::Delegation(DelegationKind::Ffwd, ResponseMode::Pilot),
    ),
    (
        "dsynch-flag",
        Design::Delegation(DelegationKind::DSynch, ResponseMode::Flag),
    ),
    (
        "dsynch-pilot",
        Design::Delegation(DelegationKind::DSynch, ResponseMode::Pilot),
    ),
    (
        "rcl-flag",
        Design::Delegation(DelegationKind::Rcl, ResponseMode::Flag),
    ),
    (
        "rcl-pilot",
        Design::Delegation(DelegationKind::Rcl, ResponseMode::Pilot),
    ),
    (
        "flatcomb-flag",
        Design::Delegation(DelegationKind::FlatCombining, ResponseMode::Flag),
    ),
    (
        "flatcomb-pilot",
        Design::Delegation(DelegationKind::FlatCombining, ResponseMode::Pilot),
    ),
    (
        "ccsynch-flag",
        Design::Delegation(DelegationKind::CcSynch, ResponseMode::Flag),
    ),
    (
        "ccsynch-pilot",
        Design::Delegation(DelegationKind::CcSynch, ResponseMode::Pilot),
    ),
];

/// The four paper platform profiles, by name, with the core counts the
/// grid uses on each (capped by the profile's cores).
pub const PROFILES: [(&str, &[usize]); 4] = [
    ("kunpeng916", &[4, 6, 8]),
    ("kirin960", &[4, 6, 8]),
    ("kirin970", &[4, 6, 8]),
    ("raspberry_pi4", &[4]),
];

/// Build profile `i` of [`PROFILES`].
#[must_use]
pub fn build_profile(i: usize) -> Platform {
    match PROFILES[i].0 {
        "kunpeng916" => Platform::kunpeng916(),
        "kirin960" => Platform::kirin960(),
        "kirin970" => Platform::kirin970(),
        "raspberry_pi4" => Platform::raspberry_pi4(),
        other => unreachable!("unknown profile {other}"),
    }
}

/// Operations per client (per thread for the in-place locks).
pub const PER_CLIENT: u64 = 30;

/// Upper bound of the seeded think time between a client's operations.
pub const MAX_GAP_NOPS: u64 = 24;

/// One lock-run call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlockUnit {
    /// Index into [`DESIGNS`].
    pub design: usize,
    /// Index into [`PROFILES`].
    pub profile: usize,
    /// Cores the run occupies (a dedicated server takes one of them).
    pub cores: usize,
    /// Operations per client.
    pub per_client: u64,
    /// Nops between a client's operations (`interval_nops`/`post_nops`).
    pub gap_nops: u32,
    /// Operations the run must complete.
    pub expected_ops: u64,
}

impl DlockUnit {
    /// Client cores: all of them, minus the server of a dedicated design.
    #[must_use]
    pub fn clients(&self) -> usize {
        match DESIGNS[self.design].1 {
            Design::Delegation(kind, _) if kind.has_server_core() => self.cores - 1,
            _ => self.cores,
        }
    }
}

// ------------------------------------------------------------- lint-synth

/// A program shape of the lint-synth deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `mcs_handoff_unrolled(handoffs, payload, work, DMB full, DMB full)`
    /// with the prologue publish fence over-strengthened to `DSB full` and
    /// a stray trailing `DMB st`.
    Mcs {
        /// Lock bounces.
        handoffs: usize,
        /// Payload words.
        payload: usize,
        /// Critical-section stores.
        work: usize,
    },
    /// `ticket_handoff_unrolled` with an over-strong `DSB st` publish and a
    /// `DMB ld` acquire.
    Ticket {
        /// Grant rounds.
        rounds: usize,
        /// Payload words.
        payload: usize,
        /// Scratch stores per round.
        work: usize,
    },
    /// `pilot_roundtrip_unrolled(chain, reads)` with a stray `DMB st` in
    /// the middle of the claim phase.
    Pilot {
        /// Stores per phase.
        chain: usize,
        /// Polls per thread.
        reads: usize,
    },
    /// The lifted `pilot_roundtrip.s` kernel (5 polls).
    LiftedPilot,
    /// The lifted `ticket_lock.s` kernel (3 rounds, 2 payload words).
    LiftedTicket,
}

/// The lint-synth strata, one unit each: 18 to 71 instructions,
/// on both sides of the explorer's 64-instruction layout switch.
pub const STRATA: [(&str, Shape); 7] = [
    (
        "mcs-40",
        Shape::Mcs {
            handoffs: 2,
            payload: 2,
            work: 4,
        },
    ),
    (
        "mcs-70",
        Shape::Mcs {
            handoffs: 3,
            payload: 3,
            work: 6,
        },
    ),
    (
        "ticket-40",
        Shape::Ticket {
            rounds: 4,
            payload: 3,
            work: 6,
        },
    ),
    (
        "ticket-58",
        Shape::Ticket {
            rounds: 5,
            payload: 3,
            work: 8,
        },
    ),
    ("pilot-35", Shape::Pilot { chain: 8, reads: 4 }),
    ("pilot_roundtrip.s", Shape::LiftedPilot),
    ("ticket_lock.s", Shape::LiftedTicket),
];

/// Replay iterations `pareto_fronts` prices each placement with (the
/// value `armbar-synth` and `exp-synth` use).
pub const REPLAY_ITERS: u64 = 200;

/// One `analyze_case` + `synthesize` + `pareto_fronts` unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintUnit {
    /// Index into [`STRATA`].
    pub stratum: usize,
    /// Index into [`Setup::cases`].
    pub case: usize,
}

// ------------------------------------------------------------------ setup

/// One unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitSpec {
    /// A barrier run.
    Barrier(BarrierUnit),
    /// A lock run.
    Dlock(DlockUnit),
    /// A lint-synth run.
    Lint(LintUnit),
}

/// Host times of one set-up, split by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total_s: f64,
    /// Platform construction.
    pub platform_build_us: f64,
    /// Parsing the `.s` kernels.
    pub parse_us: f64,
    /// Lifting the parsed kernels (lint-synth only).
    pub lift_us: f64,
}

/// Everything a run needs before its first unit.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The seed the deck and the pass orders are drawn from.
    pub seed: u64,
    /// The units; every pass runs each of them once.
    pub deck: Vec<UnitSpec>,
    /// `[manycore, manycore_mca]` for barrier units, [`PROFILES`] order
    /// for lock units, empty for lint-synth.
    pub platforms: Vec<Platform>,
    /// Lint cases the lint units point into.
    pub cases: Vec<LintCase>,
    /// Model instructions the lifter emitted (lint-synth only).
    pub instrs_lifted: usize,
    /// How long this set-up took.
    pub times: SetupTimes,
}

impl Setup {
    /// The order pass `pass` runs the deck in (pass 0 is the warm-up): a
    /// seeded permutation of deck indices, the same for the same seed.
    #[must_use]
    pub fn order(&self, pass: usize) -> Vec<usize> {
        let mut rng = Rng::new(self.seed, (self.workload.stream() << 32) | pass as u64);
        let mut order: Vec<usize> = (0..self.deck.len()).collect();
        rng.shuffle(&mut order);
        order
    }
}

/// Generate `workload`'s deck for `seed`, with its platforms and kernels.
/// Timed step by step.
///
/// # Panics
///
/// Panics if a checked-in kernel fails to parse or lift.
#[must_use]
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let t0 = std::time::Instant::now();
    let mut rng = Rng::new(seed, workload.stream());
    let mut times = SetupTimes::default();

    let t = std::time::Instant::now();
    let platforms = match workload {
        Workload::ManycoreBarrier => vec![
            Platform::manycore(MANYCORE_CORES),
            Platform::manycore_mca(MANYCORE_CORES),
        ],
        Workload::DlockGrid => (0..PROFILES.len()).map(build_profile).collect(),
        Workload::LintSynth => Vec::new(),
    };
    times.platform_build_us = t.elapsed().as_secs_f64() * 1e6;

    let t = std::time::Instant::now();
    let files: Vec<AsmFile> = [PILOT_ROUNDTRIP_S, TICKET_LOCK_S]
        .iter()
        .map(|src| parse(src).expect("checked-in kernel parses"))
        .collect();
    times.parse_us = t.elapsed().as_secs_f64() * 1e6;

    let mut lifted = Vec::new();
    let mut instrs_lifted = 0;
    if workload == Workload::LintSynth {
        let t = std::time::Instant::now();
        for f in &files {
            let l = lift_file(f).expect("checked-in kernel lifts");
            instrs_lifted += l.total_instrs();
            lifted.push(l.program);
        }
        times.lift_us = t.elapsed().as_secs_f64() * 1e6;
    }

    let mut cases = Vec::new();
    let deck = match workload {
        Workload::ManycoreBarrier => barrier_deck(&mut rng),
        Workload::DlockGrid => dlock_deck(&mut rng),
        Workload::LintSynth => STRATA
            .iter()
            .enumerate()
            .map(|(stratum, &(_, shape))| {
                cases.push(lint_case(shape, &lifted, &mut rng));
                UnitSpec::Lint(LintUnit {
                    stratum,
                    case: cases.len() - 1,
                })
            })
            .collect(),
    };
    times.total_s = t0.elapsed().as_secs_f64();
    Setup {
        workload,
        seed,
        deck,
        platforms,
        cases,
        instrs_lifted,
        times,
    }
}

fn barrier_deck(rng: &mut Rng) -> Vec<UnitSpec> {
    let mut out = Vec::new();
    for family in 0..FAMILIES.len() {
        for &(lo, hi) in &THREAD_BANDS {
            for mca in [false, true, false, true, false, true] {
                let threads = lo + 8 * rng.below((hi - lo) / 8 + 1);
                out.push(UnitSpec::Barrier(BarrierUnit {
                    family,
                    threads,
                    rounds: BARRIER_ROUNDS,
                    work_nops: rng.range(8, 40) as u32,
                    mca,
                    expected_rounds: BARRIER_ROUNDS,
                }));
            }
        }
    }
    out
}

fn dlock_deck(rng: &mut Rng) -> Vec<UnitSpec> {
    let mut out = Vec::new();
    for design in 0..DESIGNS.len() {
        for (profile, &(_, core_counts)) in PROFILES.iter().enumerate() {
            for &cores in core_counts {
                let mut u = DlockUnit {
                    design,
                    profile,
                    cores,
                    per_client: PER_CLIENT,
                    gap_nops: rng.range(0, MAX_GAP_NOPS) as u32,
                    expected_ops: 0,
                };
                u.expected_ops = u.clients() as u64 * u.per_client;
                out.push(UnitSpec::Dlock(u));
            }
        }
    }
    out
}

/// Build the lint case of `shape` with its seeded fences (the findings the
/// corpus seeds: an over-strong DSB and a stray `DMB st`), then renumber
/// its memory locations from `rng`. The renumbering preserves outcomes up
/// to the names of locations (every intent below reads registers only),
/// so it changes the input without changing the work.
///
/// `lifted` holds the lifted `[pilot_roundtrip.s, ticket_lock.s]` programs.
pub fn lint_case(shape: Shape, lifted: &[Program], rng: &mut Rng) -> LintCase {
    let (name, mut program, forbidden) = match shape {
        Shape::Mcs {
            handoffs,
            payload,
            work,
        } => {
            let mut p =
                mcs_handoff_unrolled(handoffs, payload, work, Barrier::DmbFull, Barrier::DmbFull);
            p.threads[0].instrs[mcs_prologue_fence_index(payload)] = Instr::Fence(Barrier::DsbFull);
            p.threads[1].instrs.push(Instr::Fence(Barrier::DmbSt));
            (
                format!("mcs-h{handoffs}p{payload}w{work}+dsb.full+stray-st"),
                p,
                mcs_intent(mcs_payload_regs(handoffs, payload)),
            )
        }
        Shape::Ticket {
            rounds,
            payload,
            work,
        } => (
            format!("ticket-r{rounds}p{payload}w{work}+dsb.st+dmb.ld"),
            ticket_handoff_unrolled(rounds, payload, work, Barrier::DsbSt, Barrier::DmbLd),
            ticket_intent(rounds, payload),
        ),
        Shape::Pilot { chain, reads } => {
            let mut p = pilot_roundtrip_unrolled(chain, reads);
            p.threads[0]
                .instrs
                .insert(chain / 2, Instr::Fence(Barrier::DmbSt));
            (
                format!("pilot-c{chain}r{reads}+stray-st"),
                p,
                pilot_intent(reads),
            )
        }
        Shape::LiftedPilot => (
            "pilot_roundtrip.s".to_string(),
            lifted[0].clone(),
            pilot_intent(5),
        ),
        Shape::LiftedTicket => (
            "ticket_lock.s".to_string(),
            lifted[1].clone(),
            ticket_intent(3, 2),
        ),
    };
    relabel_locations(&mut program, rng);
    LintCase {
        name,
        program,
        forbidden: Some(forbidden),
    }
}

type Intent = Box<dyn Fn(&armbar_wmm::Outcome) -> bool + Send + Sync>;

/// T1's first handoff observed but a payload word stale.
fn mcs_intent(regs: Vec<u8>) -> Intent {
    Box::new(move |o| {
        o.reg(1, 0) == 1
            && regs
                .iter()
                .enumerate()
                .any(|(i, &r)| o.reg(1, r) != MCS_PAYLOAD_BASE + i as u64)
    })
}

/// The last grant poll sees the final round but a payload word is stale.
fn ticket_intent(rounds: usize, payload: usize) -> Intent {
    let last = ticket_last_grant_reg(rounds);
    let regs = ticket_payload_regs(rounds, payload);
    Box::new(move |o| {
        o.reg(1, last) == rounds as u64
            && regs
                .iter()
                .enumerate()
                .any(|(i, &r)| o.reg(1, r) != MCS_PAYLOAD_BASE + i as u64)
    })
}

/// Coherence: each thread's same-word polls never go backwards.
fn pilot_intent(reads: usize) -> Intent {
    Box::new(move |o| {
        (0..reads - 1).any(|k| {
            o.reg(0, k as u8) > o.reg(0, k as u8 + 1) || o.reg(1, k as u8) > o.reg(1, k as u8 + 1)
        })
    })
}

/// Map every location `program` touches to a distinct seeded location.
fn relabel_locations(program: &mut Program, rng: &mut Rng) {
    let mut used: Vec<u8> = program
        .threads
        .iter()
        .flat_map(|t| t.instrs.iter().filter_map(Instr::loc))
        .chain(program.init.iter().map(|&(l, _)| l))
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut pool: Vec<u8> = (1..=250).collect();
    rng.shuffle(&mut pool);
    let map = |l: u8| pool[used.binary_search(&l).expect("collected above")];
    for t in &mut program.threads {
        for ins in &mut t.instrs {
            if let Instr::Load { loc, .. } | Instr::Store { loc, .. } = ins {
                *loc = map(*loc);
            }
        }
    }
    for (l, _) in &mut program.init {
        *l = map(*l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signature(s: &Setup) -> Vec<String> {
        s.deck
            .iter()
            .map(|u| match u {
                UnitSpec::Lint(l) => {
                    format!("{}:{:?}", s.cases[l.case].name, s.cases[l.case].program)
                }
                other => format!("{other:?}"),
            })
            .collect()
    }

    /// Stratum of each unit, sorted: the shape mix, independent of the draws.
    fn mix(units: &[UnitSpec]) -> Vec<String> {
        let mut m: Vec<String> = units
            .iter()
            .map(|u| match u {
                UnitSpec::Barrier(b) => {
                    let band = THREAD_BANDS
                        .iter()
                        .position(|&(lo, hi)| (lo..=hi).contains(&b.threads))
                        .expect("threads drawn inside a band");
                    format!("{}/{band}/{}", b.family, b.mca)
                }
                UnitSpec::Dlock(d) => format!("{}/{}/{}", d.design, d.profile, d.cores),
                UnitSpec::Lint(l) => STRATA[l.stratum].0.to_string(),
            })
            .collect();
        m.sort();
        m
    }

    #[test]
    fn same_seed_same_units_other_seed_other_units_same_mix() {
        for w in Workload::ALL {
            let (a, b, c) = (setup(w, 7), setup(w, 7), setup(w, 8));
            assert_eq!(signature(&a), signature(&b), "{}", w.name());
            assert_ne!(signature(&a), signature(&c), "{}", w.name());
            assert_eq!(mix(&a.deck), mix(&c.deck), "{}", w.name());
            assert_eq!(a.order(1), b.order(1));
            assert_ne!(a.order(1), a.order(2));
            assert_ne!(a.order(1), c.order(1));
            let mut sorted = a.order(3);
            sorted.sort_unstable();
            assert_eq!(sorted, (0..a.deck.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn programs_straddle_the_layout_switch() {
        let s = setup(Workload::LintSynth, 1);
        let sizes: Vec<usize> = s
            .cases
            .iter()
            .map(|c| c.program.threads.iter().map(|t| t.instrs.len()).sum())
            .collect();
        assert!(
            sizes.iter().any(|&n| n <= 64) && sizes.iter().any(|&n| n > 64),
            "{sizes:?}"
        );
        assert!(sizes.iter().all(|&n| (18..=76).contains(&n)), "{sizes:?}");
    }

    #[test]
    fn dlock_units_fit_their_profiles() {
        let s = setup(Workload::DlockGrid, 3);
        for u in &s.deck {
            let UnitSpec::Dlock(d) = u else {
                unreachable!()
            };
            assert!(d.cores <= s.platforms[d.profile].topology.core_count());
            assert_eq!(d.expected_ops, d.clients() as u64 * PER_CLIENT);
        }
    }
}
