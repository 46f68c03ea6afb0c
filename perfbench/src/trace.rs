//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! into a layer (nothing inside the program is instrumented). When tracing
//! is off, [`span`] is a direct call. Spans stay in memory until
//! [`take`], and the binary writes them out when the run ends.

use std::cell::RefCell;
use std::time::Instant;

use armbar_wmm::{explore, explore_memo_stats, MemoryModel, OutcomeSet, Program};

/// Programs above this many instructions take the explorer's multi-word
/// state layout; at or below it, the single-word fast path.
pub const NARROW_MAX_INSTRS: usize = 64;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `wmm.explore`.
    pub name: &'static str,
    /// Index of the unit the call belongs to (all spans of one unit share it).
    pub unit: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since tracing was enabled.
    pub start_ns: u64,
    /// End, in nanoseconds since tracing was enabled.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one explorer call did, recorded next to its span.
#[derive(Debug, Clone, Copy)]
pub struct ExploreCall {
    /// The call's span.
    pub span: usize,
    /// The program exceeds [`NARROW_MAX_INSTRS`].
    pub wide: bool,
    /// Answered from the process-wide memo.
    pub memo_hit: bool,
    /// States the engine visited (0 on a memo hit: no work was done).
    pub states_visited: u64,
    /// Subtrees the engine pruned (0 on a memo hit).
    pub states_pruned: u64,
}

#[derive(Default)]
struct Tracer {
    epoch: Option<Instant>,
    recording: bool,
    unit: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    explores: Vec<ExploreCall>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turn tracing on (clearing anything recorded) or off.
pub fn enable(on: bool) {
    TRACER.with(|t| {
        *t.borrow_mut() = Tracer {
            epoch: on.then(Instant::now),
            recording: on,
            ..Tracer::default()
        };
    });
}

/// Pause or resume recording, keeping what was recorded (a no-op while
/// tracing is off).
pub fn set_recording(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.recording = on && t.epoch.is_some();
    });
}

/// Attribute the following spans to unit `unit`.
pub fn set_unit(unit: usize) {
    TRACER.with(|t| t.borrow_mut().unit = unit);
}

/// Run `f` inside a span named `name` (a direct call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(id) = open(name) else {
        return f();
    };
    let out = f();
    close(id);
    out
}

fn open(name: &'static str) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.recording {
            return None;
        }
        let epoch = t.epoch?;
        let id = t.spans.len();
        let span = Span {
            name,
            unit: t.unit,
            parent: t.stack.last().copied(),
            start_ns: nanos_since(epoch),
            end_ns: 0,
        };
        t.spans.push(span);
        t.stack.push(id);
        Some(id)
    })
}

fn close(id: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let epoch = t.epoch.expect("a span was opened, so tracing is on");
        t.spans[id].end_ns = nanos_since(epoch);
        let top = t.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    });
}

/// Open spans right now (restore point for [`unwind_to`]).
#[must_use]
pub fn depth() -> usize {
    TRACER.with(|t| t.borrow().stack.len())
}

/// Close every span opened above `depth`: a panic unwound through them.
pub fn unwind_to(depth: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        while t.stack.len() > depth {
            let id = t.stack.pop().expect("stack is above depth");
            let epoch = t.epoch.expect("a span was opened, so tracing is on");
            t.spans[id].end_ns = nanos_since(epoch);
        }
    });
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The explorer the traced run hands `analyze_case_with` and
/// `synthesize_with`: [`explore`] inside a `wmm.explore` span, recording
/// whether the memo answered and how many states the engine walked.
#[must_use]
pub fn traced_explore(program: &Program, model: MemoryModel) -> OutcomeSet {
    let (hits_before, _) = explore_memo_stats();
    let id = open("wmm.explore");
    let set = explore(program, model);
    let Some(id) = id else {
        return set;
    };
    close(id);
    let memo_hit = explore_memo_stats().0 > hits_before;
    let instrs: usize = program.threads.iter().map(|t| t.instrs.len()).sum();
    let (visited, pruned) = if memo_hit {
        (0, 0)
    } else {
        (set.states_visited as u64, set.states_pruned as u64)
    };
    TRACER.with(|t| {
        t.borrow_mut().explores.push(ExploreCall {
            span: id,
            wide: instrs > NARROW_MAX_INSTRS,
            memo_hit,
            states_visited: visited,
            states_pruned: pruned,
        });
    });
    set
}

/// Everything recorded since [`enable`], leaving the recorder empty (and
/// still on, if it was).
#[must_use]
pub fn take() -> (Vec<Span>, Vec<ExploreCall>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "take() inside an open span");
        (
            std::mem::take(&mut t.spans),
            std::mem::take(&mut t.explores),
        )
    })
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children never overlap: one caller, no threads).
#[must_use]
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            unit: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk("unit", None, 0, 100),
            mk("analyze.lint", Some(0), 10, 60),
            mk("wmm.explore", Some(1), 20, 30),
            mk("wmm.explore", Some(1), 40, 55),
        ];
        assert_eq!(self_ns(&spans), vec![50, 25, 10, 15]);
    }

    #[test]
    fn spans_nest_and_off_records_nothing() {
        enable(false);
        assert_eq!(span("x", || 7), 7);
        assert!(take().0.is_empty());
        enable(true);
        set_unit(3);
        span("outer", || span("inner", || ()));
        set_recording(false);
        span("paused", || ());
        set_recording(true);
        let (spans, _) = take();
        enable(false);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 3 && s.end_ns >= s.start_ns));
    }
}
