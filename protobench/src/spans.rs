//! The benchmark's own tracer: spans recorded around the public calls
//! into each layer, kept in memory, and the arithmetic that turns them
//! into a per-operation layer ledger.
//!
//! A span is opened only while the calling thread runs a traced
//! operation ([`traced_op`]); everywhere else [`span`] is a plain call.
//! The one hop that leaves the calling thread is the source relay's
//! driver (on TCP it runs on the server's dispatcher thread): the
//! transport span registers its context under the query's request id and
//! the driver wrapper looks it up ([`expect_remote`], [`carrier_span`],
//! [`remote_span`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The traced operation the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// request id -> (operation, transport span) awaiting the driver.
    remote: Mutex<HashMap<String, (u64, u32)>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
        remote: Mutex::new(HashMap::new()),
    })
}

#[derive(Default)]
struct Context {
    op: Option<u64>,
    stack: Vec<u32>,
    pending_request: Option<String>,
}

thread_local! {
    static CONTEXT: RefCell<Context> = RefCell::new(Context::default());
}

fn now_ns() -> u64 {
    u64::try_from(recorder().epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
}

fn push(span: Span) {
    recorder()
        .spans
        .lock()
        .expect("span store poisoned by a panicking thread")
        .push(span);
}

/// Runs `f` as the root span `name` of traced operation `op`.
pub fn traced_op<T>(op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        assert!(c.op.is_none(), "traced operations do not nest");
        c.op = Some(op);
    });
    let out = span(name, f);
    CONTEXT.with(|c| c.borrow_mut().op = None);
    out
}

/// Runs `f` under span `name` when this thread is inside a traced
/// operation; otherwise just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    enter(name, false, f)
}

/// [`span`] for the hop that carries a query to another relay: the
/// request id announced by [`expect_remote`] is registered under this
/// span, so the remote driver's span nests under it.
pub fn carrier_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    enter(name, true, f)
}

fn enter<T>(name: &'static str, carrier: bool, f: impl FnOnce() -> T) -> T {
    let Some((op, parent, id, start_ns)) = CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let op = c.op?;
        let parent = c.stack.last().copied();
        let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
        c.stack.push(id);
        if let Some(request_id) = carrier.then(|| c.pending_request.take()).flatten() {
            recorder()
                .remote
                .lock()
                .expect("remote map poisoned by a panicking thread")
                .insert(request_id, (op, id));
        }
        Some((op, parent, id, now_ns()))
    }) else {
        return f();
    };
    let out = f();
    let end_ns = now_ns();
    CONTEXT.with(|c| c.borrow_mut().stack.pop());
    push(Span {
        id,
        parent,
        op,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Announces that the next [`carrier_span`] on this thread carries the
/// query `request_id` to another relay.
pub fn expect_remote(request_id: &str) {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        if c.op.is_some() {
            c.pending_request = Some(request_id.to_string());
        }
    });
}

/// Runs `f` under span `name`, parented on the span that announced
/// `request_id`, on whatever thread the call arrives. Untraced requests
/// just run `f`.
pub fn remote_span<T>(name: &'static str, request_id: &str, f: impl FnOnce() -> T) -> T {
    let ctx = recorder()
        .remote
        .lock()
        .expect("remote map poisoned by a panicking thread")
        .remove(request_id);
    let Some((op, parent)) = ctx else {
        return f();
    };
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f();
    push(Span {
        id,
        parent: Some(parent),
        op,
        name,
        start_ns,
        end_ns: now_ns(),
    });
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *recorder()
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// One traced operation's ledger: self time summed per layer row, and the
/// operation's own duration (its root span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLedger {
    pub op: u64,
    pub total_ns: u64,
    pub rows: BTreeMap<&'static str, u64>,
}

/// Groups `spans` by operation and sums self time per row, with
/// `row_of` naming the ledger row each span name belongs to. Every span's
/// self time lands in exactly one row, so the rows of a well-nested
/// operation add up to its total.
///
/// # Panics
///
/// Panics when an operation has no root span or more than one.
pub fn ledger(spans: &[Span], row_of: impl Fn(&str) -> &'static str) -> Vec<OpLedger> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u64, OpLedger> = BTreeMap::new();
    for s in spans {
        let entry = ops.entry(s.op).or_insert_with(|| OpLedger {
            op: s.op,
            total_ns: 0,
            rows: BTreeMap::new(),
        });
        *entry.rows.entry(row_of(s.name)).or_default() += selfs[&s.id];
        if s.parent.is_none() {
            assert_eq!(entry.total_ns, 0, "operation {} has two roots", s.op);
            entry.total_ns = s.end_ns - s.start_ns;
        }
    }
    for l in ops.values() {
        assert!(l.total_ns > 0, "operation {} has no root span", l.op);
    }
    ops.into_values().collect()
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (NumPy's default); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only() {
        let spans = [
            s(1, None, "root", 0, 100),
            s(2, Some(1), "a", 10, 40),
            s(3, Some(1), "b", 50, 90),
            s(4, Some(3), "c", 60, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            s(1, None, "root", 0, 100),
            s(2, Some(1), "a", 10, 50),
            s(3, Some(1), "b", 40, 80),
            s(4, Some(1), "late", 95, 130),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 70 - 5);
    }

    #[test]
    fn ledger_rows_add_up_to_the_operation_time() {
        let mut spans = vec![
            s(1, None, "query", 0, 1_000),
            s(2, Some(1), "client.sign", 5, 105),
            s(3, Some(1), "relay.query", 110, 810),
            s(4, Some(3), "transport.send", 120, 800),
            s(5, Some(4), "driver.execute", 130, 780),
            s(6, Some(1), "proof.verify", 815, 990),
        ];
        spans.push(Span {
            op: 8,
            ..s(9, None, "query", 2_000, 2_010)
        });
        let ledgers = ledger(&spans, |name| match name {
            "query" => "unattributed",
            other => match other {
                "client.sign" => "sign",
                "relay.query" => "dest",
                "transport.send" => "source",
                "driver.execute" => "driver",
                _ => "verify",
            },
        });
        assert_eq!(ledgers.len(), 2);
        let l = &ledgers[0];
        assert_eq!(l.total_ns, 1_000);
        assert_eq!(l.rows["sign"], 100);
        assert_eq!(l.rows["dest"], 700 - 680);
        assert_eq!(l.rows["source"], 680 - 650);
        assert_eq!(l.rows["driver"], 650);
        assert_eq!(l.rows["verify"], 175);
        assert_eq!(l.rows["unattributed"], 1_000 - 100 - 700 - 175);
        assert_eq!(l.rows.values().sum::<u64>(), l.total_ns);
        assert_eq!(ledgers[1].rows["unattributed"], 10);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(quantile(&hundred, 0.0), 1.0);
        assert_eq!(quantile(&hundred, 1.0), 100.0);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn spans_nest_on_one_thread_and_across_the_remote_hop() {
        let out = traced_op(41, "op", || {
            expect_remote("req-41");
            span("outer", || {
                carrier_span("send", || {
                    std::thread::scope(|scope| {
                        scope
                            .spawn(|| remote_span("driver", "req-41", || 5))
                            .join()
                            .expect("driver thread")
                    })
                })
            })
        });
        assert_eq!(out, 5);
        assert_eq!(span("untraced", || 6), 6);
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.op == 41).collect();
        let id_of = |name| mine.iter().find(|s| s.name == name).expect(name).id;
        let parent_of = |name| mine.iter().find(|s| s.name == name).expect(name).parent;
        assert_eq!(mine.len(), 4);
        assert_eq!(parent_of("op"), None);
        assert_eq!(parent_of("outer"), Some(id_of("op")));
        assert_eq!(parent_of("send"), Some(id_of("outer")));
        assert_eq!(parent_of("driver"), Some(id_of("send")));
        let l = ledger(&mine, |name| if name == "op" { "rest" } else { "layers" });
        assert_eq!(l[0].rows.values().sum::<u64>(), l[0].total_ns);
    }
}
