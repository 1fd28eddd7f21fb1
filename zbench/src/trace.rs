//! Outside-in tracing: spans around the calls into each layer.
//!
//! The benchmark does not instrument the program. It stamps what it can see
//! from its own code: the submit instant and the wake-up instant on the
//! client thread; every entry into and exit from its transaction closure and
//! the interval its `TxCtx` calls cover, which all run on the node thread;
//! and, for writes, the node-side resolve instant `TxTicket::wait_timed`
//! returns. Those stamps cut each transaction's `txn` span into children
//! that follow one another without gaps worth naming:
//!
//! | child               | from                         | to                        |
//! |---------------------|------------------------------|---------------------------|
//! | `core.queue`        | submit                       | first closure entry       |
//! | `ownership.acquire` | first entry (write re-run after `NeedsOwnership`) | last entry |
//! | `read.retry`        | first entry (read re-run)    | last entry                |
//! | `write.retry`       | first entry (write re-run for any other reason) | last entry |
//! | `store.exec`        | first `TxCtx` call of the last entry | end of its last call |
//! | `commit.begin`      | last closure exit            | node-side resolve (writes) |
//! | `core.reply`        | resolve (writes) or last exit (reads) | client wakes     |
//!
//! Read-only transactions have no ticket, so their `core.reply` starts at
//! the closure's last exit and also holds the local read validation; they
//! have no `commit.begin`.

use std::fmt::Write as _;
use std::time::Instant;

use zeus_core::TxError;

/// The interval a closure entry's `TxCtx` calls cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    start: Option<Instant>,
    end: Option<Instant>,
}

impl Interval {
    /// Times `call` and widens the interval to cover it.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.start.get_or_insert(start);
        self.end = Some(Instant::now());
        out
    }
}

/// What a transaction's closure recorded on the node thread, over all of
/// its entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    entries: u32,
    ownership_rounds: u32,
    first_entry: Option<Instant>,
    last_entry: Option<Instant>,
    store: Interval,
    last_exit: Option<Instant>,
}

impl Stamps {
    /// Records one closure entry that ran from `entry` to `exit`, made its
    /// `TxCtx` calls within `store` and returned `result`.
    pub fn record<T>(
        &mut self,
        entry: Instant,
        store: Interval,
        exit: Instant,
        result: &Result<T, TxError>,
    ) {
        self.entries += 1;
        self.first_entry.get_or_insert(entry);
        self.last_entry = Some(entry);
        self.store = store;
        self.last_exit = Some(exit);
        if matches!(result, Err(TxError::NeedsOwnership { .. })) {
            self.ownership_rounds += 1;
        }
    }
}

/// The stamps of one committed, traced transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxTrace {
    /// Whether the transaction was read-only.
    pub read_only: bool,
    /// Client clock just before submission.
    pub submit: Instant,
    /// Node-side resolve instant (write transactions only).
    pub resolved: Option<Instant>,
    /// Client clock just after the result arrived.
    pub woke: Instant,
    /// The closure's own stamps.
    pub stamps: Stamps,
}

impl TxTrace {
    /// Closure entries (1 when the transaction ran once).
    pub fn entries(&self) -> u32 {
        self.stamps.entries
    }

    /// Entries that stopped on a missing ownership level.
    pub fn ownership_rounds(&self) -> u32 {
        self.stamps.ownership_rounds
    }
}

/// Span names, parent first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole transaction, submit to wake-up.
    Txn,
    /// Submit to first closure entry.
    Queue,
    /// A write's re-runs after `NeedsOwnership`.
    Acquire,
    /// A read's re-runs.
    ReadRetry,
    /// A write's re-runs for any other reason.
    WriteRetry,
    /// The `TxCtx` calls of the last entry.
    StoreExec,
    /// Last closure exit to node-side resolve.
    CommitBegin,
    /// Resolve (or, for reads, last exit) to client wake-up.
    Reply,
}

impl Kind {
    /// The span's name in the trace output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Queue => "core.queue",
            Kind::Acquire => "ownership.acquire",
            Kind::ReadRetry => "read.retry",
            Kind::WriteRetry => "write.retry",
            Kind::StoreExec => "store.exec",
            Kind::CommitBegin => "commit.begin",
            Kind::Reply => "core.reply",
        }
    }
}

/// One span: a transaction id, a name and an interval in nanoseconds since
/// the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The transaction the span belongs to; its `txn` span is the parent.
    pub txn: u64,
    /// What the span covers.
    pub kind: Kind,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of transaction `txn`: its `txn` span first, then its children
/// in time order. `None` if the closure left no stamps.
pub fn spans(txn: u64, trace: &TxTrace, origin: Instant) -> Option<Vec<Span>> {
    let ns = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
    let s = &trace.stamps;
    let (first, last, exit) = (s.first_entry?, s.last_entry?, s.last_exit?);
    let span = |kind, start, end| Span {
        txn,
        kind,
        start: ns(start),
        end: ns(end),
    };
    let mut out = vec![
        span(Kind::Txn, trace.submit, trace.woke),
        span(Kind::Queue, trace.submit, first),
    ];
    if s.entries > 1 {
        let kind = if trace.read_only {
            Kind::ReadRetry
        } else if s.ownership_rounds > 0 {
            Kind::Acquire
        } else {
            Kind::WriteRetry
        };
        out.push(span(kind, first, last));
    }
    if let (Some(start), Some(end)) = (s.store.start, s.store.end) {
        out.push(span(Kind::StoreExec, start, end));
    }
    let reply_from = match trace.resolved {
        Some(resolved) => {
            out.push(span(Kind::CommitBegin, exit, resolved));
            resolved
        }
        None => exit,
    };
    out.push(span(Kind::Reply, reply_from, trace.woke));
    Some(out)
}

/// Checks that `spans` — one transaction's, parent first — has children
/// that lie inside the parent and do not overlap one another.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let (parent, children) = spans.split_first().ok_or("no spans")?;
    if parent.kind != Kind::Txn || parent.start > parent.end {
        return Err(format!("txn {}: bad parent span {parent:?}", parent.txn));
    }
    let mut cursor = parent.start;
    for child in children {
        if child.txn != parent.txn || child.kind == Kind::Txn {
            return Err(format!("txn {}: foreign child {child:?}", parent.txn));
        }
        if child.start < cursor || child.end < child.start || child.end > parent.end {
            return Err(format!(
                "txn {}: {} [{}, {}] leaves its parent [{}, {}] or overlaps its sibling",
                parent.txn,
                child.kind.name(),
                child.start,
                child.end,
                parent.start,
                parent.end
            ));
        }
        cursor = child.end;
    }
    Ok(())
}

/// The parent's duration minus the time its children cover, in µs.
pub fn self_micros(spans: &[Span]) -> f64 {
    let (parent, children) = spans.split_first().expect("spans start with the parent");
    let covered: u64 = children.iter().map(Span::nanos).sum();
    (parent.nanos() as f64 - covered as f64) / 1_000.0
}

/// Renders spans as tab-separated lines: txn id, name, start ns, end ns.
pub fn render(spans: &[Span], out: &mut String) {
    for span in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            span.txn,
            span.kind.name(),
            span.start,
            span.end
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, micros: u64) -> Instant {
        origin + Duration::from_micros(micros)
    }

    fn write_trace(origin: Instant) -> TxTrace {
        let mut stamps = Stamps::default();
        let pending: Result<(), TxError> = Err(TxError::NeedsOwnership {
            object: zeus_core::ObjectId(1),
            kind: zeus_proto::OwnershipRequestKind::AcquireOwner,
        });
        stamps.record(
            at(origin, 10),
            Interval::default(),
            at(origin, 11),
            &pending,
        );
        let store = Interval {
            start: Some(at(origin, 101)),
            end: Some(at(origin, 103)),
        };
        stamps.record(at(origin, 100), store, at(origin, 104), &Ok(()));
        TxTrace {
            read_only: false,
            submit: at(origin, 1),
            resolved: Some(at(origin, 110)),
            woke: at(origin, 120),
            stamps,
        }
    }

    #[test]
    fn a_handover_write_nests_and_adds_up() {
        let origin = Instant::now();
        let spans = spans(7, &write_trace(origin), origin).unwrap();
        let names: Vec<_> = spans.iter().map(|s| s.kind.name()).collect();
        assert_eq!(
            names,
            [
                "txn",
                "core.queue",
                "ownership.acquire",
                "store.exec",
                "commit.begin",
                "core.reply"
            ]
        );
        check_nesting(&spans).unwrap();
        // 119 µs in all: 9 queued, 90 acquiring, 2 in the store, 6 committing,
        // 10 replying, and 2 of closure body around the store calls.
        assert!((self_micros(&spans) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let origin = Instant::now();
        let good = spans(1, &write_trace(origin), origin).unwrap();

        let mut overlap = good.clone();
        overlap[3].start = overlap[2].end - 1;
        assert!(check_nesting(&overlap).is_err());

        let mut escape = good.clone();
        escape[5].end = good[0].end + 1;
        assert!(check_nesting(&escape).is_err());

        let mut orphan = good;
        orphan[1].txn = 2;
        assert!(check_nesting(&orphan).is_err());
    }
}
