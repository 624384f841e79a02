//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own code, around each call it
//! makes into a layer of the program. Each span carries its name, start
//! and end (ns since the recorder's epoch), the span that was open on the
//! same thread when it started (its parent), the recording thread, and a
//! tag: the cell index offline, the session id online. Recording is off
//! unless [`enable`] was called, in which case a span costs two clock
//! reads and one push under a mutex.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Tag value meaning "no cell or session".
pub const NO_TAG: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `network.managed_replay`.
    pub name: &'static str,
    /// Start, ns since the recorder epoch.
    pub start_ns: u64,
    /// End, ns since the recorder epoch.
    pub end_ns: u64,
    /// Recording thread (small integer, stable per thread).
    pub thread: u64,
    /// Cell index or session id, [`NO_TAG`] if none.
    pub tag: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TAG: Cell<u64> = const { Cell::new(NO_TAG) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Turn recording on or off.
pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_named(|| (f(), name))
}

/// Run `f` inside a span whose name `f` picks once it knows what it did
/// (a cache lookup is named after whether it computed or waited).
pub fn span_named<T>(f: impl FnOnce() -> (T, &'static str)) -> T {
    if !enabled() {
        return f().0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let (out, name) = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    record(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        thread: thread_id(),
        tag: TAG.with(Cell::get),
    });
    out
}

/// Record an already-timed root span (a serve connection thread times
/// requests that overlap, so it cannot use the nesting stack).
pub fn record_interval(name: &'static str, start: Instant, end: Instant, tag: u64) {
    if !enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    record(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
        thread: thread_id(),
        tag,
    });
}

fn record(s: Span) {
    SPANS.lock().unwrap().push(s);
}

/// Run `f` with every span it records tagged `tag`.
pub fn with_tag<T>(tag: u64, f: impl FnOnce() -> T) -> T {
    let prev = TAG.with(|t| t.replace(tag));
    let out = f();
    TAG.with(|t| t.set(prev));
    out
}

/// Take every span recorded so far, in start order.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap());
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let tag = if s.tag == NO_TAG {
            "null".to_string()
        } else {
            s.tag.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"tag\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread, tag
        ));
    }
    out
}
