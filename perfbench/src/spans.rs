//! The benchmark's own span recorder for the traced run.
//!
//! Spans wrap calls into the program's public functions from the outside:
//! name, start, end, parent, and the id of the operation they belong to.
//! They are kept in memory and written out once at exit. The program's
//! own telemetry is not touched.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the operation (or probe) the span belongs to.
    pub run: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        run: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off (off costs one thread-local read).
pub fn set_on(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Starts a new operation id for the spans that follow.
pub fn next_run() {
    REC.with(|r| r.borrow_mut().run += 1);
}

/// Runs `f` inside a span called `name` (when recording is on) and returns
/// its result.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let run = r.run;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Every span recorded so far.
pub fn recorded() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Each span's self time: its duration minus the time its child spans
/// cover (children of one span never overlap: the recorder is
/// single-threaded).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time per span name, in ms.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines to `path`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.run, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "op", start_ns: 0, end_ns: 100, parent: None, run: 1 },
            Span { name: "a", start_ns: 10, end_ns: 40, parent: Some(0), run: 1 },
            Span { name: "b", start_ns: 50, end_ns: 60, parent: Some(0), run: 1 },
        ];
        assert_eq!(self_ns(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn spans_nest_only_when_on() {
        span("ignored", || ());
        set_on(true);
        next_run();
        span("outer", || span("inner", || ()));
        set_on(false);
        let spans = recorded();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].parent), ("outer", Some(0)));
    }
}
