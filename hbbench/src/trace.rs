//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. [`Tracer::open`] stamps a span's
//! start and returns its id; [`Tracer::close`] stamps its end. Spans carry
//! their parent's id and a batch id shared by every span of one batch, so
//! a layer's *self time* — its duration minus the part its children cover
//! — can be computed afterwards ([`self_times`]). A disabled tracer records
//! nothing and never reads the clock.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u32 = 0;

/// One recorded call into a layer. Times are nanoseconds since the run's
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique across every tracer of a run (lane in the top byte).
    pub id: u32,
    /// The enclosing span's id, or [`ROOT`].
    pub parent: u32,
    /// Shared by every span of one batch (or tick, or query).
    pub batch: u64,
    /// Layer (or harness step) name.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one thread. `lane` (1..=255) keeps span ids of
    /// different threads apart; a disabled recorder is free.
    pub fn new(epoch: Instant, lane: u8, enabled: bool) -> Tracer {
        assert!(lane > 0, "lane 0 would collide with ROOT");
        Tracer {
            epoch,
            lane: u32::from(lane) << 24,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span and returns its id ([`ROOT`] when disabled).
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, batch: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.lane | (self.spans.len() as u32 + 1);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes span `id` (a no-op for [`ROOT`]).
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let index = (id & 0x00FF_FFFF) as usize - 1;
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans recorded since [`len`](Self::len) returned `first`.
    pub fn spans_since(&self, first: usize) -> &[Span] {
        &self.spans[first..]
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if span.parent != ROOT {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map(|kids| covered_ns(kids, span.start_ns, span.end_ns))
                .unwrap_or(0);
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Total self time and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Writes `spans` as tab-separated `id parent batch name start_ns end_ns`
/// lines, creating the parent directory if needed.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tbatch\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.batch, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            batch: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, ROOT, "batch", 0, 100),
            span(2, 1, "encode", 10, 30),
            span(3, 1, "decode", 40, 70),
            span(4, 3, "crc", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, ROOT, "parent", 100, 200),
            span(2, 1, "a", 90, 130),  // overhangs the start: 30 inside
            span(3, 1, "b", 120, 150), // overlaps a: adds 20
            span(4, 1, "c", 190, 260), // overhangs the end: 10 inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 20 - 10);
    }

    #[test]
    fn by_name_sums_self_time() {
        let spans = [
            span(1, ROOT, "batch", 0, 100),
            span(2, 1, "encode", 0, 40),
            span(3, ROOT, "batch", 100, 150),
            span(4, 3, "encode", 100, 110),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["batch"], (60 + 40, 2));
        assert_eq!(by_name["encode"], (50, 2));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 3, true);
        let outer = tracer.open("outer", ROOT, 1);
        let inner = tracer.time("inner", outer, 1, || 5);
        assert_eq!(inner, 5);
        tracer.close(outer);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].id >> 24, 3);

        let mut off = Tracer::new(Instant::now(), 1, false);
        let id = off.open("x", ROOT, 0);
        off.close(id);
        assert_eq!(id, ROOT);
        assert!(off.into_spans().is_empty());
    }
}
