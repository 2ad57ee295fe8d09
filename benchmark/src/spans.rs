//! Spans recorded by the benchmark's own code around each public call
//! into a layer.
//!
//! A span is `{id, name, start_ns, end_ns, parent, op}`; `op` is the
//! ordinal of the episode / replay / pipeline it belongs to. Spans are
//! kept in memory (the first [`SPAN_CAP`] of a run) and written as JSON
//! lines when the run ends. Counts and self times are accumulated for
//! *every* span at the same boundaries, whether or not it is kept.
//!
//! Self time = duration − time covered by child spans, corrected for the
//! tracer's own cost: an empty span measures `inner_ns` between its two
//! timestamps and costs its parent `pair_ns − inner_ns` outside them
//! (both calibrated at start-up, see [`Tracer::calibrate`]).

use std::io::Write;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count.
pub const SPAN_CAP: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Per-name totals of one traced slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    /// Σ duration, children included.
    pub total_ns: u64,
    /// Σ (duration − children's durations), uncorrected.
    pub self_ns: u64,
    /// Child spans opened directly under spans of this name.
    pub children: u64,
}

impl Agg {
    pub fn add(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.children += other.children;
    }
}

struct Frame {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    id: u32,
}

/// Span recorder. Names are indices into the table given at
/// construction, so the per-span bookkeeping is two clock reads and a
/// few adds.
pub struct Tracer {
    names: &'static [&'static str],
    base: Instant,
    stack: Vec<Frame>,
    kept: Vec<(u32, usize, u64, u64, Option<u32>, u32)>,
    agg: Vec<Agg>,
    next_id: u32,
    op: u32,
    /// Cost of one empty enter/exit pair, and the part of it that falls
    /// between the span's own two timestamps.
    pub pair_ns: f64,
    pub inner_ns: f64,
}

impl Tracer {
    pub fn new(names: &'static [&'static str]) -> Self {
        let mut t = Self {
            names,
            base: Instant::now(),
            stack: Vec::with_capacity(16),
            kept: Vec::with_capacity(SPAN_CAP),
            agg: vec![Agg::default(); names.len()],
            next_id: 0,
            op: 0,
            pair_ns: 0.0,
            inner_ns: 0.0,
        };
        t.calibrate();
        t
    }

    /// Measures the tracer's own per-span cost with empty spans, then
    /// forgets them.
    fn calibrate(&mut self) {
        const N: u64 = 200_000;
        for _ in 0..N / 10 {
            self.enter(0);
            self.exit();
        }
        self.take_slice();
        let t = Instant::now();
        for _ in 0..N {
            self.enter(0);
            self.exit();
        }
        self.pair_ns = t.elapsed().as_nanos() as f64 / N as f64;
        self.inner_ns = self.take_slice()[0].self_ns as f64 / N as f64;
        self.kept.clear();
        self.next_id = 0;
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sets the episode / replay / pipeline ordinal stamped on new spans.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn enter(&mut self, name: usize) {
        let id = self.next_id;
        self.next_id += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children += 1;
        }
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            children: 0,
            id,
        });
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let f = self.stack.pop().expect("exit() without enter()");
        let dur = end_ns - f.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let a = &mut self.agg[f.name];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        a.children += f.children;
        if self.kept.len() < SPAN_CAP {
            self.kept
                .push((f.id, f.name, f.start_ns, end_ns, parent, self.op));
        }
    }

    /// Returns the totals accumulated since the last call and resets
    /// them (one call per traced slice).
    pub fn take_slice(&mut self) -> Vec<Agg> {
        assert!(self.stack.is_empty(), "slice ended inside a span");
        std::mem::replace(&mut self.agg, vec![Agg::default(); self.names.len()])
    }

    /// Self time of `agg` with the tracer's own cost taken out.
    pub fn corrected_self_ns(&self, agg: &Agg) -> f64 {
        let cost =
            agg.calls as f64 * self.inner_ns + agg.children as f64 * (self.pair_ns - self.inner_ns);
        (agg.self_ns as f64 - cost).max(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.kept
            .iter()
            .map(|&(id, name, start_ns, end_ns, parent, op)| Span {
                id,
                name: self.names[name].to_string(),
                start_ns,
                end_ns,
                parent,
                op,
            })
            .collect()
    }
}

/// `span!(tracer, NAME, expr)`: `expr` inside a span. `expr` may itself
/// use the tracer (nested spans).
#[macro_export]
macro_rules! span {
    ($t:expr, $name:expr, $e:expr) => {{
        $t.enter($name);
        let r = $e;
        $t.exit();
        r
    }};
}

pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time per span from a finished span list: duration minus the
    /// time its direct children cover. The reference the tracer's running
    /// totals are tested against, and how a reader of a trace file gets
    /// self times back.
    fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
        let mut covered = std::collections::BTreeMap::<u32, u64>::new();
        for s in spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .map(|s| {
                let dur = s.end_ns - s.start_ns;
                (
                    s.id,
                    dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0)),
                )
            })
            .collect()
    }

    /// Parses what [`write_jsonl`] writes (span names hold no quotes,
    /// commas or escapes: see the metric-name charset test).
    fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let body = line
                    .trim()
                    .strip_prefix('{')
                    .and_then(|l| l.strip_suffix('}'))
                    .ok_or_else(|| format!("not an object: {line}"))?;
                let field = |key: &str| -> Result<&str, String> {
                    body.split(',')
                        .find_map(|kv| kv.strip_prefix(&format!("\"{key}\":")))
                        .ok_or_else(|| format!("missing {key}: {line}"))
                };
                let num = |key: &str| -> Result<u64, String> {
                    field(key)?.parse().map_err(|e| format!("{key}: {e}"))
                };
                Ok(Span {
                    id: num("id")? as u32,
                    name: field("name")?.trim_matches('"').to_string(),
                    start_ns: num("start_ns")?,
                    end_ns: num("end_ns")?,
                    parent: match field("parent")? {
                        "null" => None,
                        p => Some(p.parse().map_err(|e| format!("parent: {e}"))?),
                    },
                    op: num("op")? as u32,
                })
            })
            .collect()
    }

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: format!("layer.s{id}"),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // 0: [0,100] with adjacent children 1: [10,30], 2: [30,60];
        // 2 has a nested child 3: [35,50].
        let spans = vec![
            span(3, 35, 50, Some(2)),
            span(1, 10, 30, Some(0)),
            span(2, 30, 60, Some(0)),
            span(0, 0, 100, None),
        ];
        let st: std::collections::BTreeMap<u32, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(
            st[&0],
            100 - 20 - 30,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 30 - 15);
        assert_eq!(st[&3], 15);
        assert_eq!(st.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn tracer_totals_agree_with_the_span_list() {
        static NAMES: [&str; 3] = ["a.root", "b.mid", "c.leaf"];
        let mut t = Tracer::new(&NAMES);
        for op in 0..5 {
            t.set_op(op);
            t.enter(0);
            for _ in 0..3 {
                t.enter(1);
                span!(t, 2, std::hint::black_box(op));
                t.exit();
            }
            span!(t, 2, ());
            t.exit();
        }
        let agg = t.take_slice();
        assert_eq!(agg.iter().map(|a| a.calls).collect::<Vec<_>>(), [5, 15, 20]);
        assert_eq!(
            agg.iter().map(|a| a.children).collect::<Vec<_>>(),
            [20, 15, 0]
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 40);
        let by_id: std::collections::BTreeMap<u32, &Span> =
            spans.iter().map(|s| (s.id, s)).collect();
        let mut from_list = [0u64; 3];
        for (id, self_ns) in self_times(&spans) {
            let i = NAMES.iter().position(|n| *n == by_id[&id].name).unwrap();
            from_list[i] += self_ns;
        }
        for i in 0..3 {
            assert_eq!(agg[i].self_ns, from_list[i], "{}", NAMES[i]);
        }
        assert!(spans.iter().filter(|s| s.op == 4).count() == 8);
        assert!(t.pair_ns > 0.0 && t.inner_ns <= t.pair_ns);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span(0, 0, 1_000_000_007, None),
            Span {
                op: 17,
                ..span(1, 5, 9, Some(0))
            },
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(read_jsonl(&text).unwrap(), spans);
        assert!(read_jsonl("{\"id\":1}").is_err());
    }
}
