//! The traced run's span store. Spans are the program's own
//! [`CausalSpan`] records: the ones the benchmark opens around its calls
//! into each layer, plus those `Sweep::with_causal` and
//! `GatewayClient::run_job_traced` hand back. They stay in memory and are
//! written out once, when the run ends.

use std::path::Path;
use std::time::Instant;

use shiptlm_kernel::causal::{CausalSpan, CausalTrace, TraceCtx, TRACK_HOST};

/// A span that has started but not yet been stored.
pub struct Open {
    pub span: CausalSpan,
    pub t0: Instant,
}

impl Open {
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.span.trace_id,
            parent_span: self.span.span_id,
        }
    }
}

pub struct SpanStore {
    epoch: Instant,
    spans: Vec<CausalSpan>,
}

impl SpanStore {
    pub fn new() -> SpanStore {
        SpanStore {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a host-time span under `ctx`; its children attach under
    /// [`Open::ctx`] and it is stored by [`SpanStore::close`].
    pub fn open(ctx: TraceCtx, stage: &str, name: &str) -> Open {
        Open {
            span: CausalSpan::new(ctx, stage, name, TRACK_HOST),
            t0: Instant::now(),
        }
    }

    /// Stores `open` as ending now; returns its duration in ns.
    pub fn close(&mut self, open: Open) -> u64 {
        self.close_at(open.span, open.t0, Instant::now())
    }

    /// Stores a span over `[t0, t1]` (for intervals measured elsewhere).
    pub fn close_at(&mut self, span: CausalSpan, t0: Instant, t1: Instant) -> u64 {
        let dur = t1.saturating_duration_since(t0).as_nanos() as u64;
        self.spans.push(span.at(self.ns(t0), dur));
        dur
    }

    /// Keeps spans produced by the program, minus kernel transaction spans
    /// (one per bus transfer; they would dominate memory and say nothing
    /// about host time). `offset_ns` shifts host-track timestamps onto the
    /// store's epoch.
    pub fn keep(&mut self, spans: impl IntoIterator<Item = CausalSpan>, offset_ns: u64) {
        self.spans
            .extend(spans.into_iter().filter(|s| s.stage != "txn").map(|mut s| {
                if s.track == TRACK_HOST {
                    s.ts_ns += offset_ns;
                }
                s
            }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write(self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        CausalTrace::new(self.spans).write_chrome(path)
    }
}

/// Nanoseconds of `[ts, ts + dur)` covered by the union of `children`
/// (each clipped to the parent interval).
pub fn covered_ns(ts: u64, dur: u64, children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let end = ts + dur;
    let mut iv: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, d)| (s.max(ts), (s + d).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_and_clips() {
        assert_eq!(
            covered_ns(10, 100, [(0, 20), (15, 10), (50, 10), (100, 50)]),
            15 + 10 + 10
        );
        assert_eq!(covered_ns(0, 10, []), 0);
    }
}
