//! The one-line serving-stats rendering shared by the network server's
//! `\stats` command and the CLI's stdin serve loop.

use cqa_par::BatchEngine;
use std::time::Instant;

/// One serving-stats line: throughput, latency percentiles (from the
/// `par.batch.query_nanos` histogram), cache hit rates, pool and epoch
/// state. `inflight` is the admission-control occupancy (0 for the stdin
/// loop, which has no admission control); `views` counts registered
/// materialized views and `pinned` the old epochs still held by slow
/// readers (both 0 for the stdin loop, which has neither).
pub fn stats_line(
    engine: &BatchEngine,
    served: usize,
    started: Instant,
    inflight: usize,
    views: usize,
    pinned: usize,
) -> String {
    engine.pool().record_metrics();
    let snapshot = cqa_obs::Registry::global().snapshot();
    let qps = served as f64 / started.elapsed().as_secs_f64().max(1e-9);
    let (p50, p99) = snapshot
        .histogram("par.batch.query_nanos")
        .map(|h| {
            (
                h.percentile(50.0) as f64 / 1e6,
                h.percentile(99.0) as f64 / 1e6,
            )
        })
        .unwrap_or((0.0, 0.0));
    let publishes = snapshot.counter("serve.epochs_published").max(1) as f64;
    let per_publish = |name: &str| snapshot.counter(name) as f64 / publishes;
    let rate = |prefix: &str| {
        snapshot
            .hit_rate(prefix)
            .map_or_else(|| "-".to_string(), |r| format!("{:.0}%", r * 100.0))
    };
    format!(
        "stats: {served} served, {inflight} in flight, {qps:.1} qps, \
         p50 {p50:.3} ms, p99 {p99:.3} ms, \
         plan-cache {}, engine-cache {}, steals {}, epoch {}, \
         views {views}, pinned epochs {pinned}, \
         segments per publish {:.1} rebuilt / {:.1} shared",
        rate("exec.plan_cache"),
        rate("par.batch.engine"),
        engine.pool().steals(),
        engine.epoch(),
        per_publish("serve.segments.rebuilt"),
        per_publish("serve.segments.shared"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Schema, UncertainDatabase};
    use cqa_par::ParPool;

    #[test]
    fn stats_lines_render_every_field() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let db = UncertainDatabase::new(schema);
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(1));
        let line = stats_line(&engine, 42, Instant::now(), 3, 2, 1);
        assert!(
            line.starts_with("stats: 42 served, 3 in flight, "),
            "{line}"
        );
        assert!(line.contains("qps"), "{line}");
        assert!(line.contains("p99"), "{line}");
        assert!(line.contains("epoch 0"), "{line}");
        assert!(line.contains("views 2, pinned epochs 1"), "{line}");
    }
}
