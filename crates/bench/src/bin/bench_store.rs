//! Persistent-store and write-cost benchmarks, recorded in
//! `BENCH_store.json` at the workspace root.
//!
//! Two stories are measured:
//!
//! * **save / load throughput** on the acceptance workload (the 3-atom
//!   chain `path3` at n = 2200, ~13k facts) — encoding an
//!   [`cqa_data::UncertainDatabase`] into the chunked dictionary-coded store
//!   format and decoding it back, reported in facts/s and MB/s, with the
//!   round-tripped database asserted to answer identically before anything
//!   is timed;
//! * **insert + snapshot** — one effective single-fact insert followed by
//!   `snapshot()`, the serving writer's per-write data cost, at ~13k and
//!   ~132k facts. Two cases per size: a write to a small relation `W`
//!   (1000 facts) beside the untouched path3 relations, and a write to the
//!   path3 relation `R`. Before timing, the snapshot's statistics, columnar
//!   view and key-position indexes are built, so each timed snapshot
//!   rebuilds them on the written segment as a served database would. Every
//!   timed snapshot is asserted to share all the other relations' segments
//!   with the previous one.
//!
//! Run with `cargo run --release -p cqa-bench --bin bench_store`
//! (`--quick` shrinks the instances for CI smoke runs).

use cqa_bench::{json_escape, ms, quick_flag, scaled_instance, time_min, write_bench_json};
use cqa_core::answers::certain_answers;
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{store, Fact, PositionSet, Schema, Snapshot, UncertainDatabase, Value};
use cqa_query::{catalog, ConjunctiveQuery, Variable};
use std::time::{Duration, Instant};

/// Facts of the small relation `W`.
const SMALL_FACTS: usize = 1000;

/// The path3 instance at `n` plus a small relation `W(k; v)` of
/// [`SMALL_FACTS`] facts.
fn with_small_relation(n: usize) -> UncertainDatabase {
    let path3 = scaled_instance(&catalog::fo_path3().query, n, 11);
    let mut schema = Schema::new();
    for (_, relation) in path3.schema().iter() {
        schema
            .add_relation(relation.name.clone(), relation.arity(), relation.key_len())
            .expect("path3 relations are valid");
    }
    schema.add_relation("W", 2, 1).expect("W is valid");
    // The path3 relations keep their ids, so their facts carry over as is.
    let mut db = UncertainDatabase::from_facts(schema.into_shared(), path3.facts().cloned())
        .expect("path3 facts fit the extended schema");
    for i in 0..SMALL_FACTS {
        db.insert_values("W", [Value::int(i as i64), Value::int((i % 7) as i64)])
            .expect("W facts are well-formed");
    }
    db
}

/// Builds what query evaluation reads on every relation: statistics, the
/// columnar view and the key-position hash indexes.
fn materialize(snapshot: &Snapshot) {
    let index = snapshot.index();
    let _ = index.statistics();
    let _ = index.columnar();
    for rel in snapshot.schema().relation_ids() {
        let key_len = snapshot.schema().relation(rel).key_len();
        let _ = index.position_index(rel, PositionSet::from_positions(0..key_len));
    }
}

/// Median time of `runs` effective inserts of a fresh fact into `relation`
/// (whose values are `key_base + i` and `0`), each followed by
/// `snapshot()` while the previous snapshot is still held. The insert is
/// undone untimed after each run.
fn insert_snapshot(db: &mut UncertainDatabase, relation: &str, runs: usize) -> Duration {
    let rel = db.schema().relation_id(relation).expect("relation exists");
    let relations = db.schema().len();
    let mut held = db.snapshot();
    materialize(&held);
    let mut times = Vec::with_capacity(runs);
    for i in 0..runs {
        let fact = Fact::new(rel, vec![Value::str(format!("fresh-{i}")), Value::int(0)]);
        let started = Instant::now();
        assert!(
            db.insert(fact.clone()).expect("well-formed"),
            "the insert is effective"
        );
        let next = db.snapshot();
        times.push(started.elapsed());
        assert_eq!(
            next.index().shared_segments(held.index()),
            relations - 1,
            "the write copied a segment it did not touch"
        );
        assert!(db.remove_fact(&fact));
        held = db.snapshot();
        drop(next);
    }
    times.sort();
    times[times.len() / 2]
}

fn main() {
    let quick = quick_flag();
    let runs = if quick { 3 } else { 10 };
    let n = if quick { 150 } else { 2200 };
    let boolean = catalog::fo_path3().query;
    let db = scaled_instance(&boolean, n, 11);
    let query = ConjunctiveQuery::with_free_vars(
        boolean.schema().clone(),
        boolean.atoms().to_vec(),
        vec![Variable::new("x")],
    )
    .expect("freeing a variable of a valid query stays valid");
    eprintln!(
        "workload path3: {} facts, {} blocks (quick: {quick})",
        db.fact_count(),
        db.block_count()
    );

    // -- save / load: correctness first, then throughput.
    let bytes = store::save_to_vec(&db);
    let loaded = store::load_from_slice(&bytes).expect("a fresh save loads");
    let engine = CertaintyEngine::new(&boolean).expect("path3 classifies");
    assert_eq!(
        engine.is_certain(&db),
        engine.is_certain(&loaded),
        "round-tripped certainty verdict diverged"
    );
    let reference = certain_answers(&query, &db).expect("path3 is answerable");
    assert_eq!(
        reference,
        certain_answers(&query, &loaded).expect("answerable"),
        "round-tripped certain answers diverged"
    );
    assert_eq!(bytes, store::save_to_vec(&loaded), "save ∘ load not stable");
    let save_time = time_min(runs, || store::save_to_vec(&db));
    let load_time = time_min(runs, || store::load_from_slice(&bytes).expect("loads"));
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);
    let save_mbps = mb / save_time.as_secs_f64().max(1e-9);
    let load_mbps = mb / load_time.as_secs_f64().max(1e-9);
    let save_fps = db.fact_count() as f64 / save_time.as_secs_f64().max(1e-9);
    let load_fps = db.fact_count() as f64 / load_time.as_secs_f64().max(1e-9);
    eprintln!(
        "  save: {:9.3} ms ({:8.1} MB/s, {:10.0} facts/s), {} bytes",
        ms(save_time),
        save_mbps,
        save_fps,
        bytes.len()
    );
    eprintln!(
        "  load: {:9.3} ms ({:8.1} MB/s, {:10.0} facts/s)",
        ms(load_time),
        load_mbps,
        load_fps
    );

    // -- insert + snapshot: a small relation beside large untouched ones,
    //    and the large relation itself, at two sizes.
    let sizes: [usize; 2] = if quick { [150, 1500] } else { [2200, 22000] };
    let mut rows = Vec::new();
    for n in sizes {
        let mut db = with_small_relation(n);
        let large = db
            .schema()
            .relation_id("R")
            .map_or(0, |r| db.relation_facts(r).count());
        for (case, relation, facts) in [
            ("small_beside_large", "W", SMALL_FACTS),
            ("large", "R", large),
        ] {
            let median = insert_snapshot(&mut db, relation, runs);
            eprintln!(
                "  insert+snapshot at {:6} facts, {case:18} ({relation}: {facts:5} facts): {:8.3} ms",
                db.fact_count(),
                ms(median)
            );
            rows.push(format!(
                "    {{ \"facts\": {}, \"case\": \"{case}\", \"relation\": \"{relation}\", \"relation_facts\": {facts}, \"median_ms\": {:.4}, \"untouched_segments_shared\": true }}",
                db.fact_count(),
                ms(median)
            ));
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"columnar store save/load + insert-and-snapshot write cost\",\n  \"generated_by\": \"cargo run --release -p cqa-bench --bin bench_store\",\n  \"quick\": {quick},\n  \"workload\": {{\n    \"name\": \"path3\",\n    \"query\": \"{}\",\n    \"facts\": {},\n    \"blocks\": {},\n    \"file_bytes\": {}\n  }},\n  \"save\": {{ \"ms\": {:.3}, \"mb_per_s\": {:.1}, \"facts_per_s\": {:.0} }},\n  \"load\": {{ \"ms\": {:.3}, \"mb_per_s\": {:.1}, \"facts_per_s\": {:.0}, \"round_trip_identical\": true }},\n  \"insert_snapshot\": [\n{}\n  ]\n}}\n",
        json_escape(&query.to_string()),
        db.fact_count(),
        db.block_count(),
        bytes.len(),
        ms(save_time),
        save_mbps,
        save_fps,
        ms(load_time),
        load_mbps,
        load_fps,
        rows.join(",\n"),
    );
    let out = write_bench_json("BENCH_store.json", &json);
    eprintln!("wrote {}", out.display());
    print!("{json}");
}
