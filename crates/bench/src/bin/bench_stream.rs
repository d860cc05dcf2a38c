//! Incremental view maintenance vs full recomputation, recorded in
//! `BENCH_stream.json` at the workspace root.
//!
//! The workload is the acceptance instance (the 3-atom chain `path3` at
//! n = 2200, ~13k facts) with the open query `q(x) :- R(x,y), S(y,z),
//! T(z,w)`. Three phases:
//!
//! 1. **Repair latency** — a spoiler fact toggles in and out of an existing
//!    `R` block (single-fact churn). One arm repairs a registered
//!    [`cqa_stream::MaterializedView`] from the recorded delta; the other
//!    recomputes `certain_answers` from scratch on the same mutated
//!    snapshot. Both arms are timed from an already-frozen snapshot (the
//!    freeze is identical shared cost on either server path). The view's
//!    answer sets are asserted identical to the recomputation in every
//!    state before anything is timed, and the speedup must be ≥ 10× at
//!    full scale.
//! 2. **Mode identity** — a seeded churn script (inserts, removals, block
//!    removals) runs against views pinned to every [`cqa_exec::ExecMode`];
//!    after each delta every view must match the from-scratch reference.
//! 3. **Concurrent serve** — a live server with a subscribed view takes a
//!    write stream while readers hammer `\view`; afterwards the maintained
//!    reading must render byte-identically to a mirror database's
//!    reference answer.
//!
//! Run with `cargo run --release -p cqa-bench --bin bench_stream`
//! (`--quick` shrinks the instance for CI smoke runs).

use cqa_bench::{json_escape, ms, quick_flag, scaled_instance, write_bench_json};
use cqa_core::answers::certain_answers;
use cqa_data::{ChangeSet, Delta, Fact, UncertainDatabase, Value};
use cqa_exec::ExecMode;
use cqa_par::{BatchOutcome, BatchResult};
use cqa_query::{catalog, ConjunctiveQuery, Variable};
use cqa_serve::{protocol, Server, ServerConfig};
use cqa_stream::{MaterializedView, ViewMaintainer};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A spoiler fact for an existing `R` block: same key as a generated fact,
/// fresh non-joining second value. Inserting it adds a repair alternative
/// that breaks the block's join (the value occurs in no `S` key), so each
/// toggle genuinely flips a candidate's certainty — the repaired damage is
/// real work, not an empty retouch set.
fn spoiler_fact(db: &UncertainDatabase) -> Fact {
    let schema = db.schema();
    let r = schema.relation_id("R").expect("path3 has R");
    let donor = db
        .relation_facts(r)
        .next()
        .expect("the generated instance has R facts");
    let key = donor.key(schema).to_vec();
    let mut values = key;
    values.push(Value::str("bench-spoiler"));
    Fact::new(r, values)
}

/// Toggles `fact` and records the exact delta, like the server's write path.
fn toggle(db: &mut UncertainDatabase, fact: &Fact, present: &mut bool) -> ChangeSet {
    let mut changes = ChangeSet::new();
    if *present {
        let emptied = db.block_of(fact).is_some_and(cqa_data::Block::is_singleton);
        assert!(db.remove_fact(fact), "the spoiler was present");
        changes.record(Delta::Removed {
            fact: fact.clone(),
            emptied_block: emptied,
        });
    } else {
        assert!(
            db.insert(fact.clone()).expect("spoilers are well-formed"),
            "the spoiler must not collide with the generated instance"
        );
        changes.record(Delta::Inserted(fact.clone()));
    }
    *present = !*present;
    changes
}

/// One seeded churn step for the mode-identity phase: insert a variant into
/// an existing block, remove a fact, or remove a whole block — recorded
/// delta-exactly.
fn churn_step(db: &mut UncertainDatabase, state: &mut u64, changes: &mut ChangeSet) {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let schema = db.schema().clone();
    let rels: Vec<_> = schema.relation_ids().collect();
    let rel = rels[(*state >> 8) as usize % rels.len()];
    let index = db.index();
    let segment = index.segment(rel);
    if segment.fact_count() == 0 {
        return;
    }
    let donor = segment
        .fact(((*state >> 16) as usize % segment.fact_count()) as u32)
        .clone();
    match *state % 3 {
        0 => {
            let mut values = donor.key(&schema).to_vec();
            values.push(Value::str(format!("churn{}", *state % 7)));
            let fact = Fact::new(rel, values);
            if db
                .insert(fact.clone())
                .expect("churn facts are well-formed")
            {
                changes.record(Delta::Inserted(fact));
            }
        }
        1 => {
            let emptied = db
                .block_of(&donor)
                .is_some_and(cqa_data::Block::is_singleton);
            if db.remove_fact(&donor) {
                changes.record(Delta::Removed {
                    fact: donor,
                    emptied_block: emptied,
                });
            }
        }
        _ => {
            let members: Vec<Fact> = db
                .block_with_key(rel, donor.key(&schema))
                .map(|block| block.facts().to_vec())
                .unwrap_or_default();
            if db.remove_block_of(&donor) {
                let last = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    changes.record(Delta::Removed {
                        fact: member,
                        emptied_block: i + 1 == last,
                    });
                }
            }
        }
    }
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

    // -- Phase 1: repair latency vs full recomputation, correctness first.
    let maintainer = ViewMaintainer::new();
    let mut view = MaterializedView::new("q", &query).expect("path3 registers");
    let mut repaired_db = db.clone();
    maintainer
        .initialize(&mut view, &repaired_db.snapshot())
        .expect("initial decision");
    let spoiler = spoiler_fact(&db);
    let mut present = false;
    // Both toggle states must agree with the from-scratch evaluation
    // before either arm is timed.
    for _ in 0..2 {
        let changes = toggle(&mut repaired_db, &spoiler, &mut present);
        let snapshot = repaired_db.snapshot();
        let outcome = maintainer
            .repair(&mut view, &snapshot, &changes)
            .expect("repair");
        let reference = certain_answers(&query, snapshot.database()).expect("answerable");
        assert_eq!(view.certain(), &reference.certain, "certain diverged");
        assert_eq!(view.possible(), &reference.possible, "possible diverged");
        assert!(!outcome.full_recompute, "single-fact damage is local");
    }
    // Each toggle needs a fresh delta and snapshot, so the timed region
    // wraps the repair (resp. recomputation) alone: both server paths pay
    // the identical snapshot cost before either strategy runs, and the gate
    // compares the strategies, not the shared freeze.
    let mut repair_time = std::time::Duration::MAX;
    for _ in 0..runs {
        let changes = toggle(&mut repaired_db, &spoiler, &mut present);
        let snapshot = repaired_db.snapshot();
        let timer = std::time::Instant::now();
        maintainer
            .repair(&mut view, &snapshot, &changes)
            .expect("repair");
        repair_time = repair_time.min(timer.elapsed());
    }
    let mut full_db = db.clone();
    let mut full_present = false;
    let mut full_time = std::time::Duration::MAX;
    for _ in 0..runs {
        let _changes = toggle(&mut full_db, &spoiler, &mut full_present);
        let snapshot = full_db.snapshot();
        let timer = std::time::Instant::now();
        let _ = certain_answers(&query, snapshot.database()).expect("answerable");
        full_time = full_time.min(timer.elapsed());
    }
    let speedup = full_time.as_secs_f64() / repair_time.as_secs_f64().max(1e-9);
    let speedup_ok = speedup >= 10.0;
    eprintln!(
        "  single-fact churn: repair {:9.4} ms vs full recompute {:9.3} ms ({speedup:.1}x)",
        ms(repair_time),
        ms(full_time)
    );
    assert!(
        quick || speedup_ok,
        "view repair must be >= 10x faster than recomputation at full scale, got {speedup:.1}x"
    );

    // -- Phase 2: every ExecMode stays identical to the reference under a
    //    seeded churn script (each mode gets its own engine; the repairs
    //    consume the same recorded deltas).
    let modes = [
        ("auto", ExecMode::Auto),
        ("vectorized", ExecMode::Vectorized),
        ("row_at_a_time", ExecMode::RowAtATime),
    ];
    let churn_steps = if quick { 8 } else { 24 };
    let mut mode_db = db.clone();
    let mut mode_views: Vec<MaterializedView> = modes
        .iter()
        .map(|(name, mode)| {
            let mut view = MaterializedView::new(format!("q-{name}"), &query)
                .and_then(|v| v.with_mode(*mode))
                .expect("path3 registers in every mode");
            maintainer
                .initialize(&mut view, &mode_db.snapshot())
                .expect("initial decision");
            view
        })
        .collect();
    let mut state = 0x5DEE_CE66_D512_B529u64;
    for step in 0..churn_steps {
        let mut changes = ChangeSet::new();
        churn_step(&mut mode_db, &mut state, &mut changes);
        let snapshot = mode_db.snapshot();
        let reference = certain_answers(&query, snapshot.database()).expect("answerable");
        for view in &mut mode_views {
            maintainer
                .repair(view, &snapshot, &changes)
                .expect("repair");
            assert_eq!(
                view.certain(),
                &reference.certain,
                "{} diverged from the reference at churn step {step}",
                view.name()
            );
            assert_eq!(view.possible(), &reference.possible);
        }
    }
    eprintln!(
        "  mode identity: {churn_steps} churn steps identical in auto / vectorized / row-at-a-time"
    );

    // -- Phase 3: the maintained view under live concurrent serve traffic.
    let handle = Server::bind(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            threads: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn acceptor");
    let addr = handle.addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        (
            BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
        )
    };
    let ask = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str| {
        writeln!(writer, "{line}").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_string()
    };
    let (mut reader, mut writer) = connect();
    let view_query = "q(x) :- R(x, y), S(y, z), T(z, w)";
    let subscribed = ask(
        &mut reader,
        &mut writer,
        &format!("\\subscribe q {view_query}"),
    );
    assert!(subscribed.starts_with("ok: subscribed q"), "{subscribed}");

    let write_ops = if quick { 16 } else { 64 };
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    writeln!(writer, "\\view q").expect("send");
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("recv");
                    assert!(response.starts_with("q: "), "{response}");
                    served += 1;
                }
                served
            })
        })
        .collect();
    // The writer churns a handful of fresh R keys — blocks grow
    // alternatives and shed them again — while a mirror database applies
    // the identical stream for the final check. (Generated instance tokens
    // contain `#`, the protocol's comment delimiter, so the stream uses
    // its own keys.)
    let mut mirror = db.clone();
    let schema = mirror.schema().clone();
    for i in 0..write_ops {
        let op = if i % 3 == 2 {
            format!("\\remove R(sk{}, serve{})", (i - 2) % 5, i - 2)
        } else {
            format!("\\insert R(sk{}, serve{i})", i % 5)
        };
        let response = ask(&mut reader, &mut writer, &op);
        assert!(response.starts_with("ok: "), "{op} -> {response}");
        let Ok(Some(protocol::Request::Write(write))) = protocol::parse_request(&schema, &op, 1)
        else {
            panic!("writer ops must parse: {op}");
        };
        match &write {
            cqa_serve::WriteOp::Insert(fact) => {
                let _ = mirror.insert(fact.clone()).expect("mirror insert");
            }
            cqa_serve::WriteOp::RemoveFact(fact) => {
                let _ = mirror.remove_fact(fact);
            }
            cqa_serve::WriteOp::RemoveBlock(fact) => {
                let _ = mirror.remove_block_of(fact);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let view_reads: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    let expected = protocol::render_result(&BatchResult {
        name: "q".to_string(),
        outcome: BatchOutcome::Answers(
            certain_answers(&query, &mirror).expect("mirror evaluation"),
        ),
    });
    let final_view = ask(&mut reader, &mut writer, "\\view q");
    assert_eq!(
        final_view, expected,
        "the maintained view must equal the mirror reference after the churn"
    );
    handle.shutdown();
    eprintln!(
        "  serve churn: {write_ops} writes, {view_reads} concurrent view reads, final reading identical"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"incremental view repair vs full certain-answer recomputation\",\n  \"generated_by\": \"cargo run --release -p cqa-bench --bin bench_stream\",\n  \"quick\": {quick},\n  \"workload\": {{\n    \"name\": \"path3\",\n    \"query\": \"{}\",\n    \"facts\": {},\n    \"blocks\": {}\n  }},\n  \"single_fact_churn\": {{\n    \"repair_ms\": {:.4},\n    \"full_recompute_ms\": {:.4},\n    \"speedup\": {:.1},\n    \"speedup_ok\": {speedup_ok},\n    \"identical_answers\": true\n  }},\n  \"mode_identity\": {{ \"churn_steps\": {churn_steps}, \"modes\": [\"auto\", \"vectorized\", \"row_at_a_time\"], \"identical\": true }},\n  \"serve_churn\": {{ \"writes\": {write_ops}, \"concurrent_view_reads\": {view_reads}, \"final_view_identical\": true }}\n}}\n",
        json_escape(&query.to_string()),
        db.fact_count(),
        db.block_count(),
        ms(repair_time),
        ms(full_time),
        speedup,
    );
    let out = write_bench_json("BENCH_stream.json", &json);
    eprintln!("wrote {}", out.display());
    print!("{json}");
}
