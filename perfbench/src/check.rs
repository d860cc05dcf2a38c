//! The correctness gate: every response is compared byte for byte with the
//! single-threaded in-process reference on the same epoch, computed on a
//! mirror that replays the write log from the same CQDB file.
//!
//! A read sent while writes were in flight may have been answered on any
//! epoch between the last write acknowledged before it was sent and the
//! last write sent before its response arrived; it passes if it matches
//! the reference on one of them.

use crate::drive::{Live, Observed};
use crate::served;
use cqa_core::answers::certain_answers;
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{Schema, UncertainDatabase};
use cqa_par::{BatchOutcome, BatchResult};
use cqa_serve::{protocol, Request, WriteOp};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Candidates and certain answers the reference found, per query class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounts {
    pub evaluations: usize,
    pub candidates: usize,
    pub certain: usize,
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Responses compared with a reference (reads, probes, finals).
    pub checked: usize,
    pub mismatches: Vec<String>,
    pub classes: BTreeMap<String, ClassCounts>,
    /// Solver per Boolean class, as the reference classified it.
    pub solvers: BTreeMap<String, &'static str>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

/// The single-threaded reference: the response line a fresh engine renders
/// for `text` on `db`, plus (class, candidates, certain).
pub struct Reference {
    schema: Arc<Schema>,
    views: HashMap<String, cqa_query::ConjunctiveQuery>,
}

impl Reference {
    pub fn new(schema: Arc<Schema>) -> Reference {
        let views = served::views()
            .into_iter()
            .map(|(name, text)| {
                let (_, query) = cqa_serve::protocol::parse_request(&schema, text, 1)
                    .ok()
                    .flatten()
                    .and_then(|r| match r {
                        Request::Query { name, query } => Some((name, query)),
                        _ => None,
                    })
                    .expect("view queries parse");
                (name.to_string(), query)
            })
            .collect();
        Reference { schema, views }
    }

    fn open(name: &str, query: &cqa_query::ConjunctiveQuery, db: &UncertainDatabase) -> Evaluated {
        let (line, candidates, certain) = match certain_answers(query, db) {
            Ok(sets) => {
                let (p, c) = (sets.possible.len(), sets.certain.len());
                let line = protocol::render_result(&BatchResult {
                    name: name.to_string(),
                    outcome: BatchOutcome::Answers(sets),
                });
                (line, p, c)
            }
            Err(e) => (protocol::render_error(name, &e.to_string()), 0, 0),
        };
        Evaluated {
            line,
            class: name.to_string(),
            candidates,
            certain,
            solver: None,
        }
    }

    /// Evaluates a read request (`query`, `\view`) or a `\subscribe` reply.
    pub fn evaluate(&self, text: &str, db: &UncertainDatabase, epoch: u64) -> Evaluated {
        match protocol::parse_request(&self.schema, text, 1) {
            Ok(Some(Request::Query { name, query })) if query.is_boolean() => {
                let (line, possible, certain, solver) = match CertaintyEngine::new(&query) {
                    Ok(engine) => {
                        // Facts outside the query's relations cannot change
                        // its answer; deciding the polynomial regions on the
                        // query's own relations keeps the reference off the
                        // whole-database purification the server pays.
                        let restricted;
                        let db = if engine.solver_name() == "rewriting" {
                            db
                        } else {
                            let relations: Vec<_> =
                                query.atoms().iter().map(|a| a.relation()).collect();
                            restricted = db.restrict_to_relations(&relations);
                            &restricted
                        };
                        let certain = engine.is_certain(db);
                        let possible = engine.is_possible(db);
                        let solver = engine.solver_name();
                        let line = protocol::render_result(&BatchResult {
                            name: name.clone(),
                            outcome: BatchOutcome::Boolean {
                                certain,
                                possible,
                                solver,
                            },
                        });
                        (line, possible, certain, Some(solver))
                    }
                    Err(e) => (
                        protocol::render_error(&name, &e.to_string()),
                        false,
                        false,
                        None,
                    ),
                };
                Evaluated {
                    line,
                    class: name,
                    candidates: usize::from(possible),
                    certain: usize::from(certain),
                    solver,
                }
            }
            Ok(Some(Request::Query { name, query })) => Self::open(&name, &query, db),
            Ok(Some(Request::View { name })) => match self.views.get(&name) {
                Some(query) => Self::open(&name, query, db),
                None => unknown(text),
            },
            Ok(Some(Request::Subscribe { name, query })) => {
                let view = Self::open(&name, &query, db);
                Evaluated {
                    line: format!(
                        "ok: subscribed {name}, epoch {epoch}, {} certain / {} possible",
                        view.certain, view.candidates
                    ),
                    ..view
                }
            }
            Ok(Some(Request::Epoch)) => Evaluated {
                line: format!("epoch: {epoch}"),
                class: "epoch".into(),
                candidates: 0,
                certain: 0,
                solver: None,
            },
            _ => unknown(text),
        }
    }
}

pub struct Evaluated {
    pub line: String,
    pub class: String,
    pub candidates: usize,
    pub certain: usize,
    pub solver: Option<&'static str>,
}

fn unknown(text: &str) -> Evaluated {
    Evaluated {
        line: format!("<no reference for {text:?}>"),
        class: "unknown".into(),
        candidates: 0,
        certain: 0,
        solver: None,
    }
}

/// Applies one scripted write to the mirror; returns the reply the server
/// must have sent and whether the write was effective.
fn apply(
    db: &mut UncertainDatabase,
    schema: &Arc<Schema>,
    text: &str,
) -> Option<(bool, &'static str)> {
    let Ok(Some(Request::Write(op))) = protocol::parse_request(schema, text, 1) else {
        return None;
    };
    Some(match op {
        WriteOp::Insert(fact) => (db.insert(fact).ok()?, "inserted"),
        WriteOp::RemoveFact(fact) => (db.remove_fact(&fact), "removed"),
        WriteOp::RemoveBlock(fact) => (db.remove_block_of(&fact), "removed block"),
    })
}

fn clip(text: &str) -> &str {
    let end = text.char_indices().nth(160).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

/// Checks every response of a live run against the mirror replay of its
/// write log, loaded from the CQDB file the server was started on.
pub fn verify(mirror: &mut UncertainDatabase, live: &Live) -> Verdict {
    let schema = mirror.schema().clone();
    let reference = Reference::new(schema.clone());
    let mut verdict = Verdict::default();
    // Every observed response with the range of write counts it may have
    // seen; set-up probes and finals have a single one.
    let observed: Vec<&Observed> = live
        .probes
        .iter()
        .chain(&live.reads)
        .chain(&live.regions)
        .chain(&live.finals)
        .collect();
    verdict.attempted = observed.len() + live.writes.len();
    let mut order: Vec<usize> = (0..observed.len()).collect();
    order.sort_by_key(|&i| observed[i].lo);
    let mut next = 0;
    let mut active: Vec<usize> = Vec::new();
    if mirror.epoch() != live.base_epoch {
        verdict.fail(format!(
            "the server loaded epoch {}, the mirror {}",
            live.base_epoch,
            mirror.epoch()
        ));
    }
    for step in 0..=live.writes.len() {
        if step > 0 {
            let write = &live.writes[step - 1];
            match apply(mirror, &schema, &write.text) {
                Some((changed, verb)) => {
                    // The published epoch is the database's own counter,
                    // which a whole-block removal advances once per fact.
                    let verb = if changed { verb } else { "no-op" };
                    let expected = format!("ok: {verb}, epoch {}", mirror.epoch());
                    if write.reply != expected {
                        verdict.fail(format!(
                            "write {:?}: expected {expected:?}, got {:?}",
                            write.text, write.reply
                        ));
                    }
                }
                None => verdict.fail(format!("write {:?} does not parse", write.text)),
            }
        }
        while next < order.len() && observed[order[next]].lo <= step {
            active.push(order[next]);
            next += 1;
        }
        let epoch = mirror.epoch();
        let mut memo: HashMap<&str, String> = HashMap::new();
        active.retain(|&i| {
            let seen = observed[i];
            let expected = memo.entry(seen.text.as_str()).or_insert_with(|| {
                let evaluated = reference.evaluate(&seen.text, mirror, epoch);
                let class = verdict.classes.entry(evaluated.class.clone()).or_default();
                class.evaluations += 1;
                class.candidates += evaluated.candidates;
                class.certain += evaluated.certain;
                if let Some(solver) = evaluated.solver {
                    verdict.solvers.insert(evaluated.class, solver);
                }
                evaluated.line
            });
            if *expected == seen.response {
                verdict.checked += 1;
                return false;
            }
            if seen.hi <= step {
                verdict.checked += 1;
                verdict.fail(format!(
                    "{:?} (writes {}..={}): expected {:?}, got {:?}",
                    clip(&seen.text),
                    seen.lo,
                    seen.hi,
                    clip(expected),
                    clip(&seen.response)
                ));
                return false;
            }
            true
        });
    }
    debug_assert!(active.is_empty() && next == order.len());
    verdict
}
