//! The served database and the request streams, all made from one seed.
//!
//! Each group of the served database gets its own relation names (a
//! prefix per group) so that one schema holds every region of Wijsen's
//! chart:
//!
//! | group         | relations                         | facts  | region            |
//! |---------------|-----------------------------------|--------|-------------------|
//! | `chain`       | path3 `chain_R/S/T`               | ≈135k  | FO (Theorem 1)    |
//! | `chain-small` | path3 `small_R/S/T`               | ≈13.5k | FO, open `q(z)`   |
//! | `t3`          | fig4's six relations `t3_R1..R6`  | ≈1.2k  | P, Theorem 3      |
//! | `t4`          | AC(3), C(3), C(2)                 | ≈1.2k each | P, Theorem 4  |
//! | `conp`        | q0 `q0_R0/S0`                     | small  | coNP, exact oracle |
//! | `conf`        | Figure 1's `conf_C/R`, scaled up  | ≈17k   | FO                |
//!
//! `cqa_gen` makes the `t3`, `t4` and `conp` groups. Its constants contain
//! `#` (`x#3`, `noise#0#17`), which the line protocol cuts as a comment even
//! inside quotes, so every generated constant goes through
//! [`protocol_safe`] on the way in. The path3 and conference groups are
//! generated here: `cqa_gen`'s generic generator draws each alternative's
//! non-key value from the pool of the variable at the same *position* in
//! the query's sorted variable list, not of the atom's own variable, so on
//! path3 no alternative ever joins and every candidate is non-certain.

use cqa_data::{Schema, UncertainDatabase, Value};
use cqa_gen::{cycle_instance, q0_instance, CycleInstanceConfig, GeneratorConfig};
use cqa_query::{catalog, ConjunctiveQuery, Term};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Worker threads of the served `certainty serve` process.
pub const SERVER_THREADS: usize = 2;

/// Blocks per path3 relation of `chain` (≈1.55 facts per block).
const CHAIN_BLOCKS: usize = 29_000;
/// Blocks per path3 relation of `chain-small`.
const SMALL_BLOCKS: usize = 2_900;
/// Share of path3 non-key values that point at no block of the next
/// relation: the knob that makes some candidates non-certain.
const DANGLING: f64 = 0.08;
/// Distinct `w` values of the path3 `T` relations.
const W_POOL: usize = 1_000;
/// Conferences of the `conf` group.
const CONFERENCES: usize = 3_000;

/// SplitMix64: a tiny, index-addressable generator. `mix(seed ^ i)` gives
/// the i-th draw of a stream without generating the ones before it.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        unit(self.next())
    }
}

/// A draw mapped to `[0, 1)`.
pub fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Maps a generated constant to one the line protocol can carry: `#`
/// starts a comment there, even inside quotes. Panics on any other
/// character the protocol or the fact syntax would split on.
pub fn protocol_safe(value: &Value) -> Value {
    match value {
        Value::Str(s) => {
            let mapped = s.replace('#', "_");
            assert!(
                !mapped.contains([',', '(', ')', '"', '\\', ' ', ';']),
                "generated constant {mapped:?} cannot be written in the line protocol"
            );
            Value::str(mapped)
        }
        other => other.clone(),
    }
}

/// Facts and blocks of one group, for the per-run record.
pub struct GroupSize {
    pub name: &'static str,
    pub facts: usize,
    pub blocks: usize,
}

/// One group: its name and the (prefixed) relations it owns.
struct Group {
    name: &'static str,
    relations: Vec<String>,
}

pub struct Served {
    pub db: UncertainDatabase,
    /// `relation` declarations in schema order: the document the server
    /// is started on (its facts come from the CQDB file).
    pub schema_doc: String,
    groups: Vec<Group>,
    /// Keys of `chain_R` and of `conf_R`, in generation order.
    pub chain_keys: Vec<String>,
    pub conf_keys: Vec<String>,
}

/// Renders a catalog query's body with every relation prefixed.
fn body(query: &ConjunctiveQuery, prefix: &str) -> String {
    let schema = query.schema();
    let atoms: Vec<String> = query
        .atoms()
        .iter()
        .map(|atom| {
            let terms: Vec<String> = atom
                .terms()
                .iter()
                .map(|t| match t {
                    Term::Var(v) => v.to_string(),
                    Term::Const(c) => format!("\"{c}\""),
                })
                .collect();
            format!(
                "{prefix}{}({})",
                schema.relation(atom.relation()).name,
                terms.join(", ")
            )
        })
        .collect();
    atoms.join(", ")
}

/// Copies a generated group database into the served one under `prefix`,
/// mapping every constant through [`protocol_safe`].
fn import(served: &mut UncertainDatabase, group: &UncertainDatabase, prefix: &str) {
    let schema = group.schema().clone();
    for fact in group.sorted_facts() {
        let name = format!("{prefix}{}", schema.relation(fact.relation()).name);
        let values: Vec<Value> = fact.values().iter().map(protocol_safe).collect();
        served
            .insert_values(&name, values)
            .expect("generated facts fit the served schema");
    }
}

/// A path3 group: blocks of 1–3 facts whose non-key values mostly point at
/// blocks of the next relation; a [`DANGLING`] share points nowhere.
fn path3_group(
    db: &mut UncertainDatabase,
    rng: &mut Rng,
    prefix: &str,
    blocks: usize,
) -> Vec<String> {
    let mut keys = Vec::with_capacity(blocks);
    let layers = [("R", "x", "y"), ("S", "y", "z"), ("T", "z", "w")];
    for (rel, key_var, value_var) in layers {
        let relation = format!("{prefix}{rel}");
        for i in 0..blocks {
            let key = format!("{key_var}_{i}");
            let size = match rng.unit() {
                u if u < 0.55 => 1,
                u if u < 0.90 => 2,
                _ => 3,
            };
            for _ in 0..size {
                let value = if rel == "T" {
                    format!("w_{}", rng.below(W_POOL))
                } else if rng.unit() < DANGLING {
                    format!("{value_var}d_{}", rng.below(blocks))
                } else {
                    format!("{value_var}_{}", rng.below(blocks))
                };
                // A repeated value is a duplicate insert: the block stays
                // smaller, which is fine.
                db.insert_values(&relation, [key.clone(), value])
                    .expect("path3 facts fit the served schema");
            }
            if rel == "R" {
                keys.push(key);
            }
        }
    }
    keys
}

/// Figure 1's conference database, scaled up: `conf_C(conf, year; city)`
/// and `conf_R(conf; rank)`, with Rome and rank A common enough that the
/// open conference query has certain and non-certain candidates.
fn conferences(db: &mut UncertainDatabase, rng: &mut Rng) -> Vec<String> {
    let mut keys = Vec::with_capacity(CONFERENCES);
    for i in 0..CONFERENCES {
        let conf = format!("c_{i}");
        for year in 0..1 + rng.below(4) {
            let year = format!("y{}", 2000 + year);
            for _ in 0..1 + usize::from(rng.unit() < 0.4) {
                let city = if rng.unit() < 0.35 {
                    "Rome".to_string()
                } else {
                    format!("city_{}", rng.below(40))
                };
                db.insert_values("conf_C", [conf.clone(), year.clone(), city])
                    .expect("conference facts fit the served schema");
            }
        }
        for _ in 0..1 + usize::from(rng.unit() < 0.4) {
            let rank = match rng.unit() {
                u if u < 0.5 => "A",
                u if u < 0.8 => "B",
                _ => "C",
            };
            db.insert_values("conf_R", [conf.as_str(), rank])
                .expect("conference facts fit the served schema");
        }
        keys.push(conf);
    }
    keys
}

impl Served {
    pub fn generate(seed: u64) -> Served {
        let fig4 = catalog::fig4().query;
        let ac3 = catalog::ac_k(3).query;
        let c3 = catalog::c_k(3).query;
        let c2 = catalog::c_k(2).query;
        let q0 = catalog::q0().query;
        let path3 = catalog::fo_path3().query;
        let conf = catalog::conference().query;
        let parts: [(&'static str, &str, &Arc<Schema>); 8] = [
            ("chain", "chain_", path3.schema()),
            ("chain-small", "small_", path3.schema()),
            ("t3", "t3_", fig4.schema()),
            ("t4", "ac3_", ac3.schema()),
            ("t4", "c3_", c3.schema()),
            ("t4", "c2_", c2.schema()),
            ("conp", "q0_", q0.schema()),
            ("conf", "conf_", conf.schema()),
        ];
        let mut schema = Schema::new();
        let mut schema_doc = String::new();
        let mut groups: Vec<Group> = Vec::new();
        for (group, prefix, part) in parts {
            for (_, relation) in part.iter() {
                let name = format!("{prefix}{}", relation.name);
                schema
                    .add_relation(&name, relation.arity(), relation.key_len())
                    .expect("prefixed relation names are distinct");
                let columns: Vec<String> = (0..relation.arity())
                    .map(|i| {
                        let star = if i < relation.key_len() { "*" } else { "" };
                        format!("c{i}{star}")
                    })
                    .collect();
                let _ = writeln!(schema_doc, "relation {name}({})", columns.join(", "));
                match groups.iter_mut().find(|g| g.name == group) {
                    Some(g) => g.relations.push(name),
                    None => groups.push(Group {
                        name: group,
                        relations: vec![name],
                    }),
                }
            }
        }
        let mut db = UncertainDatabase::new(schema.into_shared());
        let mut rng = Rng::new(seed);
        let chain_keys = path3_group(&mut db, &mut rng, "chain_", CHAIN_BLOCKS);
        path3_group(&mut db, &mut rng, "small_", SMALL_BLOCKS);
        let t3 = cqa_gen::UncertainDbGenerator::new(
            &fig4,
            GeneratorConfig {
                seed: rng.next(),
                matches: 100,
                domain_per_variable: 6,
                extra_block_facts: 1,
                alternative_join_probability: 0.5,
            },
        )
        .generate();
        import(&mut db, &t3, "t3_");
        let cycles = |k: usize, with_s: bool, nodes: usize, seed: u64| {
            cycle_instance(
                k,
                with_s,
                &CycleInstanceConfig {
                    seed,
                    nodes_per_layer: nodes,
                    edges_per_node: 2,
                    encoded_cycle_fraction: 0.6,
                },
            )
        };
        import(&mut db, &cycles(3, true, 200, rng.next()), "ac3_");
        import(&mut db, &cycles(3, false, 200, rng.next()), "c3_");
        import(&mut db, &cycles(2, false, 300, rng.next()), "c2_");
        import(&mut db, &q0_instance(rng.next(), 10, 2, 0.7), "q0_");
        let conf_keys = conferences(&mut db, &mut rng);
        Served {
            db,
            schema_doc,
            groups,
            chain_keys,
            conf_keys,
        }
    }

    /// Facts and blocks per group.
    pub fn group_sizes(&self) -> Vec<GroupSize> {
        let schema = self.db.schema().clone();
        self.groups
            .iter()
            .map(|group| {
                let ids: Vec<_> = group
                    .relations
                    .iter()
                    .map(|r| schema.relation_id(r).expect("group relation exists"))
                    .collect();
                GroupSize {
                    name: group.name,
                    facts: ids
                        .iter()
                        .map(|&id| self.db.relation_facts(id).count())
                        .sum(),
                    blocks: ids.iter().map(|&id| self.db.blocks_of(id).count()).sum(),
                }
            })
            .collect()
    }
}

/// The `analytic` rotation: the heavy first-order queries, one per
/// free-variable position. The first is the workload's set-up probe.
pub fn analytic_classes() -> Vec<String> {
    let path3 = catalog::fo_path3().query;
    vec![
        "ab :- chain_R(x, y), chain_S(y, z), chain_T(z, \"w_none\")".to_string(),
        format!("ax(x) :- {}", body(&path3, "chain_")),
        format!("az(z) :- {}", body(&path3, "small_")),
        "aconf(x) :- conf_C(x, y, \"Rome\"), conf_R(x, \"A\")".to_string(),
    ]
}

/// The polynomial regions of the chart (Theorems 3 and 4), one query each:
/// fig4, AC(3), C(3), C(2). Their solvers purify the *whole* served
/// database before deciding, which takes seconds per request at this size
/// and varies with the layout of the other groups, so they are not part of
/// the timed rotation: a traced `analytic` run sends each once after its
/// window, checks the answers and times the solvers. The coNP region (q0,
/// exact oracle) is left out: its purification removes the unrelated
/// blocks one at a time and did not finish within a minute on the served
/// database.
pub fn region_probes() -> Vec<String> {
    vec![
        format!("afig4 :- {}", body(&catalog::fig4().query, "t3_")),
        format!("aac3 :- {}", body(&catalog::ac_k(3).query, "ac3_")),
        format!("ac3c :- {}", body(&catalog::c_k(3).query, "c3_")),
        format!("ac2 :- {}", body(&catalog::c_k(2).query, "c2_")),
    ]
}

/// The views `write-churn` subscribes during set-up: one per written group
/// (`chain`, `conf`), one over `t3` (never written) and one over the whole
/// of the small write target.
pub fn views() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "v_chain",
            "v(x) :- chain_R(x, y), chain_S(y, z), chain_T(z, \"w_1\")",
        ),
        ("v_conf", "v(x) :- conf_C(x, y, \"Rome\"), conf_R(x, \"A\")"),
        ("v_t3", "v(x) :- t3_R3(x, y, u3, u4), t3_R5(y, u5, u6)"),
        ("v_rank_a", "v(x) :- conf_R(x, \"A\")"),
    ]
}

/// Probes of the final state: every fact of both write targets.
pub fn final_probes() -> Vec<&'static str> {
    vec![
        "final_conf(x, y) :- conf_R(x, y)",
        "final_chain(x, y) :- chain_R(x, y)",
    ]
}

/// Point query templates: one bound key constant `{K}` of `chain_R` or
/// `conf_R`, Boolean and open.
const POINT_TEMPLATES: [(bool, &str); 4] = [
    (
        true,
        "pcb :- chain_R(\"{K}\", y), chain_S(y, z), chain_T(z, w)",
    ),
    (
        true,
        "pco(y) :- chain_R(\"{K}\", y), chain_S(y, z), chain_T(z, w)",
    ),
    (
        false,
        "pfb :- conf_C(\"{K}\", y, \"Rome\"), conf_R(\"{K}\", \"A\")",
    ),
    (
        false,
        "pfo(y) :- conf_C(\"{K}\", y, z), conf_R(\"{K}\", \"A\")",
    ),
];

/// Zipf exponent of the point keys.
const ZIPF_S: f64 = 1.0;
/// Share of `write-churn` reads that are `\view` reads.
const VIEW_READ_SHARE: f64 = 0.4;

/// The seeded stream of read requests: request `i` is a pure function of
/// `(seed, i)`, so two connections can share one stream through an atomic
/// counter and the traced run can replay any prefix.
pub struct ReadStream {
    seed: u64,
    views: bool,
    chain: (Zipf, Vec<usize>),
    conf: (Zipf, Vec<usize>),
    chain_keys: Vec<String>,
    conf_keys: Vec<String>,
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

impl ReadStream {
    /// Point queries only (`views == false`), or the `write-churn` mix of
    /// point queries and `\view` reads. Request 0 is always a chain point
    /// query: it is the set-up probe.
    pub fn new(served: &Served, seed: u64, views: bool) -> ReadStream {
        let mut rng = Rng::new(seed ^ 0x5EED_F00D);
        let chain = (
            Zipf::new(served.chain_keys.len(), ZIPF_S),
            shuffled(served.chain_keys.len(), &mut rng),
        );
        let conf = (
            Zipf::new(served.conf_keys.len(), ZIPF_S),
            shuffled(served.conf_keys.len(), &mut rng),
        );
        ReadStream {
            seed: rng.next(),
            views,
            chain,
            conf,
            chain_keys: served.chain_keys.clone(),
            conf_keys: served.conf_keys.clone(),
        }
    }

    pub fn request(&self, i: u64) -> String {
        let draw = mix(self.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
        let view_names = views();
        if self.views && i > 0 && unit(draw) < VIEW_READ_SHARE {
            let (name, _) = view_names[(mix(draw) % view_names.len() as u64) as usize];
            return format!("\\view {name}");
        }
        // Request 0, the set-up probe, is always the chain Boolean template:
        // the first query decides which lazy indexes exist when the
        // read-only workloads time their writes, and every later write
        // patches those.
        let template = if i == 0 {
            0
        } else {
            (draw % POINT_TEMPLATES.len() as u64) as usize
        };
        let (on_chain, template) = POINT_TEMPLATES[template];
        let (zipf, order) = if on_chain { &self.chain } else { &self.conf };
        let rank = zipf.sample(unit(mix(draw ^ 0x2545_F491_4F6C_DD1D)));
        let key = if on_chain {
            &self.chain_keys[order[rank]]
        } else {
            &self.conf_keys[order[rank]]
        };
        template.replace("{K}", key)
    }
}

/// The classes of one timed `analytic` round, in a seeded order. Open
/// `q(x)` on `chain` goes twice, so that the median falls inside one
/// class's samples (`q(x)`) and the 90th percentile inside another's
/// (`q(z)`), never on the gap between two classes.
pub fn analytic_round(seed: u64, round: u64) -> Vec<usize> {
    let mut slots = vec![0, 1, 1, 2, 3];
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0x9E37_79B9));
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    slots
}

/// Which write target a write touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Target {
    /// `conf_R`: ≈4k facts.
    Small,
    /// `chain_R`: ≈45k facts.
    Large,
}

impl Target {
    pub fn name(self) -> &'static str {
        match self {
            Target::Small => "small",
            Target::Large => "large",
        }
    }
}

/// One write of the script.
#[derive(Clone, Debug)]
pub struct ScriptedWrite {
    pub target: Target,
    pub text: String,
}

/// One write target's blocks, as the script's earlier writes leave them.
struct TargetBlocks {
    relation: &'static str,
    keys: Vec<String>,
    by_key: HashMap<String, Vec<String>>,
}

/// The write kinds each target cycles through, so every run applies the
/// same mix whatever the seed: a new value in an existing block, a removal
/// that leaves its block non-empty, a fresh block, a whole-block removal.
#[derive(Clone, Copy)]
enum Kind {
    InsertValue,
    RemoveValue,
    InsertBlock,
    RemoveBlock,
}

const CYCLE: [Kind; 4] = [
    Kind::InsertValue,
    Kind::RemoveValue,
    Kind::InsertBlock,
    Kind::RemoveBlock,
];

impl TargetBlocks {
    fn of(served: &Served, relation: &'static str) -> TargetBlocks {
        let id = served
            .db
            .schema()
            .relation_id(relation)
            .expect("write target exists");
        let mut by_key: HashMap<String, Vec<String>> = HashMap::new();
        let mut keys = Vec::new();
        for fact in served.db.relation_facts(id) {
            let key = fact.value(0).to_string();
            if !by_key.contains_key(&key) {
                keys.push(key.clone());
            }
            by_key
                .entry(key)
                .or_default()
                .push(fact.value(1).to_string());
        }
        keys.sort();
        TargetBlocks {
            relation,
            keys,
            by_key,
        }
    }

    /// A random key whose block holds at least `min` facts.
    fn key_with(&self, rng: &mut Rng, min: usize) -> String {
        loop {
            let key = &self.keys[rng.below(self.keys.len())];
            if self.by_key.get(key).map_or(0, Vec::len) >= min {
                return key.clone();
            }
        }
    }

    /// A value for `key`'s block that the block does not hold yet.
    fn new_value(&self, rng: &mut Rng, target: Target, key: &str) -> String {
        let held = self.by_key.get(key);
        loop {
            let candidate = match target {
                Target::Small => format!("rank_{}", rng.below(8)),
                Target::Large if rng.unit() < DANGLING => format!("yd_{}", rng.below(CHAIN_BLOCKS)),
                Target::Large => format!("y_{}", rng.below(CHAIN_BLOCKS)),
            };
            if held.is_none_or(|block| !block.contains(&candidate)) {
                return candidate;
            }
        }
    }
}

/// The seeded write script: `\insert`, `\remove` and `\remove-block`
/// alternating between `conf_R` and `chain_R`, each target cycling through
/// [`CYCLE`]. Every write is effective against the state the earlier ones
/// leave; the seed picks keys and values.
pub fn write_script(served: &Served, seed: u64, count: usize) -> Vec<ScriptedWrite> {
    let mut small = TargetBlocks::of(served, "conf_R");
    let mut large = TargetBlocks::of(served, "chain_R");
    let mut rng = Rng::new(seed ^ 0x0057_121E);
    let mut script = Vec::with_capacity(count);
    for i in 0..count {
        let (target, blocks) = if i % 2 == 0 {
            (Target::Small, &mut small)
        } else {
            (Target::Large, &mut large)
        };
        let relation = blocks.relation;
        let kind = CYCLE[(i / 2) % CYCLE.len()];
        let text = match kind {
            Kind::InsertValue | Kind::InsertBlock => {
                let key = if matches!(kind, Kind::InsertBlock) {
                    let key = format!("w{}_{i}", relation.to_ascii_lowercase());
                    blocks.keys.push(key.clone());
                    key
                } else {
                    blocks.key_with(&mut rng, 1)
                };
                let value = blocks.new_value(&mut rng, target, &key);
                blocks
                    .by_key
                    .entry(key.clone())
                    .or_default()
                    .push(value.clone());
                format!("\\insert {relation}({key}, {value})")
            }
            Kind::RemoveValue => {
                let key = blocks.key_with(&mut rng, 2);
                let block = blocks
                    .by_key
                    .get_mut(&key)
                    .expect("the key was drawn from the map");
                let value = block.swap_remove(rng.below(block.len()));
                format!("\\remove {relation}({key}, {value})")
            }
            Kind::RemoveBlock => {
                let key = blocks.key_with(&mut rng, 1);
                let block = blocks
                    .by_key
                    .get_mut(&key)
                    .expect("the key was drawn from the map");
                let value = block[0].clone();
                block.clear();
                format!("\\remove-block {relation}({key}, {value})")
            }
        };
        script.push(ScriptedWrite { target, text });
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 1.0);
        assert_eq!(zipf.sample(0.0), 0);
        assert_eq!(zipf.sample(0.999_999_999), 999);
        let mut rng = Rng::new(7);
        let low = (0..10_000).filter(|_| zipf.sample(rng.unit()) < 10).count();
        // The first ten ranks hold ≈39% of Zipf(1) mass over 1000 ranks.
        assert!((3_000..4_800).contains(&low), "{low}");
    }

    #[test]
    fn generated_constants_are_mapped_to_protocol_safe_ones() {
        assert_eq!(
            protocol_safe(&Value::str("noise#0#17")),
            Value::str("noise_0_17")
        );
        assert_eq!(protocol_safe(&Value::Int(3)), Value::Int(3));
    }
}
