//! Hand-rolled JSON persistence for simulator configurations.
//!
//! The workspace's vendored `serde` is an API-compatible no-op stub (it
//! exists so derives compile, not to serialize), so durable config files —
//! experiment manifests, checkpoint sidecars — go through this module
//! instead, following the `mirage-nn` checkpoint writer's approach.
//!
//! The format is stable and **backward compatible**: every key is
//! optional, and a missing key takes the value `SimConfig::new(nodes)` /
//! `ReferenceConfig::new(nodes)` would give it. In particular, config
//! files written before heterogeneous pools existed (no `"hetero"` key)
//! deserialize to the homogeneous single-partition model, and files
//! written before fault injection (no `"faults"`/`"retry"`) get the inert
//! fault model — both pinned by tests here.

use std::fmt;

use crate::backfill::BackfillPolicy;
use crate::fault::{FaultModel, RetryPolicy};
use crate::hetero::{HeteroModel, NodePool};
use crate::priority::PriorityWeights;
use crate::reference::ReferenceConfig;
use crate::simulator::SimConfig;

/// Error from parsing a persisted simulator config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigJsonError(String);

impl ConfigJsonError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for ConfigJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulator config JSON: {}", self.0)
    }
}

impl std::error::Error for ConfigJsonError {}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Serializes a fast-simulator config. Round-trips exactly through
/// [`sim_config_from_json`] (floats use the shortest round-trip repr).
pub fn sim_config_to_json(cfg: &SimConfig) -> String {
    let mut s = String::with_capacity(512);
    s.push('{');
    push_kv(&mut s, "nodes", &cfg.nodes.to_string());
    push_weights(&mut s, &cfg.weights);
    push_backfill(&mut s, &cfg.backfill);
    push_kv(&mut s, "reject_oversized", bool_str(cfg.reject_oversized));
    push_kv(&mut s, "sched_depth", &cfg.sched_depth.to_string());
    push_faults(&mut s, &cfg.faults);
    push_retry(&mut s, &cfg.retry);
    push_hetero(&mut s, &cfg.hetero);
    finish_obj(&mut s);
    s
}

/// Serializes a reference-simulator config. Round-trips exactly through
/// [`reference_config_from_json`].
pub fn reference_config_to_json(cfg: &ReferenceConfig) -> String {
    let mut s = String::with_capacity(512);
    s.push('{');
    push_kv(&mut s, "nodes", &cfg.nodes.to_string());
    push_weights(&mut s, &cfg.weights);
    push_kv(&mut s, "sched_interval", &cfg.sched_interval.to_string());
    push_kv(
        &mut s,
        "backfill_interval",
        &cfg.backfill_interval.to_string(),
    );
    push_backfill(&mut s, &cfg.backfill);
    push_kv(&mut s, "tick", &cfg.tick.to_string());
    push_faults(&mut s, &cfg.faults);
    push_retry(&mut s, &cfg.retry);
    push_hetero(&mut s, &cfg.hetero);
    finish_obj(&mut s);
    s
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// `{:?}` on a finite f64 is the shortest decimal that parses back to the
/// same bits, which is exactly what a round-tripping config file needs.
fn f64_str(v: f64) -> String {
    format!("{v:?}")
}

fn push_kv(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\": ");
    s.push_str(value);
    s.push_str(", ");
}

fn push_str_kv(s: &mut String, key: &str, value: &str) {
    let mut quoted = String::with_capacity(value.len() + 2);
    quoted.push('"');
    for ch in value.chars() {
        match ch {
            '"' => quoted.push_str("\\\""),
            '\\' => quoted.push_str("\\\\"),
            c if (c as u32) < 0x20 => quoted.push_str(&format!("\\u{:04x}", c as u32)),
            c => quoted.push(c),
        }
    }
    quoted.push('"');
    push_kv(s, key, &quoted);
}

fn finish_obj(s: &mut String) {
    if s.ends_with(", ") {
        s.truncate(s.len() - 2);
    }
    s.push('}');
}

fn push_weights(s: &mut String, w: &PriorityWeights) {
    let mut o = String::new();
    o.push('{');
    push_kv(&mut o, "age", &f64_str(w.age));
    push_kv(&mut o, "age_max", &w.age_max.to_string());
    push_kv(&mut o, "size", &f64_str(w.size));
    push_kv(&mut o, "fairshare", &f64_str(w.fairshare));
    push_kv(
        &mut o,
        "fairshare_halflife",
        &w.fairshare_halflife.to_string(),
    );
    finish_obj(&mut o);
    push_kv(s, "weights", &o);
}

fn push_backfill(s: &mut String, b: &BackfillPolicy) {
    let v = match b {
        BackfillPolicy::None => "\"none\"".to_string(),
        BackfillPolicy::Easy { reserve_depth } => {
            format!("{{\"easy\": {reserve_depth}}}")
        }
    };
    push_kv(s, "backfill", &v);
}

fn push_faults(s: &mut String, f: &FaultModel) {
    let mut o = String::new();
    o.push('{');
    push_kv(&mut o, "mtbf", &f.mtbf.to_string());
    push_kv(&mut o, "mttr", &f.mttr.to_string());
    push_kv(&mut o, "job_fail_prob", &f64_str(f.job_fail_prob));
    push_kv(&mut o, "seed", &f.seed.to_string());
    push_kv(&mut o, "horizon", &f.horizon.to_string());
    finish_obj(&mut o);
    push_kv(s, "faults", &o);
}

fn push_retry(s: &mut String, r: &RetryPolicy) {
    let mut o = String::new();
    o.push('{');
    push_kv(&mut o, "max_attempts", &r.max_attempts.to_string());
    push_kv(&mut o, "backoff_base", &r.backoff_base.to_string());
    push_kv(&mut o, "backoff_cap", &r.backoff_cap.to_string());
    finish_obj(&mut o);
    push_kv(s, "retry", &o);
}

fn push_hetero(s: &mut String, h: &HeteroModel) {
    let mut o = String::new();
    o.push('{');
    push_kv(&mut o, "enabled", bool_str(h.enabled));
    let mut pools = String::from("[");
    for (i, p) in h.pools.iter().enumerate() {
        if i > 0 {
            pools.push_str(", ");
        }
        let mut po = String::new();
        po.push('{');
        push_str_kv(&mut po, "kind", &p.kind);
        push_kv(&mut po, "nodes", &p.nodes.to_string());
        push_kv(&mut po, "throughput", &f64_str(p.throughput));
        finish_obj(&mut po);
        pools.push_str(&po);
    }
    pools.push(']');
    push_kv(&mut o, "pools", &pools);
    push_kv(&mut o, "contention", &f64_str(h.contention));
    push_kv(&mut o, "congestion", &f64_str(h.congestion));
    push_kv(&mut o, "seed", &h.seed.to_string());
    finish_obj(&mut o);
    push_kv(s, "hetero", &o);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (numbers kept as raw text so u64 seeds keep full
// precision instead of routing through f64)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> ConfigJsonError {
        ConfigJsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ConfigJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ConfigJsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, ConfigJsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, ConfigJsonError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        Ok(Json::Num(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("numeric bytes are ASCII")
                .to_string(),
        ))
    }

    fn string(&mut self) -> Result<String, ConfigJsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ConfigJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ConfigJsonError> {
        self.expect(b'{')?;
        let mut kvs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kvs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            kvs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kvs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse_root(s: &str) -> Result<Json, ConfigJsonError> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

// Typed field readers: absent keys fall back to `default`, present keys
// must parse (a malformed value is an error, not a silent default).

fn num<T: std::str::FromStr>(v: &Json, what: &str) -> Result<T, ConfigJsonError> {
    let Json::Num(raw) = v else {
        return Err(ConfigJsonError::new(format!("{what}: expected a number")));
    };
    raw.parse::<T>()
        .map_err(|_| ConfigJsonError::new(format!("{what}: cannot parse {raw:?}")))
}

fn field_num<T: std::str::FromStr>(
    obj: &Json,
    key: &str,
    default: T,
) -> Result<T, ConfigJsonError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => num(v, key),
    }
}

fn field_bool(obj: &Json, key: &str, default: bool) -> Result<bool, ConfigJsonError> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ConfigJsonError::new(format!("{key}: expected a bool"))),
    }
}

fn read_weights(obj: &Json, default: PriorityWeights) -> Result<PriorityWeights, ConfigJsonError> {
    let Some(w) = obj.get("weights") else {
        return Ok(default);
    };
    Ok(PriorityWeights {
        age: field_num(w, "age", default.age)?,
        age_max: field_num(w, "age_max", default.age_max)?,
        size: field_num(w, "size", default.size)?,
        fairshare: field_num(w, "fairshare", default.fairshare)?,
        fairshare_halflife: field_num(w, "fairshare_halflife", default.fairshare_halflife)?,
    })
}

fn read_backfill(obj: &Json, default: BackfillPolicy) -> Result<BackfillPolicy, ConfigJsonError> {
    match obj.get("backfill") {
        None => Ok(default),
        Some(Json::Str(s)) if s == "none" => Ok(BackfillPolicy::None),
        Some(v @ Json::Obj(_)) => match v.get("easy") {
            Some(d) => Ok(BackfillPolicy::Easy {
                reserve_depth: num(d, "backfill.easy")?,
            }),
            None => Err(ConfigJsonError::new("backfill: unknown object variant")),
        },
        Some(_) => Err(ConfigJsonError::new(
            "backfill: expected \"none\" or {\"easy\": depth}",
        )),
    }
}

fn read_faults(obj: &Json) -> Result<FaultModel, ConfigJsonError> {
    let d = FaultModel::none();
    let Some(f) = obj.get("faults") else {
        return Ok(d);
    };
    Ok(FaultModel {
        mtbf: field_num(f, "mtbf", d.mtbf)?,
        mttr: field_num(f, "mttr", d.mttr)?,
        job_fail_prob: field_num(f, "job_fail_prob", d.job_fail_prob)?,
        seed: field_num(f, "seed", d.seed)?,
        horizon: field_num(f, "horizon", d.horizon)?,
    })
}

fn read_retry(obj: &Json) -> Result<RetryPolicy, ConfigJsonError> {
    let d = RetryPolicy::default();
    let Some(r) = obj.get("retry") else {
        return Ok(d);
    };
    Ok(RetryPolicy {
        max_attempts: field_num(r, "max_attempts", d.max_attempts)?,
        backoff_base: field_num(r, "backoff_base", d.backoff_base)?,
        backoff_cap: field_num(r, "backoff_cap", d.backoff_cap)?,
    })
}

fn read_hetero(obj: &Json) -> Result<HeteroModel, ConfigJsonError> {
    let d = HeteroModel::none();
    let Some(h) = obj.get("hetero") else {
        // Pre-pool config file: homogeneous single-partition model.
        return Ok(d);
    };
    let mut pools = Vec::new();
    if let Some(arr) = h.get("pools") {
        let Json::Arr(items) = arr else {
            return Err(ConfigJsonError::new("hetero.pools: expected an array"));
        };
        for item in items {
            let Some(Json::Str(kind)) = item.get("kind") else {
                return Err(ConfigJsonError::new("hetero.pools.kind: expected a string"));
            };
            pools.push(NodePool {
                kind: kind.clone(),
                nodes: field_num(item, "nodes", 0u32)?,
                throughput: field_num(item, "throughput", 1.0f64)?,
            });
        }
    }
    Ok(HeteroModel {
        enabled: field_bool(h, "enabled", d.enabled)?,
        pools,
        contention: field_num(h, "contention", d.contention)?,
        congestion: field_num(h, "congestion", d.congestion)?,
        seed: field_num(h, "seed", d.seed)?,
    })
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// Parses a fast-simulator config. Missing keys default like
/// `SimConfig::new(nodes)`; a missing `"nodes"` defaults to 1.
pub fn sim_config_from_json(s: &str) -> Result<SimConfig, ConfigJsonError> {
    let root = parse_root(s)?;
    if !matches!(root, Json::Obj(_)) {
        return Err(ConfigJsonError::new("top level: expected an object"));
    }
    let nodes = field_num(&root, "nodes", 1u32)?;
    let d = SimConfig::new(nodes);
    Ok(SimConfig {
        nodes,
        weights: read_weights(&root, d.weights)?,
        backfill: read_backfill(&root, d.backfill)?,
        reject_oversized: field_bool(&root, "reject_oversized", d.reject_oversized)?,
        sched_depth: field_num(&root, "sched_depth", d.sched_depth)?,
        faults: read_faults(&root)?,
        retry: read_retry(&root)?,
        hetero: read_hetero(&root)?,
    })
}

/// Parses a reference-simulator config. Missing keys default like
/// `ReferenceConfig::new(nodes)`; a missing `"nodes"` defaults to 1.
pub fn reference_config_from_json(s: &str) -> Result<ReferenceConfig, ConfigJsonError> {
    let root = parse_root(s)?;
    if !matches!(root, Json::Obj(_)) {
        return Err(ConfigJsonError::new("top level: expected an object"));
    }
    let nodes = field_num(&root, "nodes", 1u32)?;
    let d = ReferenceConfig::new(nodes);
    Ok(ReferenceConfig {
        nodes,
        weights: read_weights(&root, d.weights)?,
        sched_interval: field_num(&root, "sched_interval", d.sched_interval)?,
        backfill_interval: field_num(&root, "backfill_interval", d.backfill_interval)?,
        backfill: read_backfill(&root, d.backfill)?,
        tick: field_num(&root, "tick", d.tick)?,
        faults: read_faults(&root)?,
        retry: read_retry(&root)?,
        hetero: read_hetero(&root)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hetero_cfg() -> SimConfig {
        let mut cfg = SimConfig::new(8);
        cfg.sched_depth = 64;
        cfg.faults = FaultModel::moderate(17);
        cfg.retry.max_attempts = 5;
        cfg.hetero = HeteroModel::with_pools(
            vec![NodePool::new("a100", 2, 1.6), NodePool::new("v100", 6, 1.0)],
            0.75,
            12_345_678_901_234_567,
        );
        cfg
    }

    #[test]
    fn sim_config_round_trips_with_hetero_pools() {
        let cfg = hetero_cfg();
        let json = sim_config_to_json(&cfg);
        let back = sim_config_from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn reference_config_round_trips_with_hetero_pools() {
        let mut cfg = ReferenceConfig::new(8);
        cfg.tick = 15;
        cfg.backfill = BackfillPolicy::None;
        cfg.hetero = HeteroModel::balanced(8, 99);
        let json = reference_config_to_json(&cfg);
        let back = reference_config_from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn legacy_fixture_without_pool_fields_is_homogeneous() {
        // A config file exactly as PR-7-era code would have written it: no
        // "hetero" key at all. Must parse to the homogeneous model and
        // otherwise match the explicit fields.
        let legacy = r#"{
            "nodes": 16,
            "weights": {"age": 1000.0, "age_max": 604800, "size": 200.0,
                        "fairshare": 500.0, "fairshare_halflife": 604800},
            "backfill": {"easy": 2},
            "reject_oversized": false,
            "sched_depth": 128,
            "faults": {"mtbf": 86400, "mttr": 3600, "job_fail_prob": 0.01,
                       "seed": 7, "horizon": 2592000},
            "retry": {"max_attempts": 3, "backoff_base": 60, "backoff_cap": 3600}
        }"#;
        let cfg = sim_config_from_json(legacy).unwrap();
        assert!(cfg.hetero.is_none(), "legacy files stay homogeneous");
        assert_eq!(cfg.hetero, HeteroModel::none());
        assert_eq!(cfg.nodes, 16);
        assert!(!cfg.reject_oversized);
        assert_eq!(cfg.sched_depth, 128);
        assert_eq!(cfg.backfill, BackfillPolicy::Easy { reserve_depth: 2 });
        assert_eq!(cfg.faults.seed, 7);
        assert!(cfg.validate().is_ok());
        // Even older files (pre-fault-injection) also parse.
        let ancient = r#"{"nodes": 4}"#;
        let cfg = sim_config_from_json(ancient).unwrap();
        assert_eq!(cfg, SimConfig::new(4));
        let rcfg = reference_config_from_json(ancient).unwrap();
        assert_eq!(rcfg, ReferenceConfig::new(4));
    }

    #[test]
    fn u64_seeds_keep_full_precision() {
        let mut cfg = SimConfig::new(2);
        cfg.faults.seed = u64::MAX - 1;
        cfg.hetero = HeteroModel::with_pools(vec![NodePool::new("p", 2, 1.0)], 0.0, u64::MAX);
        let back = sim_config_from_json(&sim_config_to_json(&cfg)).unwrap();
        assert_eq!(back.faults.seed, u64::MAX - 1);
        assert_eq!(back.hetero.seed, u64::MAX);
    }

    #[test]
    fn malformed_values_error_instead_of_defaulting() {
        assert!(sim_config_from_json("{").is_err());
        assert!(sim_config_from_json(r#"{"nodes": "eight"}"#).is_err());
        assert!(sim_config_from_json(r#"{"backfill": 3}"#).is_err());
        assert!(sim_config_from_json(r#"{"hetero": {"pools": 7}}"#).is_err());
        assert!(sim_config_from_json(r#"{"nodes": 2} trailing"#).is_err());
    }

    #[test]
    fn unsound_weights_in_a_file_are_typed_errors_at_validation() {
        // Parsing only checks shape; `validate()` is where a persisted
        // config that would turn every priority into NaN/inf is refused.
        for (json, field) in [
            (
                r#"{"nodes": 4, "weights": {"age_max": 0}}"#,
                "weights.age_max",
            ),
            (
                r#"{"nodes": 4, "weights": {"age_max": -5}}"#,
                "weights.age_max",
            ),
            (r#"{"nodes": 4, "weights": {"age": -1.0}}"#, "weights.age"),
            (
                r#"{"nodes": 4, "weights": {"size": 1e999}}"#,
                "weights.size",
            ),
            (
                r#"{"nodes": 4, "weights": {"fairshare": -0.5}}"#,
                "weights.fairshare",
            ),
        ] {
            let err = sim_config_from_json(json).unwrap().validate().unwrap_err();
            assert_eq!(err.field, field, "{json}");
            let err = reference_config_from_json(json)
                .unwrap()
                .validate()
                .unwrap_err();
            assert_eq!(err.field, field, "{json}");
        }
        // A disabled half-life and zero weights stay legal.
        let ok = r#"{"nodes": 4, "weights": {"age": 0.0, "size": 0.0,
                     "fairshare": 0.0, "fairshare_halflife": 0}}"#;
        assert!(sim_config_from_json(ok).unwrap().validate().is_ok());
    }

    #[test]
    fn pool_kind_strings_escape_round_trip() {
        let mut cfg = SimConfig::new(2);
        cfg.hetero = HeteroModel::with_pools(vec![NodePool::new("a\"b\\c", 2, 1.0)], 0.0, 1);
        let back = sim_config_from_json(&sim_config_to_json(&cfg)).unwrap();
        assert_eq!(back.hetero.pools[0].kind, "a\"b\\c");
    }
}
