//! Decision ledger: typed JSONL records of every QoR-affecting choice.
//!
//! Spans say *how long* a phase took and metrics say *how many* moves
//! were accepted; the ledger says *which decisions delivered the
//! picoseconds*. Each global λ trial, each ECO arc accept/reject, and
//! each local candidate evaluation appends one [`LedgerRecord`]. The
//! report gate (`clk-bench --bin gate`) reconciles the record stream
//! against the end-to-end skew-variation delta, replays the accepted
//! decisions for a byte-identical determinism audit, and diffs two
//! ledgers decision-by-decision.
//!
//! Contracts:
//!
//! - **One branch when off.** The disabled [`Ledger`] (the default)
//!   costs a single `Option` check per decision site, exactly like the
//!   disabled [`crate::Profiler`]. Callers guard record *construction*
//!   behind [`Ledger::is_enabled`].
//! - **Finite floats only.** A record carrying NaN/Inf is dropped at
//!   append time (counted as `ledger.dropped_nonfinite`), because the
//!   JSON writer serializes non-finite numbers as `null`. On the parse
//!   side a `null` where a required float belongs is therefore a typed
//!   [`LedgerError::NonFinite`], never a silent zero.
//! - **Byte-identical round-trip.** [`LedgerRecord::to_json_line`]
//!   emits fields in a fixed order and the f64 `Display` shortest
//!   representation round-trips exactly, so encode → parse → re-encode
//!   is byte-identical (pinned by proptests in `tests/props.rs`).
//! - **Checkpoint semantics.** Every `var` field is the total skew
//!   variation of the tree *as committed so far*, evaluated under the
//!   flow's init-time alpha factors (stored via [`Ledger::set_alphas`]).
//!   Committed-chain deltas therefore telescope: they sum exactly to
//!   `flow_end.var - flow_init.var`.

use std::sync::{Arc, Mutex};

use crate::json::{parse, Value};

/// A local-phase move, encoded without depending on the optimizer
/// crate. `t` is the paper's move type (1 = size/displace,
/// 2 = child size, 3 = reassign); `dir` indexes the stable
/// eight-way compass array (`Direction::ALL`) when present; `resize`
/// is `"none"`, `"up"` or `"down"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRec {
    pub t: u64,
    pub node: u64,
    pub dir: Option<u64>,
    pub resize: String,
    pub child: Option<u64>,
    pub new_parent: Option<u64>,
}

impl MoveRec {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("t".to_string(), self.t.into()),
            ("node".to_string(), self.node.into()),
            ("dir".to_string(), opt_u64(self.dir)),
            ("resize".to_string(), self.resize.as_str().into()),
            ("child".to_string(), opt_u64(self.child)),
            ("new_parent".to_string(), opt_u64(self.new_parent)),
        ])
    }

    fn from_value(line: usize, kind: &'static str, v: &Value) -> Result<Self, LedgerError> {
        Ok(Self {
            t: get_u64(line, kind, v, "t")?,
            node: get_u64(line, kind, v, "node")?,
            dir: get_opt_u64(line, kind, v, "dir")?,
            resize: get_str(line, kind, v, "resize")?,
            child: get_opt_u64(line, kind, v, "child")?,
            new_parent: get_opt_u64(line, kind, v, "new_parent")?,
        })
    }
}

/// One QoR-affecting decision. Every `var` field is a checkpoint of
/// total skew variation under the flow's init-time alphas (see module
/// docs); `Option` floats are `None` when the ledger had nothing to
/// measure (e.g. a rejected candidate leaves no checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// Flow entry: testcase shape and the starting checkpoint.
    FlowInit {
        flow: String,
        sinks: u64,
        corners: u64,
        var: f64,
    },
    /// A phase begins (`"global"` / `"local"`).
    PhaseStart { phase: String },
    /// A phase ends. `committed=false` means the flow rolled the whole
    /// phase back (lint gate / phase error) and `var` equals the phase
    /// entry checkpoint.
    PhaseEnd {
        phase: String,
        committed: bool,
        var: f64,
    },
    /// A global λ-round begins on the current committed tree.
    RoundStart { round: u64, var: f64 },
    /// One λ value tried within a round: ladder rung taken, certificate
    /// status, LP objective, and the trial-tree checkpoint after its
    /// ECO sweep. `accepted` marks the winning λ of the round.
    Lambda {
        round: u64,
        lambda: f64,
        rung: String,
        cert: String,
        lp_objective: Option<f64>,
        arcs_changed: u64,
        accepted: bool,
        var: Option<f64>,
    },
    /// One ECO arc realization attempt inside a λ trial. `d_lp` is the
    /// LP-assigned per-corner delay delta, `d_now` the pre-ECO delays,
    /// `realized` the achieved delays when realization succeeded.
    /// `var` is the trial-tree checkpoint after an accepted arc.
    EcoArc {
        round: u64,
        lambda: f64,
        arc: u64,
        d_lp: Vec<f64>,
        d_now: Vec<f64>,
        realized: Option<Vec<f64>>,
        accepted: bool,
        var: Option<f64>,
    },
    /// A round ends. `adopted=false` means no λ improved the committed
    /// tree and `var` equals the round-start checkpoint.
    RoundEnd {
        round: u64,
        winner_lambda: Option<f64>,
        adopted: bool,
        var: f64,
    },
    /// One local candidate evaluation. `predicted` is the predictor's
    /// aggregate gain, `measured` the golden-timer aggregate gain,
    /// `deltas` the golden per-corner local-skew deltas. `outcome` is
    /// one of `improving`, `not_improving`, `apply_failed`,
    /// `timing_failed`, `drc`, `panicked`.
    LocalCand {
        iter: u64,
        slot: u64,
        mv: MoveRec,
        predicted: f64,
        measured: Option<f64>,
        deltas: Option<Vec<f64>>,
        outcome: String,
    },
    /// The batch-best candidate was committed (or rolled back by
    /// transaction validation: `committed=false`). `gain` is the golden
    /// aggregate gain; `var` the post-commit checkpoint.
    LocalCommit {
        iter: u64,
        mv: MoveRec,
        gain: f64,
        committed: bool,
        var: Option<f64>,
    },
    /// Flow exit: the final checkpoint.
    FlowEnd { var: f64 },
}

impl LedgerRecord {
    /// The record's kind tag as serialized in the `k` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            LedgerRecord::FlowInit { .. } => "flow_init",
            LedgerRecord::PhaseStart { .. } => "phase_start",
            LedgerRecord::PhaseEnd { .. } => "phase_end",
            LedgerRecord::RoundStart { .. } => "round_start",
            LedgerRecord::Lambda { .. } => "lambda",
            LedgerRecord::EcoArc { .. } => "eco_arc",
            LedgerRecord::RoundEnd { .. } => "round_end",
            LedgerRecord::LocalCand { .. } => "local_cand",
            LedgerRecord::LocalCommit { .. } => "local_commit",
            LedgerRecord::FlowEnd { .. } => "flow_end",
        }
    }

    /// The name of the first non-finite float field, if any. Records
    /// failing this check are dropped at append time.
    #[must_use]
    pub fn non_finite_field(&self) -> Option<&'static str> {
        let bad_opt = |v: &Option<f64>| v.is_some_and(|x| !x.is_finite());
        let bad_vec = |v: &[f64]| v.iter().any(|x| !x.is_finite());
        match self {
            LedgerRecord::FlowInit { var, .. }
            | LedgerRecord::PhaseEnd { var, .. }
            | LedgerRecord::RoundStart { var, .. }
            | LedgerRecord::FlowEnd { var } => (!var.is_finite()).then_some("var"),
            LedgerRecord::PhaseStart { .. } => None,
            LedgerRecord::Lambda {
                lambda,
                lp_objective,
                var,
                ..
            } => {
                if !lambda.is_finite() {
                    Some("lambda")
                } else if bad_opt(lp_objective) {
                    Some("lp_objective")
                } else if bad_opt(var) {
                    Some("var")
                } else {
                    None
                }
            }
            LedgerRecord::EcoArc {
                lambda,
                d_lp,
                d_now,
                realized,
                var,
                ..
            } => {
                if !lambda.is_finite() {
                    Some("lambda")
                } else if bad_vec(d_lp) {
                    Some("d_lp")
                } else if bad_vec(d_now) {
                    Some("d_now")
                } else if realized.as_deref().is_some_and(bad_vec) {
                    Some("realized")
                } else if bad_opt(var) {
                    Some("var")
                } else {
                    None
                }
            }
            LedgerRecord::RoundEnd {
                winner_lambda, var, ..
            } => {
                if bad_opt(winner_lambda) {
                    Some("winner_lambda")
                } else if !var.is_finite() {
                    Some("var")
                } else {
                    None
                }
            }
            LedgerRecord::LocalCand {
                predicted,
                measured,
                deltas,
                ..
            } => {
                if !predicted.is_finite() {
                    Some("predicted")
                } else if bad_opt(measured) {
                    Some("measured")
                } else if deltas.as_deref().is_some_and(bad_vec) {
                    Some("deltas")
                } else {
                    None
                }
            }
            LedgerRecord::LocalCommit { gain, var, .. } => {
                if !gain.is_finite() {
                    Some("gain")
                } else if bad_opt(var) {
                    Some("var")
                } else {
                    None
                }
            }
        }
    }

    /// Serializes with a fixed field order per variant (the byte-
    /// identity contract depends on this order never changing).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let k = |s: &'static str| ("k".to_string(), s.into());
        match self {
            LedgerRecord::FlowInit {
                flow,
                sinks,
                corners,
                var,
            } => Value::Obj(vec![
                k("flow_init"),
                ("flow".to_string(), flow.as_str().into()),
                ("sinks".to_string(), (*sinks).into()),
                ("corners".to_string(), (*corners).into()),
                ("var".to_string(), (*var).into()),
            ]),
            LedgerRecord::PhaseStart { phase } => Value::Obj(vec![
                k("phase_start"),
                ("phase".to_string(), phase.as_str().into()),
            ]),
            LedgerRecord::PhaseEnd {
                phase,
                committed,
                var,
            } => Value::Obj(vec![
                k("phase_end"),
                ("phase".to_string(), phase.as_str().into()),
                ("committed".to_string(), (*committed).into()),
                ("var".to_string(), (*var).into()),
            ]),
            LedgerRecord::RoundStart { round, var } => Value::Obj(vec![
                k("round_start"),
                ("round".to_string(), (*round).into()),
                ("var".to_string(), (*var).into()),
            ]),
            LedgerRecord::Lambda {
                round,
                lambda,
                rung,
                cert,
                lp_objective,
                arcs_changed,
                accepted,
                var,
            } => Value::Obj(vec![
                k("lambda"),
                ("round".to_string(), (*round).into()),
                ("lambda".to_string(), (*lambda).into()),
                ("rung".to_string(), rung.as_str().into()),
                ("cert".to_string(), cert.as_str().into()),
                ("lp_objective".to_string(), opt_f64(*lp_objective)),
                ("arcs_changed".to_string(), (*arcs_changed).into()),
                ("accepted".to_string(), (*accepted).into()),
                ("var".to_string(), opt_f64(*var)),
            ]),
            LedgerRecord::EcoArc {
                round,
                lambda,
                arc,
                d_lp,
                d_now,
                realized,
                accepted,
                var,
            } => Value::Obj(vec![
                k("eco_arc"),
                ("round".to_string(), (*round).into()),
                ("lambda".to_string(), (*lambda).into()),
                ("arc".to_string(), (*arc).into()),
                ("d_lp".to_string(), vec_f64(d_lp)),
                ("d_now".to_string(), vec_f64(d_now)),
                (
                    "realized".to_string(),
                    realized.as_deref().map_or(Value::Null, vec_f64),
                ),
                ("accepted".to_string(), (*accepted).into()),
                ("var".to_string(), opt_f64(*var)),
            ]),
            LedgerRecord::RoundEnd {
                round,
                winner_lambda,
                adopted,
                var,
            } => Value::Obj(vec![
                k("round_end"),
                ("round".to_string(), (*round).into()),
                ("winner_lambda".to_string(), opt_f64(*winner_lambda)),
                ("adopted".to_string(), (*adopted).into()),
                ("var".to_string(), (*var).into()),
            ]),
            LedgerRecord::LocalCand {
                iter,
                slot,
                mv,
                predicted,
                measured,
                deltas,
                outcome,
            } => Value::Obj(vec![
                k("local_cand"),
                ("iter".to_string(), (*iter).into()),
                ("slot".to_string(), (*slot).into()),
                ("mv".to_string(), mv.to_value()),
                ("predicted".to_string(), (*predicted).into()),
                ("measured".to_string(), opt_f64(*measured)),
                (
                    "deltas".to_string(),
                    deltas.as_deref().map_or(Value::Null, vec_f64),
                ),
                ("outcome".to_string(), outcome.as_str().into()),
            ]),
            LedgerRecord::LocalCommit {
                iter,
                mv,
                gain,
                committed,
                var,
            } => Value::Obj(vec![
                k("local_commit"),
                ("iter".to_string(), (*iter).into()),
                ("mv".to_string(), mv.to_value()),
                ("gain".to_string(), (*gain).into()),
                ("committed".to_string(), (*committed).into()),
                ("var".to_string(), opt_f64(*var)),
            ]),
            LedgerRecord::FlowEnd { var } => {
                Value::Obj(vec![k("flow_end"), ("var".to_string(), (*var).into())])
            }
        }
    }

    /// One compact JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses one record from a decoded JSON value. `line` is the
    /// 1-based JSONL line number used in errors.
    pub fn from_value(line: usize, v: &Value) -> Result<Self, LedgerError> {
        let Some(kind_v) = v.get("k") else {
            return Err(LedgerError::MissingField {
                line,
                kind: "?".to_string(),
                field: "k",
            });
        };
        let Some(kind) = kind_v.as_str() else {
            return Err(LedgerError::Malformed {
                line,
                msg: "field 'k' is not a string".to_string(),
            });
        };
        match kind {
            "flow_init" => Ok(LedgerRecord::FlowInit {
                flow: get_str(line, "flow_init", v, "flow")?,
                sinks: get_u64(line, "flow_init", v, "sinks")?,
                corners: get_u64(line, "flow_init", v, "corners")?,
                var: get_f64(line, "flow_init", v, "var")?,
            }),
            "phase_start" => Ok(LedgerRecord::PhaseStart {
                phase: get_str(line, "phase_start", v, "phase")?,
            }),
            "phase_end" => Ok(LedgerRecord::PhaseEnd {
                phase: get_str(line, "phase_end", v, "phase")?,
                committed: get_bool(line, "phase_end", v, "committed")?,
                var: get_f64(line, "phase_end", v, "var")?,
            }),
            "round_start" => Ok(LedgerRecord::RoundStart {
                round: get_u64(line, "round_start", v, "round")?,
                var: get_f64(line, "round_start", v, "var")?,
            }),
            "lambda" => Ok(LedgerRecord::Lambda {
                round: get_u64(line, "lambda", v, "round")?,
                lambda: get_f64(line, "lambda", v, "lambda")?,
                rung: get_str(line, "lambda", v, "rung")?,
                cert: get_str(line, "lambda", v, "cert")?,
                lp_objective: get_opt_f64(line, "lambda", v, "lp_objective")?,
                arcs_changed: get_u64(line, "lambda", v, "arcs_changed")?,
                accepted: get_bool(line, "lambda", v, "accepted")?,
                var: get_opt_f64(line, "lambda", v, "var")?,
            }),
            "eco_arc" => Ok(LedgerRecord::EcoArc {
                round: get_u64(line, "eco_arc", v, "round")?,
                lambda: get_f64(line, "eco_arc", v, "lambda")?,
                arc: get_u64(line, "eco_arc", v, "arc")?,
                d_lp: get_vec_f64(line, "eco_arc", v, "d_lp")?,
                d_now: get_vec_f64(line, "eco_arc", v, "d_now")?,
                realized: get_opt_vec_f64(line, "eco_arc", v, "realized")?,
                accepted: get_bool(line, "eco_arc", v, "accepted")?,
                var: get_opt_f64(line, "eco_arc", v, "var")?,
            }),
            "round_end" => Ok(LedgerRecord::RoundEnd {
                round: get_u64(line, "round_end", v, "round")?,
                winner_lambda: get_opt_f64(line, "round_end", v, "winner_lambda")?,
                adopted: get_bool(line, "round_end", v, "adopted")?,
                var: get_f64(line, "round_end", v, "var")?,
            }),
            "local_cand" => Ok(LedgerRecord::LocalCand {
                iter: get_u64(line, "local_cand", v, "iter")?,
                slot: get_u64(line, "local_cand", v, "slot")?,
                mv: get_move(line, "local_cand", v)?,
                predicted: get_f64(line, "local_cand", v, "predicted")?,
                measured: get_opt_f64(line, "local_cand", v, "measured")?,
                deltas: get_opt_vec_f64(line, "local_cand", v, "deltas")?,
                outcome: get_str(line, "local_cand", v, "outcome")?,
            }),
            "local_commit" => Ok(LedgerRecord::LocalCommit {
                iter: get_u64(line, "local_commit", v, "iter")?,
                mv: get_move(line, "local_commit", v)?,
                gain: get_f64(line, "local_commit", v, "gain")?,
                committed: get_bool(line, "local_commit", v, "committed")?,
                var: get_opt_f64(line, "local_commit", v, "var")?,
            }),
            "flow_end" => Ok(LedgerRecord::FlowEnd {
                var: get_f64(line, "flow_end", v, "var")?,
            }),
            other => Err(LedgerError::UnknownKind {
                line,
                kind: other.to_string(),
            }),
        }
    }
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Into::into)
}

fn vec_f64(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())
}

fn missing(line: usize, kind: &'static str, field: &'static str) -> LedgerError {
    LedgerError::MissingField {
        line,
        kind: kind.to_string(),
        field,
    }
}

fn get_f64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<f64, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        // the writer renders NaN/Inf as null, so null-where-float is a
        // non-finite record, not an absent field
        Some(Value::Null) => Err(LedgerError::NonFinite {
            line,
            kind: kind.to_string(),
            field,
        }),
        Some(Value::Num(n)) if n.is_finite() => Ok(*n),
        Some(_) => Err(LedgerError::Malformed {
            line,
            msg: format!("{kind}.{field} is not a number"),
        }),
    }
}

fn get_opt_f64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<Option<f64>, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if n.is_finite() => Ok(Some(*n)),
        Some(_) => Err(LedgerError::Malformed {
            line,
            msg: format!("{kind}.{field} is not a number"),
        }),
    }
}

fn get_u64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<u64, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(val) => val.as_u64().ok_or_else(|| LedgerError::Malformed {
            line,
            msg: format!("{kind}.{field} is not a non-negative integer"),
        }),
    }
}

fn get_opt_u64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<Option<u64>, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(Value::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| LedgerError::Malformed {
                line,
                msg: format!("{kind}.{field} is not a non-negative integer"),
            }),
    }
}

fn get_bool(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<bool, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(LedgerError::Malformed {
            line,
            msg: format!("{kind}.{field} is not a boolean"),
        }),
    }
}

fn get_str(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<String, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(val) => val
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| LedgerError::Malformed {
                line,
                msg: format!("{kind}.{field} is not a string"),
            }),
    }
}

fn get_vec_f64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<Vec<f64>, LedgerError> {
    match v.get(field) {
        None => Err(missing(line, kind, field)),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|item| match item {
                Value::Num(n) if n.is_finite() => Ok(*n),
                Value::Null => Err(LedgerError::NonFinite {
                    line,
                    kind: kind.to_string(),
                    field,
                }),
                _ => Err(LedgerError::Malformed {
                    line,
                    msg: format!("{kind}.{field} has a non-number element"),
                }),
            })
            .collect(),
        Some(_) => Err(LedgerError::Malformed {
            line,
            msg: format!("{kind}.{field} is not an array"),
        }),
    }
}

fn get_opt_vec_f64(
    line: usize,
    kind: &'static str,
    v: &Value,
    field: &'static str,
) -> Result<Option<Vec<f64>>, LedgerError> {
    match v.get(field) {
        Some(Value::Null) => Ok(None),
        _ => get_vec_f64(line, kind, v, field).map(Some),
    }
}

fn get_move(line: usize, kind: &'static str, v: &Value) -> Result<MoveRec, LedgerError> {
    match v.get("mv") {
        None => Err(missing(line, kind, "mv")),
        Some(mv @ Value::Obj(_)) => MoveRec::from_value(line, kind, mv),
        Some(_) => Err(LedgerError::Malformed {
            line,
            msg: format!("{kind}.mv is not an object"),
        }),
    }
}

/// Typed failure while decoding a ledger stream. Every variant carries
/// the 1-based JSONL line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The line is not a well-formed JSON object (including truncated
    /// trailing lines from an interrupted writer).
    Malformed { line: usize, msg: String },
    /// The `k` tag names no known record kind (schema drift).
    UnknownKind { line: usize, kind: String },
    /// A declared field of the record kind is absent.
    MissingField {
        line: usize,
        kind: String,
        field: &'static str,
    },
    /// A required float is `null` — the serialized form of NaN/Inf.
    NonFinite {
        line: usize,
        kind: String,
        field: &'static str,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Malformed { line, msg } => {
                write!(f, "ledger line {line}: malformed record: {msg}")
            }
            LedgerError::UnknownKind { line, kind } => {
                write!(f, "ledger line {line}: unknown record kind '{kind}'")
            }
            LedgerError::MissingField { line, kind, field } => {
                write!(
                    f,
                    "ledger line {line}: {kind} record missing field '{field}'"
                )
            }
            LedgerError::NonFinite { line, kind, field } => {
                write!(
                    f,
                    "ledger line {line}: {kind}.{field} is non-finite (serialized null)"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Serializes records as JSONL (one line each, trailing newline).
#[must_use]
pub fn encode_jsonl(records: &[LedgerRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a JSONL ledger stream. Blank lines are skipped; anything
/// else that fails to decode — including a truncated final line — is a
/// typed [`LedgerError`].
pub fn parse_jsonl(text: &str) -> Result<Vec<LedgerRecord>, LedgerError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = parse(raw).map_err(|msg| LedgerError::Malformed { line, msg })?;
        if !matches!(v, Value::Obj(_)) {
            return Err(LedgerError::Malformed {
                line,
                msg: "record is not a JSON object".to_string(),
            });
        }
        out.push(LedgerRecord::from_value(line, &v)?);
    }
    Ok(out)
}

/// What [`Ledger::append`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Ledger disabled; nothing stored.
    Disabled,
    /// Record stored.
    Recorded,
    /// Record carried a NaN/Inf float and was dropped.
    DroppedNonFinite,
}

#[derive(Debug, Default)]
struct LedgerInner {
    records: Mutex<Vec<LedgerRecord>>,
    /// The flow's init-time alpha factors, shared with every decision
    /// site so checkpoints are evaluated under one consistent α*.
    alphas: Mutex<Option<Vec<f64>>>,
}

/// Handle to a decision ledger.
///
/// Cheap to clone and share across threads; the disabled handle (the
/// default) costs one `Option` check per decision site, same as a
/// disabled [`crate::Profiler`].
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    inner: Option<Arc<LedgerInner>>,
}

impl Ledger {
    /// A disabled ledger (same as `Ledger::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled, empty ledger.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(LedgerInner::default())),
        }
    }

    /// Whether records will be stored at all. Callers guard record
    /// construction behind this (the one-branch-when-off contract).
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends a record (finite floats only; see [`AppendOutcome`]).
    pub fn append(&self, rec: LedgerRecord) -> AppendOutcome {
        let Some(inner) = &self.inner else {
            return AppendOutcome::Disabled;
        };
        if rec.non_finite_field().is_some() {
            return AppendOutcome::DroppedNonFinite;
        }
        inner
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(rec);
        AppendOutcome::Recorded
    }

    /// Stores the flow's init-time alpha factors for checkpoint
    /// evaluation at every decision site.
    pub fn set_alphas(&self, alphas: Vec<f64>) {
        if let Some(inner) = &self.inner {
            *inner
                .alphas
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(alphas);
        }
    }

    /// The stored alpha factors, if the ledger is enabled and the flow
    /// has published them.
    #[must_use]
    pub fn alphas(&self) -> Option<Vec<f64>> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .alphas
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone()
        })
    }

    /// A snapshot of every record appended so far.
    #[must_use]
    pub fn records(&self) -> Vec<LedgerRecord> {
        match &self.inner {
            Some(inner) => inner
                .records
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        }
    }

    /// Number of records stored.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .records
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len(),
            None => 0,
        }
    }

    /// Whether no records are stored (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole ledger as a JSONL document.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        encode_jsonl(&self.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LedgerRecord> {
        vec![
            LedgerRecord::FlowInit {
                flow: "cls1_v1".to_string(),
                sinks: 48,
                corners: 4,
                var: 297.25,
            },
            LedgerRecord::PhaseStart {
                phase: "global".to_string(),
            },
            LedgerRecord::RoundStart {
                round: 0,
                var: 297.25,
            },
            LedgerRecord::Lambda {
                round: 0,
                lambda: 0.5,
                rung: "none".to_string(),
                cert: "ok".to_string(),
                lp_objective: Some(-12.5),
                arcs_changed: 3,
                accepted: true,
                var: Some(280.0),
            },
            LedgerRecord::EcoArc {
                round: 0,
                lambda: 0.5,
                arc: 7,
                d_lp: vec![1.0, -2.5],
                d_now: vec![0.5, 0.25],
                realized: Some(vec![0.75, -2.0]),
                accepted: true,
                var: Some(280.0),
            },
            LedgerRecord::RoundEnd {
                round: 0,
                winner_lambda: Some(0.5),
                adopted: true,
                var: 280.0,
            },
            LedgerRecord::PhaseEnd {
                phase: "global".to_string(),
                committed: true,
                var: 280.0,
            },
            LedgerRecord::LocalCand {
                iter: 0,
                slot: 2,
                mv: MoveRec {
                    t: 1,
                    node: 12,
                    dir: Some(3),
                    resize: "up".to_string(),
                    child: None,
                    new_parent: None,
                },
                predicted: 4.5,
                measured: Some(3.25),
                deltas: Some(vec![-1.0, -2.25]),
                outcome: "improving".to_string(),
            },
            LedgerRecord::LocalCommit {
                iter: 0,
                mv: MoveRec {
                    t: 3,
                    node: 12,
                    dir: None,
                    resize: "none".to_string(),
                    child: None,
                    new_parent: Some(4),
                },
                gain: 3.25,
                committed: true,
                var: Some(276.75),
            },
            LedgerRecord::FlowEnd { var: 276.75 },
        ]
    }

    #[test]
    fn round_trips_byte_identically() {
        let recs = sample_records();
        let text = encode_jsonl(&recs);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, recs);
        assert_eq!(encode_jsonl(&parsed), text);
    }

    #[test]
    fn truncated_line_is_typed_error() {
        let recs = sample_records();
        let text = encode_jsonl(&recs);
        let cut = &text[..text.len() - 20];
        match parse_jsonl(cut) {
            Err(LedgerError::Malformed { line, .. }) => assert_eq!(line, recs.len()),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn null_float_is_nonfinite_error() {
        let line = r#"{"k":"flow_end","var":null}"#;
        match parse_jsonl(line) {
            Err(LedgerError::NonFinite { line, field, .. }) => {
                assert_eq!(line, 1);
                assert_eq!(field, "var");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn null_delta_element_is_nonfinite_error() {
        let line = r#"{"k":"eco_arc","round":0,"lambda":0.5,"arc":1,"d_lp":[1.0,null],"d_now":[0.0,0.0],"realized":null,"accepted":false,"var":null}"#;
        match parse_jsonl(line) {
            Err(LedgerError::NonFinite { field, .. }) => assert_eq!(field, "d_lp"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_and_missing_field_are_typed() {
        assert!(matches!(
            parse_jsonl(r#"{"k":"mystery"}"#),
            Err(LedgerError::UnknownKind { line: 1, .. })
        ));
        assert!(matches!(
            parse_jsonl(r#"{"k":"flow_end"}"#),
            Err(LedgerError::MissingField {
                line: 1,
                field: "var",
                ..
            })
        ));
        assert!(matches!(
            parse_jsonl(r#"{"var":1.0}"#),
            Err(LedgerError::MissingField {
                line: 1,
                field: "k",
                ..
            })
        ));
    }

    #[test]
    fn nonfinite_records_are_dropped_at_append() {
        let ledger = Ledger::enabled();
        assert_eq!(
            ledger.append(LedgerRecord::FlowEnd { var: f64::NAN }),
            AppendOutcome::DroppedNonFinite
        );
        assert_eq!(
            ledger.append(LedgerRecord::FlowEnd { var: 1.0 }),
            AppendOutcome::Recorded
        );
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn disabled_ledger_is_inert() {
        let ledger = Ledger::disabled();
        assert!(!ledger.is_enabled());
        assert_eq!(
            ledger.append(LedgerRecord::FlowEnd { var: 1.0 }),
            AppendOutcome::Disabled
        );
        ledger.set_alphas(vec![1.0]);
        assert!(ledger.alphas().is_none());
        assert!(ledger.is_empty());
        assert!(ledger.to_jsonl().is_empty());
    }

    #[test]
    fn alphas_are_shared_through_clones() {
        let ledger = Ledger::enabled();
        let clone = ledger.clone();
        ledger.set_alphas(vec![0.25, 0.75]);
        assert_eq!(clone.alphas(), Some(vec![0.25, 0.75]));
    }
}
