//! Chrome trace-event exporter.
//!
//! Converts the JSONL event stream produced by [`JsonlSink`] into the
//! Chrome trace-event JSON format understood by `about://tracing` and
//! [Perfetto](https://ui.perfetto.dev): spans become `ph: "B"` / `ph:
//! "E"` duration pairs, point events and faults become `ph: "i"`
//! instants. Timestamps are microseconds since the pipeline epoch, as
//! the format requires.
//!
//! The JSONL stream does not record thread ids, so spans are assigned
//! to synthetic tracks (`tid`) greedily such that within one track the
//! `B`/`E` pairs nest properly — concurrent sibling spans land on
//! separate tracks instead of producing a malformed stack.
//!
//! [`JsonlSink`]: crate::JsonlSink

use crate::json::{self, Value};

/// One span reconstructed from its `span_start` / `span_end` records.
struct SpanRec {
    id: u64,
    name: String,
    start_us: f64,
    end_us: f64,
    start_fields: Vec<(String, Value)>,
    end_fields: Vec<(String, Value)>,
}

/// One instant (point event or fault).
struct InstantRec {
    name: String,
    ts_us: f64,
    cat: &'static str,
    span: Option<u64>,
    fields: Vec<(String, Value)>,
}

fn fields_of(v: &Value) -> Vec<(String, Value)> {
    match v.get("fields") {
        Some(Value::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    }
}

/// Converts one JSONL trace into a list of Chrome trace events.
///
/// `pid` is stamped on every event, so multiple independent traces
/// (e.g. one flow run per testcase) can be merged into a single file
/// as separate processes.
///
/// # Errors
///
/// The 1-based line number and message of the first JSONL line that
/// does not parse.
pub fn trace_events_from_jsonl(jsonl: &str, pid: u64) -> Result<Vec<Value>, String> {
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut open: Vec<usize> = Vec::new(); // indices of spans awaiting an end
    let mut instants: Vec<InstantRec> = Vec::new();
    let mut max_us: f64 = 0.0;

    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = v.get("t").and_then(Value::as_str).unwrap_or("");
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let ts_us = v.get("ts_ms").and_then(Value::as_f64).unwrap_or(0.0) * 1e3;
        max_us = max_us.max(ts_us);
        match kind {
            "span_start" => {
                let Some(id) = v.get("span").and_then(Value::as_u64) else {
                    continue;
                };
                open.push(spans.len());
                spans.push(SpanRec {
                    id,
                    name,
                    start_us: ts_us,
                    end_us: f64::NAN, // patched by the matching span_end
                    start_fields: fields_of(&v),
                    end_fields: Vec::new(),
                });
            }
            "span_end" => {
                let id = v.get("span").and_then(Value::as_u64);
                if let Some(pos) = open.iter().rposition(|&s| Some(spans[s].id) == id) {
                    let s = open.remove(pos);
                    spans[s].end_us = ts_us;
                    spans[s].end_fields = fields_of(&v);
                }
            }
            "event" | "fault" => {
                instants.push(InstantRec {
                    name,
                    ts_us,
                    cat: if kind == "fault" { "fault" } else { "event" },
                    span: v.get("span").and_then(Value::as_u64),
                    fields: fields_of(&v),
                });
            }
            // metrics / flight_dump records carry no timeline shape
            _ => {}
        }
    }
    // close dangling spans (e.g. a truncated stream) at the last
    // timestamp so every B still has an E
    for s in &mut spans {
        if !s.end_us.is_finite() {
            s.end_us = max_us.max(s.start_us);
        }
    }

    // Assign spans to tracks so B/E nest properly per tid: sort outer
    // spans first, then place each span on the first track whose open
    // top still contains it. Each track's B/E record sequence is
    // emitted *during* the assignment walk (a pop is an E, a placement
    // is a B, leftovers flush as Es in LIFO order), so every track is
    // stack-disciplined by construction. A global (ts, E-before-B,
    // depth) sort — the previous scheme — breaks on zero-length spans
    // (e.g. a dangling span force-closed at its own start timestamp):
    // at a shared timestamp it ordered such a span's E before its B.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start_us
            .total_cmp(&spans[b].start_us)
            .then(spans[b].end_us.total_cmp(&spans[a].end_us))
    });
    enum TrackEv {
        Begin(usize),
        End(usize),
    }
    let mut tracks: Vec<Vec<usize>> = Vec::new(); // per-track open stacks
    let mut track_events: Vec<Vec<TrackEv>> = Vec::new();
    let mut tid_of: Vec<u64> = vec![0; spans.len()];
    for &s in &order {
        let (start, end) = (spans[s].start_us, spans[s].end_us);
        let mut chosen = None;
        for (t, stack) in tracks.iter_mut().enumerate() {
            while let Some(&top) = stack.last() {
                if spans[top].end_us <= start {
                    track_events[t].push(TrackEv::End(top));
                    stack.pop();
                } else {
                    break;
                }
            }
            let fits = stack.last().is_none_or(|&top| spans[top].end_us >= end);
            if fits {
                chosen = Some(t);
                break;
            }
        }
        let t = chosen.unwrap_or_else(|| {
            tracks.push(Vec::new());
            track_events.push(Vec::new());
            tracks.len() - 1
        });
        track_events[t].push(TrackEv::Begin(s));
        tracks[t].push(s);
        tid_of[s] = t as u64 + 1;
    }
    // close whatever is still open, innermost first
    for (t, stack) in tracks.iter().enumerate() {
        for &s in stack.iter().rev() {
            track_events[t].push(TrackEv::End(s));
        }
    }

    let trace_event =
        |name: &str, cat: &str, ph: &str, ts: f64, tid: u64, args: &[(String, Value)]| {
            let mut pairs = vec![
                ("name".to_string(), Value::from(name)),
                ("cat".to_string(), Value::from(cat)),
                ("ph".to_string(), Value::from(ph)),
                ("ts".to_string(), Value::Num((ts * 1e3).round() / 1e3)),
                ("pid".to_string(), Value::from(pid)),
                ("tid".to_string(), Value::from(tid)),
            ];
            if ph == "i" {
                pairs.push(("s".to_string(), Value::from("t")));
            }
            if !args.is_empty() {
                pairs.push(("args".to_string(), Value::Obj(args.to_vec())));
            }
            Value::Obj(pairs)
        };
    // merge the per-track sequences by timestamp. Each track's sequence
    // is ts-nondecreasing by construction, and the sort is stable, so
    // within-track order (the part Perfetto's stack rendering depends
    // on) survives the merge; cross-track order at equal ts is free.
    struct Keyed {
        ts: f64,
        ev: Value,
    }
    let mut events: Vec<Keyed> = Vec::new();
    for (t, evs) in track_events.iter().enumerate() {
        let tid = t as u64 + 1;
        for e in evs {
            events.push(match *e {
                TrackEv::Begin(s) => Keyed {
                    ts: spans[s].start_us,
                    ev: trace_event(
                        &spans[s].name,
                        "span",
                        "B",
                        spans[s].start_us,
                        tid,
                        &spans[s].start_fields,
                    ),
                },
                TrackEv::End(s) => Keyed {
                    ts: spans[s].end_us,
                    ev: trace_event(
                        &spans[s].name,
                        "span",
                        "E",
                        spans[s].end_us,
                        tid,
                        &spans[s].end_fields,
                    ),
                },
            });
        }
    }
    let tid_of_span = |id: Option<u64>| -> u64 {
        id.and_then(|id| spans.iter().position(|s| s.id == id))
            .map_or(0, |i| tid_of[i])
    };
    // instants are pushed after all span events so at a shared
    // timestamp they render after the span transition
    for inst in &instants {
        let tid = tid_of_span(inst.span);
        events.push(Keyed {
            ts: inst.ts_us,
            ev: trace_event(&inst.name, inst.cat, "i", inst.ts_us, tid, &inst.fields),
        });
    }
    events.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    Ok(events.into_iter().map(|k| k.ev).collect())
}

/// Wraps trace events into a complete Chrome trace document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
pub fn trace_document(events: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(events)),
        ("displayTimeUnit".to_string(), Value::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Obs, ObsConfig, SharedBuf};

    fn traced_run() -> String {
        let obs = Obs::new(ObsConfig {
            verbosity: Level::Trace,
            ..ObsConfig::default()
        });
        let buf = SharedBuf::new();
        obs.add_jsonl_buffer(&buf);
        {
            let _flow = obs.span("flow");
            {
                let mut g = obs.span("phase.global");
                g.record("rounds", 2u64);
                obs.event(Level::Debug, "global.retry", vec![crate::kv("step", 1u64)]);
            }
            let _l = obs.span("phase.local");
        }
        obs.flush();
        buf.contents()
    }

    /// Walks every track's B/E records checking stack discipline.
    fn assert_be_paired(events: &[Value]) {
        use std::collections::BTreeMap;
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            let tid = ev.get("tid").and_then(Value::as_u64).unwrap();
            let name = ev.get("name").and_then(Value::as_str).unwrap().to_string();
            match ph {
                "B" => stacks.entry(tid).or_default().push(name),
                "E" => {
                    let top = stacks.get_mut(&tid).and_then(std::vec::Vec::pop);
                    assert_eq!(top.as_deref(), Some(name.as_str()), "unbalanced E");
                }
                _ => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
        }
    }

    #[test]
    fn spans_become_paired_b_e_events() {
        let text = trace_document(trace_events_from_jsonl(&traced_run(), 1).unwrap()).to_json();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let b = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
            .count();
        let e = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("E"))
            .count();
        assert_eq!(b, 3);
        assert_eq!(b, e);
        assert_be_paired(events);
        // span end-fields survive on the E record
        let global_end = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Value::as_str) == Some("E")
                    && e.get("name").and_then(Value::as_str) == Some("phase.global")
            })
            .unwrap();
        assert_eq!(
            global_end
                .get("args")
                .and_then(|a| a.get("rounds"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn events_become_thread_scoped_instants() {
        let events = trace_events_from_jsonl(&traced_run(), 7).unwrap();
        let inst = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .unwrap();
        assert_eq!(
            inst.get("name").and_then(Value::as_str),
            Some("global.retry")
        );
        assert_eq!(inst.get("s").and_then(Value::as_str), Some("t"));
        assert_eq!(inst.get("pid").and_then(Value::as_u64), Some(7));
        // the instant rides on the same track as its enclosing span
        let tid = inst.get("tid").and_then(Value::as_u64).unwrap();
        assert!(tid >= 1);
    }

    #[test]
    fn overlapping_spans_get_separate_tracks() {
        // hand-written stream: two spans overlap without nesting, which
        // a single B/E track cannot represent
        let jsonl = concat!(
            "{\"t\":\"span_start\",\"seq\":0,\"ts_ms\":0.0,\"span\":0,\"level\":\"info\",\"name\":\"a\"}\n",
            "{\"t\":\"span_start\",\"seq\":1,\"ts_ms\":1.0,\"span\":1,\"level\":\"info\",\"name\":\"b\"}\n",
            "{\"t\":\"span_end\",\"seq\":2,\"ts_ms\":2.0,\"span\":0,\"level\":\"info\",\"name\":\"a\",\"elapsed_ms\":2.0}\n",
            "{\"t\":\"span_end\",\"seq\":3,\"ts_ms\":3.0,\"span\":1,\"level\":\"info\",\"name\":\"b\",\"elapsed_ms\":2.0}\n",
        );
        let events = trace_events_from_jsonl(jsonl, 1).unwrap();
        assert_be_paired(&events);
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(Value::as_u64))
            .collect();
        assert_eq!(tids.len(), 2, "overlap must split tracks");
    }

    #[test]
    fn dangling_span_is_closed_at_last_ts() {
        let jsonl = concat!(
            "{\"t\":\"span_start\",\"seq\":0,\"ts_ms\":0.0,\"span\":0,\"level\":\"info\",\"name\":\"flow\"}\n",
            "{\"t\":\"event\",\"seq\":1,\"ts_ms\":5.5,\"level\":\"info\",\"name\":\"tick\"}\n",
        );
        let events = trace_events_from_jsonl(jsonl, 1).unwrap();
        assert_be_paired(&events);
        let end = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("E"))
            .unwrap();
        assert!((end.get("ts").and_then(Value::as_f64).unwrap() - 5500.0).abs() < 1e-6);
    }

    #[test]
    fn zero_length_dangling_span_stays_stack_disciplined() {
        // a span that *starts* at the trace's last timestamp gets
        // force-closed at its own start, producing a zero-length span;
        // the old global (ts, E-before-B) sort emitted its E first
        let jsonl = concat!(
            "{\"t\":\"span_start\",\"seq\":0,\"ts_ms\":0.0,\"span\":0,\"level\":\"info\",\"name\":\"flow\"}\n",
            "{\"t\":\"span_end\",\"seq\":1,\"ts_ms\":2.0,\"span\":0,\"level\":\"info\",\"name\":\"flow\",\"elapsed_ms\":2.0}\n",
            "{\"t\":\"span_start\",\"seq\":2,\"ts_ms\":2.0,\"span\":1,\"level\":\"info\",\"name\":\"late\"}\n",
        );
        let events = trace_events_from_jsonl(jsonl, 1).unwrap();
        assert_be_paired(&events);
        let late: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("late"))
            .collect();
        assert_eq!(late.len(), 2, "late must have both B and E");
        assert_eq!(late[0].get("ph").and_then(Value::as_str), Some("B"));
        assert_eq!(late[1].get("ph").and_then(Value::as_str), Some("E"));
    }

    #[test]
    fn equal_ts_close_open_and_zero_length_spans_interleave_cleanly() {
        // a closes at exactly the instant z (zero-length) and c open;
        // per-track sequencing must keep every track balanced
        let jsonl = concat!(
            "{\"t\":\"span_start\",\"seq\":0,\"ts_ms\":0.0,\"span\":0,\"level\":\"info\",\"name\":\"a\"}\n",
            "{\"t\":\"span_end\",\"seq\":1,\"ts_ms\":2.0,\"span\":0,\"level\":\"info\",\"name\":\"a\",\"elapsed_ms\":2.0}\n",
            "{\"t\":\"span_start\",\"seq\":2,\"ts_ms\":2.0,\"span\":1,\"level\":\"info\",\"name\":\"z\"}\n",
            "{\"t\":\"span_end\",\"seq\":3,\"ts_ms\":2.0,\"span\":1,\"level\":\"info\",\"name\":\"z\",\"elapsed_ms\":0.0}\n",
            "{\"t\":\"span_start\",\"seq\":4,\"ts_ms\":2.0,\"span\":2,\"level\":\"info\",\"name\":\"c\"}\n",
            "{\"t\":\"span_end\",\"seq\":5,\"ts_ms\":4.0,\"span\":2,\"level\":\"info\",\"name\":\"c\",\"elapsed_ms\":2.0}\n",
        );
        let events = trace_events_from_jsonl(jsonl, 1).unwrap();
        assert_be_paired(&events);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
                .count(),
            3
        );
    }

    #[test]
    fn bad_jsonl_reports_line_number() {
        let err = trace_events_from_jsonl("{\"t\":\"event\"}\nnot json\n", 1).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
