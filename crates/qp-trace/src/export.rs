//! Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing) and
//! flat JSON / CSV metrics dumps. The JSON documents are built as
//! [`Json`] values and written compactly by [`crate::json`], the
//! workspace's one JSON module, so every string is escaped and a
//! non-finite number is `null`.

use crate::json::{obj, Json};
use crate::metrics::{MetricSample, MetricValue};
use crate::span::{SpanEvent, Track};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Trace `pid` for measured host time.
const PID_HOST: u64 = 1;
/// Trace `pid` for the machine model's simulated timeline.
const PID_SIMULATED: u64 = 2;

fn pid_of(track: Track) -> u64 {
    match track {
        Track::Host => PID_HOST,
        Track::Simulated => PID_SIMULATED,
    }
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// `{"k": "v", ...}` from string pairs (span args, metric labels).
fn string_map<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> Json {
    let pairs = pairs
        .iter()
        .map(|(k, v)| (k.as_ref().to_string(), text(v.as_ref())));
    Json::Obj(pairs.collect())
}

/// A metadata event naming a process (`tid` `None`) or one of its threads.
fn meta(pid: u64, tid: Option<u64>, name: &str) -> Json {
    let event = if tid.is_some() {
        "thread_name"
    } else {
        "process_name"
    };
    let mut pairs = vec![
        ("name", text(event)),
        ("ph", text("M")),
        ("pid", Json::Num(pid as f64)),
    ];
    pairs.extend(tid.map(|t| ("tid", Json::Num(t as f64))));
    pairs.push(("args", obj(vec![("name", text(name))])));
    obj(pairs)
}

/// Render spans as a Chrome trace-event JSON document: complete (`"X"`)
/// events, one process per timeline (host pid 1, simulated pid 2), one
/// thread per rank, categories/colors from [`crate::Phase`]. Load the
/// output in Perfetto (<https://ui.perfetto.dev>) or chrome://tracing.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut rows: Vec<Json> = Vec::with_capacity(events.len() + 8);

    // Metadata: name the processes and one thread per (track, rank).
    let mut tracks: BTreeSet<u64> = BTreeSet::new();
    let mut threads: BTreeSet<(u64, usize)> = BTreeSet::new();
    for ev in events {
        let pid = pid_of(ev.track);
        tracks.insert(pid);
        threads.insert((pid, ev.rank));
    }
    for pid in &tracks {
        let name = if *pid == PID_HOST {
            "host wall-clock"
        } else {
            "simulated machine (qp-machine)"
        };
        rows.push(meta(*pid, None, name));
    }
    for (pid, rank) in &threads {
        rows.push(meta(*pid, Some(*rank as u64), &format!("rank {rank}")));
    }

    for ev in events {
        let mut pairs = vec![
            ("name", text(&ev.name)),
            ("cat", text(ev.phase.as_str())),
            ("ph", text("X")),
            ("ts", Json::Num(ev.start_us)),
            ("dur", Json::Num(ev.dur_us)),
            ("pid", Json::Num(pid_of(ev.track) as f64)),
            ("tid", Json::Num(ev.rank as f64)),
            ("cname", text(ev.phase.color())),
        ];
        if !ev.args.is_empty() {
            pairs.push(("args", string_map(&ev.args)));
        }
        rows.push(obj(pairs));
    }

    let doc = obj(vec![
        ("traceEvents", Json::Arr(rows)),
        ("displayTimeUnit", text("ms")),
    ]);
    format!("{doc}\n")
}

/// Render a metrics snapshot as a JSON array of
/// `{name, labels: {..}, type, ...}` objects.
pub fn metrics_json(samples: &[MetricSample]) -> String {
    let rows = samples.iter().map(|s| {
        let (kind, fields) = match s.value {
            MetricValue::Counter(c) => ("counter", vec![("value", c as f64)]),
            MetricValue::Gauge(g) => ("gauge", vec![("value", g)]),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            } => {
                let fields = vec![
                    ("count", count as f64),
                    ("sum", sum),
                    ("min", min),
                    ("max", max),
                ];
                ("histogram", fields)
            }
        };
        let mut pairs = vec![
            ("name", text(&s.key.name)),
            ("labels", string_map(&s.key.labels)),
            ("type", text(kind)),
        ];
        pairs.extend(fields.into_iter().map(|(k, v)| (k, Json::Num(v))));
        obj(pairs)
    });
    format!("{}\n", Json::Arr(rows.collect()))
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render a metrics snapshot as flat CSV:
/// `name,labels,type,value,count,sum,min,max` (unused columns empty).
pub fn metrics_csv(samples: &[MetricSample]) -> String {
    let mut out = String::from("name,labels,type,value,count,sum,min,max\n");
    for s in samples {
        let labels = s
            .key
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";");
        let row = match &s.value {
            MetricValue::Counter(c) => format!("counter,{c},,,,"),
            MetricValue::Gauge(g) => format!("gauge,{g},,,,"),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            } => format!("histogram,,{count},{sum},{min},{max}"),
        };
        let _ = writeln!(
            out,
            "{},{},{}",
            csv_field(&s.key.name),
            csv_field(&labels),
            row
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::{MetricKey, MetricSample};
    use crate::span::Phase;

    fn event(name: &str, rank: usize, track: Track) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            phase: Phase::Dm,
            rank,
            thread: 0,
            track,
            start_us: 1.0,
            dur_us: 2.5,
            args: vec![("bytes", "17".to_string())],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let name = "a \"quoted\"\nname";
        let events = vec![event(name, 0, Track::Host), event("b", 3, Track::Simulated)];
        let json = chrome_trace_json(&events);
        let doc = parse(&json).unwrap();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("rank 3"));
        let rows = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let first = rows
            .iter()
            .find(|r| r.get("ph") == Some(&text("X")))
            .unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn empty_trace_is_valid() {
        parse(&chrome_trace_json(&[])).unwrap();
    }

    fn sample(name: &str, value: MetricValue) -> MetricSample {
        MetricSample {
            key: MetricKey {
                name: name.to_string(),
                labels: vec![("kind".to_string(), "AllReduce".to_string())],
            },
            value,
        }
    }

    #[test]
    fn metrics_json_and_csv_render() {
        let samples = vec![
            sample("bytes", MetricValue::Counter(42)),
            sample("residual", MetricValue::Gauge(1e-8)),
            sample(
                "lat,weird",
                MetricValue::Histogram {
                    count: 2,
                    sum: 3.0,
                    min: 1.0,
                    max: 2.0,
                },
            ),
        ];
        let json = metrics_json(&samples);
        parse(&json).unwrap();
        assert!(json.contains("\"type\":\"counter\",\"value\":42"));
        let csv = metrics_csv(&samples);
        assert!(csv.starts_with("name,labels,type,value,count,sum,min,max\n"));
        assert!(csv.contains("bytes,kind=AllReduce,counter,42"));
        assert!(csv.contains("\"lat,weird\""), "comma fields must be quoted");
    }

    #[test]
    fn nan_gauge_is_null_in_metrics_json() {
        let json = metrics_json(&[sample("scf.residual", MetricValue::Gauge(f64::NAN))]);
        let doc = parse(&json).unwrap();
        let row = &doc.as_arr().unwrap()[0];
        assert_eq!(row.get("type"), Some(&text("gauge")));
        assert_eq!(row.get("value"), Some(&Json::Null));
    }

    /// The exports are checked with [`parse`]: an export cut short at any
    /// byte, or followed by stray data, must fail that check.
    #[test]
    fn validator_rejects_malformed() {
        let trace = chrome_trace_json(&[event("a \"b\"", 2, Track::Host)]);
        let metrics = metrics_json(&[sample("residual", MetricValue::Gauge(f64::NAN))]);
        for export in [&trace, &metrics] {
            let doc = export.trim_end();
            parse(doc).unwrap();
            for (cut, _) in doc.char_indices() {
                assert!(parse(&doc[..cut]).is_err(), "accepted {:?}", &doc[..cut]);
            }
            for tail in [" trailing", ",", doc] {
                assert!(parse(&format!("{doc}{tail}")).is_err(), "tail {tail:?}");
            }
        }
    }
}
