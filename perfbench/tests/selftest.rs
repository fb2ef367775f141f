//! Self-tests of the benchmark's own machinery: percentiles, due-time
//! latency accounting, failure accounting, the Zipf generator, and the
//! agreement between the metrics the code prints and `BENCHMARK.json`.

use effres_perfbench::drive::open_loop;
use effres_perfbench::gen::{Rng, Zipf};
use effres_perfbench::metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use effres_perfbench::stats::{median, tail, LatencySummary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[test]
fn tail_reports_the_highest_percentile_with_ten_samples_beyond_it() {
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&thousand, 0.99).expect("non-empty");
    assert_eq!((t.quantile, t.value, t.samples), (0.99, 990.0, 1000));

    // 100 samples cannot support p99: p90 is the highest with ten beyond.
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&hundred, 0.99).expect("non-empty");
    assert_eq!((t.quantile, t.value, t.samples), (0.9, 90.0, 100));

    // Ten samples or fewer: only the maximum is honest.
    let t = tail(&[3.0, 1.0, 2.0], 0.99).expect("non-empty");
    assert_eq!((t.quantile, t.value, t.samples), (1.0, 3.0, 3));

    assert!(tail(&[], 0.99).is_none());
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn latency_is_measured_from_the_due_time_behind_a_stalled_responder() {
    // 1000 requests per second; request 5 stalls the responder for 30 ms.
    let stall = Duration::from_millis(30);
    let deadline = Instant::now() + Duration::from_millis(60);
    let sent = open_loop(1000.0, deadline, |i| {
        if i == 5 {
            std::thread::sleep(stall);
        }
        true
    });
    assert!(
        sent.len() >= 40,
        "only {} requests were scheduled",
        sent.len()
    );
    let latency = |i: usize| sent[i].latency_us.expect("no request failed");
    assert!(
        latency(5) >= 30_000.0,
        "the stalled request took {}",
        latency(5)
    );
    // Request 6 was due 1 ms after request 5 but could only go out when the
    // stall ended: it waited about 29 ms, and that wait is its latency.
    assert!(
        latency(6) >= 25_000.0,
        "request 6 reported {} us",
        latency(6)
    );
    assert!(
        latency(20) >= 10_000.0,
        "request 20 reported {} us",
        latency(20)
    );
    // The backlog is the system's doing, not the generator's: requests went
    // out as soon as the previous reply was in.
    let lags: Vec<f64> = sent.iter().map(|s| s.lag_us).collect();
    assert!(
        median(&lags) < 5_000.0,
        "median generator lag {}",
        median(&lags)
    );
}

#[test]
fn a_refused_request_counts_as_failed_and_misses_every_limit() {
    let deadline = Instant::now() + Duration::from_millis(200);
    let sent = open_loop(500.0, deadline, |i| i % 5 != 3);
    let latencies: Vec<Option<f64>> = sent.iter().map(|s| s.latency_us).collect();
    let refused = latencies.iter().filter(|l| l.is_none()).count();
    assert!(refused >= 19, "only {refused} refused of {}", sent.len());
    let summary = LatencySummary::from_latencies(&latencies).expect("non-empty");
    assert_eq!(summary.failed, refused);
    // However generous the limit, every refused request is over it.
    let over = LatencySummary::over_limit(&latencies, 1e12);
    assert_eq!(over, refused as f64 / latencies.len() as f64);
    // A fifth of the requests failed, so even the highest percentile the
    // sample supports lands on a failure: infinitely slow.
    assert!(summary.tail.value.is_infinite());

    let mut report = Report::default();
    report.attempted = sent.len() as u64;
    report.failed = summary.failed as u64;
    let line = report_line_with_e2e(report);
    assert!(line.contains(&format!("\"failed\": {refused}")), "{line}");
}

fn report_line_with_e2e(mut report: Report) -> String {
    for metric in END_TO_END {
        report.set(metric.name, 1.0);
    }
    report
        .result_line(false)
        .expect("every end-to-end metric is set")
}

#[test]
fn zipf_pairs_are_reproducible_by_seed_and_skewed() {
    let draw = |seed: u64| {
        let zipf = Zipf::new(10_000, 1.0, seed);
        let mut rng = Rng::stream(seed, 1);
        (0..5000).map(|_| zipf.pair(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));

    // Rank 1 has probability 1 / H_n, about 10% for n = 10,000.
    let zipf = Zipf::new(10_000, 1.0, 3);
    let mut rng = Rng::new(3);
    let top = zipf.node_of_rank(0);
    let hits = (0..100_000)
        .filter(|_| zipf.sample(&mut rng) == top)
        .count();
    assert!((9_000..12_500).contains(&hits), "rank 1 drawn {hits} times");
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text);
    let workloads: Vec<(String, String)> = json
        .get("workloads")
        .items()
        .iter()
        .map(|w| (w.get("name").text(), w.get("why").text()))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let metrics = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .items()
            .iter()
            .map(|m| {
                let bound = match m {
                    Json::Object(fields) => fields.get("bound").map(Json::number),
                    _ => None,
                };
                (
                    m.get("name").text(),
                    m.get("unit").text(),
                    m.get("better").text(),
                    bound,
                )
            })
            .collect()
    };
    let ours =
        |list: &[effres_perfbench::metrics::Metric]| -> Vec<(String, String, String, Option<f64>)> {
            list.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
    assert_eq!(metrics("end_to_end"), ours(&END_TO_END));
    assert_eq!(metrics("per_layer"), ours(&PER_LAYER));

    // And the result lines carry exactly those names.
    let traced = Report::default()
        .result_line(true)
        .expect("per-layer metrics default to 0");
    for metric in PER_LAYER {
        assert!(
            traced.contains(&format!("\"{}\": {{", metric.name)),
            "{}",
            metric.name
        );
    }
    let untraced = report_line_with_e2e(Report::default());
    assert_eq!(untraced.matches("\"unit\"").count(), END_TO_END.len());
}

/// Just enough JSON to read `BENCHMARK.json` (no literals but numbers).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Number(f64),
    Text(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Json::value(&mut chars);
        Json::skip_space(&mut chars);
        assert!(chars.next().is_none(), "trailing characters");
        value
    }

    fn skip_space(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    fn value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        Json::skip_space(chars);
        match chars.peek().copied().expect("a value") {
            '{' => {
                chars.next();
                let mut fields = BTreeMap::new();
                loop {
                    Json::skip_space(chars);
                    if chars.peek() == Some(&'}') {
                        chars.next();
                        return Json::Object(fields);
                    }
                    let Json::Text(key) = Json::value(chars) else {
                        panic!("object keys are strings")
                    };
                    Json::skip_space(chars);
                    assert_eq!(chars.next(), Some(':'));
                    fields.insert(key, Json::value(chars));
                    Json::skip_space(chars);
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
            }
            '[' => {
                chars.next();
                let mut items = Vec::new();
                loop {
                    Json::skip_space(chars);
                    if chars.peek() == Some(&']') {
                        chars.next();
                        return Json::Array(items);
                    }
                    items.push(Json::value(chars));
                    Json::skip_space(chars);
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
            }
            '"' => {
                chars.next();
                let mut out = String::new();
                loop {
                    match chars.next().expect("closing quote") {
                        '"' => return Json::Text(out),
                        '\\' => out.push(chars.next().expect("escaped character")),
                        c => out.push(c),
                    }
                }
            }
            _ => {
                let mut word = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
                {
                    word.push(chars.next().expect("peeked"));
                }
                Json::Number(word.parse().expect("a number"))
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn text(&self) -> String {
        match self {
            Json::Text(text) => text.clone(),
            other => panic!("{other:?} is not a string"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(value) => *value,
            other => panic!("{other:?} is not a number"),
        }
    }
}
