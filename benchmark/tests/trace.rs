//! Span bookkeeping: parents, laps, self time, and the trace file.

use mgk_benchmark::json::{self, Json};
use mgk_benchmark::trace::{aggregate, self_times, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span { name, start_ns, end_ns, parent, lap: 1 }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = [
        span("kernel", 0, 1000, None),       // 0
        span("prepare", 10, 110, Some(0)),   // 1
        span("prepare", 110, 260, Some(0)),  // 2
        span("solve", 300, 900, Some(0)),    // 3
        span("apply", 320, 420, Some(3)),    // 4
        span("apply", 500, 650, Some(3)),    // 5
        span("unrelated", 2000, 2100, None), // 6
    ];
    // kernel: 1000 - (100 + 150 + 600); solve: 600 - (100 + 150); grandchildren
    // are charged to their parent, not to the grandparent
    assert_eq!(self_times(&spans), vec![150, 100, 150, 350, 100, 150, 100]);

    let by_name = aggregate(&spans);
    assert_eq!(by_name["prepare"].count, 2);
    assert_eq!(by_name["prepare"].total_ns, 250);
    assert_eq!(by_name["prepare"].self_ns, 250);
    assert_eq!(by_name["solve"].total_ns, 600);
    assert_eq!(by_name["solve"].self_ns, 350);
    assert_eq!(by_name["kernel"].self_ns, 150);
    // self times partition the roots' durations
    let total_self: u64 = by_name.values().map(|a| a.self_ns).sum();
    assert_eq!(total_self, 1000 + 100);
}

#[test]
fn tracer_records_nesting_laps_and_nothing_when_off() {
    let tracer = Tracer::new(true);
    tracer.set_lap(3);
    let answer = tracer.span("outer", || {
        tracer.span("inner", || std::hint::black_box(20)) + tracer.span("inner", || 22)
    });
    assert_eq!(answer, 42);
    tracer.set_enabled(false);
    let ((), ns) =
        tracer.span_timed("ignored", || std::thread::sleep(std::time::Duration::from_millis(2)));
    assert!(ns >= 2_000_000, "the clock is read with tracing off: {ns} ns");
    tracer.set_enabled(true);
    tracer.set_lap(4);
    tracer.span("later", || ());

    let spans = tracer.spans();
    assert_eq!(
        spans.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["outer", "inner", "inner", "later"]
    );
    assert_eq!(spans.iter().map(|s| s.parent).collect::<Vec<_>>(), [None, Some(0), Some(0), None]);
    assert_eq!(spans.iter().map(|s| s.lap).collect::<Vec<_>>(), [3, 3, 3, 4]);
    for s in &spans {
        assert!(s.end_ns >= s.start_ns);
    }
    // children lie inside their parent
    assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert!(spans[2].start_ns >= spans[1].end_ns);
    assert_eq!(tracer.span_count(), 4);
    assert_eq!(tracer.dropped(), 0);
}

#[test]
fn trace_file_round_trips_through_the_parser() {
    let tracer = Tracer::new(true);
    tracer.set_lap(1);
    tracer.span("a", || tracer.span("b", || ()));
    let file = tracer.to_json("gram-sparse", 7).to_compact();
    let parsed = json::parse(&file).expect("the trace file is JSON");
    assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("gram-sparse"));
    assert_eq!(parsed.get("seed").and_then(Json::as_f64), Some(7.0));
    let names: Vec<&str> =
        parsed.get("names").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(names, ["a", "b"]);
    let rows = parsed.get("spans").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 2);
    // [name, start_ns, end_ns, parent, lap]
    let b = rows[1].as_arr().unwrap();
    assert_eq!(b[0].as_f64(), Some(1.0));
    assert_eq!(b[3].as_f64(), Some(0.0));
    assert_eq!(b[4].as_f64(), Some(1.0));
    assert_eq!(rows[0].as_arr().unwrap()[3].as_f64(), Some(-1.0));
    let by_name = parsed.get("by_name").unwrap();
    assert_eq!(by_name.get("a").unwrap().get("count").and_then(Json::as_f64), Some(1.0));
}
