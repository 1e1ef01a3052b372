//! Property-based tests for the metrics crate: the packed trace codec,
//! export round-trips, series invariants, and statistics.

use proptest::prelude::*;
use rfd_metrics::{
    bin_events, export_trace, parse_trace, RunningStats, StepSeries, Trace, TraceEvent,
    TraceEventKind,
};
use rfd_sim::{SimDuration, SimTime};

/// Every kind, with ids from `id` and penalty values from `f`.
fn kind_strategy<I, F>(
    id: impl Fn() -> I,
    f: impl Fn() -> F,
) -> impl Strategy<Value = TraceEventKind>
where
    I: Strategy<Value = u32> + 'static,
    F: Strategy<Value = f64> + 'static,
{
    prop_oneof![
        (id(), any::<bool>()).prop_map(|(prefix, up)| TraceEventKind::OriginFlap { prefix, up }),
        (id(), id(), any::<bool>()).prop_map(|(a, b, up)| TraceEventKind::LinkFlap { a, b, up }),
        (id(), id(), any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateSent {
                from,
                to,
                withdrawal,
            }
        }),
        (id(), id(), any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateReceived {
                from,
                to,
                withdrawal,
            }
        }),
        (id(), any::<bool>(), id()).prop_map(|(node, unreachable, path_len)| {
            TraceEventKind::BestRouteChanged {
                node,
                unreachable,
                path_len,
            }
        }),
        (id(), id(), id()).prop_map(|(node, peer, prefix)| TraceEventKind::Suppressed {
            node,
            peer,
            prefix
        }),
        (id(), id(), id(), any::<bool>()).prop_map(|(node, peer, prefix, noisy)| {
            TraceEventKind::Reused {
                node,
                peer,
                prefix,
                noisy,
            }
        }),
        ((id(), id(), id()), f(), f(), any::<bool>()).prop_map(
            |((node, peer, prefix), value, charge, suppressed)| TraceEventKind::PenaltySample {
                node,
                peer,
                prefix,
                value,
                charge,
                suppressed,
            }
        ),
    ]
}

/// Kinds the text format round-trips: small ids, finite penalties.
fn event_kind_strategy() -> impl Strategy<Value = TraceEventKind> {
    kind_strategy(|| 0u32..20, || 0.0f64..12_000.0)
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..10_000, event_kind_strategy()), 0..80).prop_map(|items| {
        let mut trace = Trace::new();
        let mut now = SimTime::ZERO;
        for (gap, kind) in items {
            now += SimDuration::from_micros(gap);
            trace.record(now, kind);
        }
        trace
    })
}

/// Any id: small, anywhere in `u32`, or the top value.
fn id_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..20, any::<u32>(), Just(u32::MAX)]
}

/// Any penalty value: ordinary, any bit pattern (NaN payloads
/// included), or one of the values that compare unlike their bits.
fn f64_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..12_000.0,
        any::<u64>().prop_map(f64::from_bits),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
        ],
    ]
}

/// Gaps between events: same-instant bursts, the edge of the header's
/// 28-bit gap field, and gaps far beyond it.
fn gap_strategy() -> impl Strategy<Value = u64> {
    const ESCAPE: u64 = (1 << 28) - 1;
    prop_oneof![0u64..1_000, ESCAPE - 2..ESCAPE + 3, 0u64..1 << 40]
}

/// Events as recorded: a start time (zero or anywhere in the lower
/// half of the clock), then gaps.
fn events_strategy() -> impl Strategy<Value = Vec<TraceEvent>> {
    (
        prop_oneof![Just(0u64), 0u64..u64::MAX / 2],
        proptest::collection::vec(
            (gap_strategy(), kind_strategy(id_strategy, f64_strategy)),
            0..80,
        ),
    )
        .prop_map(|(start, items)| {
            let mut now = start;
            items
                .into_iter()
                .map(|(gap, kind)| {
                    now += gap;
                    TraceEvent::new(SimTime::from_micros(now), kind)
                })
                .collect()
        })
}

/// An event with its f64s as bits, so NaN payloads and −0.0 compare
/// exactly.
fn exact(e: &TraceEvent) -> (u64, TraceEventKind, [u64; 2]) {
    match e.kind {
        TraceEventKind::PenaltySample {
            node,
            peer,
            prefix,
            value,
            charge,
            suppressed,
        } => (
            e.at.as_micros(),
            TraceEventKind::PenaltySample {
                node,
                peer,
                prefix,
                value: 0.0,
                charge: 0.0,
                suppressed,
            },
            [value.to_bits(), charge.to_bits()],
        ),
        kind => (e.at.as_micros(), kind, [0; 2]),
    }
}

proptest! {
    /// The packed stream decodes to exactly what was recorded, bit for
    /// bit; `events()` agrees with `iter()` and a `record` after it
    /// refreshes the view.
    #[test]
    fn packed_trace_decodes_bit_for_bit(events in events_strategy()) {
        let want: Vec<_> = events.iter().map(exact).collect();
        let mut trace = Trace::new();
        let (last, head) = match events.split_last() {
            Some((last, head)) => (Some(last), head),
            None => (None, &events[..]),
        };
        for e in head {
            trace.record(e.at, e.kind);
        }
        prop_assert_eq!(trace.events().len(), head.len());
        if let Some(e) = last {
            trace.record(e.at, e.kind);
        }
        prop_assert_eq!(trace.len(), events.len());
        prop_assert_eq!(trace.iter().len(), events.len());
        prop_assert_eq!(trace.last_at(), last.map(|e| e.at));
        let decoded: Vec<_> = trace.iter().map(|e| exact(&e)).collect();
        prop_assert_eq!(&decoded, &want);
        let viewed: Vec<_> = trace.events().iter().map(exact).collect();
        prop_assert_eq!(&viewed, &want);
        let cloned = trace.clone();
        let recloned: Vec<_> = cloned.iter().map(|e| exact(&e)).collect();
        prop_assert_eq!(&recloned, &want);
    }

    /// Export → parse reproduces every event exactly.
    #[test]
    fn export_round_trips(trace in trace_strategy()) {
        let text = export_trace(&trace);
        let parsed = parse_trace(&text).expect("own output parses");
        prop_assert_eq!(trace.len(), parsed.len());
        for (a, b) in trace.iter().zip(parsed.iter()) {
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(&a.kind, &b.kind);
        }
    }

    /// Metrics computed on a round-tripped trace are identical.
    #[test]
    fn metrics_survive_round_trip(trace in trace_strategy()) {
        let parsed = parse_trace(&export_trace(&trace)).unwrap();
        prop_assert_eq!(trace.message_count(), parsed.message_count());
        prop_assert_eq!(trace.convergence_time(), parsed.convergence_time());
        prop_assert_eq!(trace.ever_suppressed_entries(), parsed.ever_suppressed_entries());
        prop_assert_eq!(trace.reuse_counts(), parsed.reuse_counts());
    }

    /// Binning conserves the event count within the covered range.
    #[test]
    fn binning_conserves_counts(
        times in proptest::collection::vec(0u64..100_000, 0..200),
        bin_s in 1u64..100,
    ) {
        let ts: Vec<SimTime> = times.iter().map(|&t| SimTime::from_micros(t)).collect();
        let end = SimTime::from_micros(100_000);
        let bins = bin_events(&ts, SimDuration::from_micros(bin_s), SimTime::ZERO, end);
        let total: usize = bins.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, times.len());
    }

    /// Step series: the final value equals the sum of all deltas, and
    /// value_at is monotone over insertion points.
    #[test]
    fn step_series_sums(deltas in proptest::collection::vec((1u64..1000, -3i64..4), 0..100)) {
        let mut s = StepSeries::new();
        let mut now = SimTime::ZERO;
        let mut total = 0i64;
        for (gap, d) in deltas {
            now += SimDuration::from_micros(gap);
            s.shift(now, d);
            total += d;
            prop_assert_eq!(s.value_at(now), total);
        }
        prop_assert_eq!(s.final_value(), total);
    }

    /// Seed aggregation: the mean lies within [min, max], the std is
    /// non-negative and every sample is counted.
    #[test]
    fn running_stats_bounds(samples in proptest::collection::vec(-1e6f64..1e6, 1..60)) {
        let mut s = RunningStats::new();
        samples.iter().for_each(|&v| s.push(v));
        prop_assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
        prop_assert!(s.std_dev() >= 0.0);
        prop_assert_eq!(s.count(), samples.len() as u64);
    }
}
