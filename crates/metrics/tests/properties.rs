//! Property-based tests for the metrics crate: export round-trips,
//! series invariants, and statistics.

use proptest::prelude::*;
use rfd_metrics::{
    bin_events, export_trace, parse_trace, RunningStats, StepSeries, Trace, TraceEventKind,
};
use rfd_sim::{SimDuration, SimTime};

fn event_kind_strategy() -> impl Strategy<Value = TraceEventKind> {
    prop_oneof![
        (any::<bool>(), 0u32..4).prop_map(|(up, prefix)| TraceEventKind::OriginFlap { prefix, up }),
        (0u32..20, 0u32..20, any::<bool>()).prop_filter_map("self link", |(a, b, up)| {
            (a != b).then_some(TraceEventKind::LinkFlap { a, b, up })
        }),
        (0u32..20, 0u32..20, any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateSent {
                from,
                to,
                withdrawal,
            }
        }),
        (0u32..20, 0u32..20, any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateReceived {
                from,
                to,
                withdrawal,
            }
        }),
        (0u32..20, any::<bool>(), 0u32..30).prop_map(|(node, unreachable, path_len)| {
            TraceEventKind::BestRouteChanged {
                node,
                unreachable,
                path_len: if unreachable { 0 } else { path_len },
            }
        }),
        (0u32..20, 0u32..20, 0u32..4)
            .prop_map(|(node, peer, prefix)| { TraceEventKind::Suppressed { node, peer, prefix } }),
        (0u32..20, 0u32..20, 0u32..4, any::<bool>()).prop_map(|(node, peer, prefix, noisy)| {
            TraceEventKind::Reused {
                node,
                peer,
                prefix,
                noisy,
            }
        }),
        (
            0u32..20,
            0u32..20,
            0u32..4,
            0.0f64..12_000.0,
            0.0f64..1000.0,
            any::<bool>()
        )
            .prop_map(|(node, peer, prefix, value, charge, suppressed)| {
                TraceEventKind::PenaltySample {
                    node,
                    peer,
                    prefix,
                    value,
                    charge,
                    suppressed,
                }
            }),
    ]
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

proptest! {
    /// Export → parse reproduces every event exactly.
    #[test]
    fn export_round_trips(trace in trace_strategy()) {
        let text = export_trace(&trace);
        let parsed = parse_trace(&text).expect("own output parses");
        prop_assert_eq!(trace.len(), parsed.len());
        for (a, b) in trace.events().iter().zip(parsed.events()) {
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
