//! Property tests for the streaming sinks: every online aggregator must
//! agree exactly with the post-hoc scan of the equivalent buffered
//! [`Trace`], on arbitrary event streams — including same-timestamp
//! collisions, which exercise the instant-coalescing paths.

use proptest::prelude::*;
use rfd_metrics::{
    bin_events, ConvergenceTracker, MessageCounter, SuppressionStats, Trace, TraceEventKind,
    TraceSink, UpdateBins,
};
use rfd_sim::{SimDuration, SimTime};

/// Event mix slanted towards what the damping pipeline reacts to:
/// flaps, update traffic, penalty samples, suppression lifecycle.
fn event_kind_strategy() -> impl Strategy<Value = TraceEventKind> {
    prop_oneof![
        (any::<bool>(), 0u32..2).prop_map(|(up, prefix)| TraceEventKind::OriginFlap { prefix, up }),
        (0u32..8, 0u32..8, any::<bool>()).prop_filter_map("self link", |(a, b, up)| {
            (a != b).then_some(TraceEventKind::LinkFlap { a, b, up })
        }),
        (0u32..8, 0u32..8, any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateSent {
                from,
                to,
                withdrawal,
            }
        }),
        (0u32..8, 0u32..8, any::<bool>()).prop_map(|(from, to, withdrawal)| {
            TraceEventKind::UpdateReceived {
                from,
                to,
                withdrawal,
            }
        }),
        (0u32..8, 0u32..8, 0u32..2).prop_map(|(node, peer, prefix)| TraceEventKind::Suppressed {
            node,
            peer,
            prefix
        }),
        (0u32..8, 0u32..8, 0u32..2, any::<bool>()).prop_map(|(node, peer, prefix, noisy)| {
            TraceEventKind::Reused {
                node,
                peer,
                prefix,
                noisy,
            }
        }),
        (
            0u32..8,
            0u32..8,
            0u32..2,
            0.0f64..8000.0,
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

/// A timed stream: non-negative gaps, with gap 0 deliberately common so
/// several events land on the same instant.
fn stream_strategy() -> impl Strategy<Value = Vec<(SimTime, TraceEventKind)>> {
    proptest::collection::vec(
        (
            prop_oneof![
                Just(0u64),
                Just(0u64),
                1u64..400_000,
                1u64..400_000,
                1u64..400_000
            ],
            event_kind_strategy(),
        ),
        0..120,
    )
    .prop_map(|items| {
        let mut now = SimTime::ZERO;
        items
            .into_iter()
            .map(|(gap, kind)| {
                now += SimDuration::from_micros(gap);
                (now, kind)
            })
            .collect()
    })
}

/// Buffers the stream into a [`Trace`] for the post-hoc side.
fn to_trace(stream: &[(SimTime, TraceEventKind)]) -> Trace {
    let mut trace = Trace::new();
    for (at, kind) in stream {
        trace.record(*at, *kind);
    }
    trace
}

proptest! {
    /// Headline-metric aggregators equal their trace-scan counterparts.
    #[test]
    fn aggregators_match_trace_scans(stream in stream_strategy()) {
        let mut conv = ConvergenceTracker::new();
        let mut msgs = MessageCounter::new();
        let mut stats = SuppressionStats::new();
        for (at, kind) in &stream {
            conv.record(*at, *kind);
            msgs.record(*at, *kind);
            stats.record(*at, *kind);
        }
        conv.finish();
        msgs.finish();
        stats.finish();

        let trace = to_trace(&stream);
        prop_assert_eq!(conv.convergence_time(), trace.convergence_time());
        prop_assert_eq!(conv.first_flap_at(), trace.first_flap_at());
        prop_assert_eq!(msgs.message_count(), trace.message_count());
        prop_assert_eq!(stats.ever_suppressed_entries(), trace.ever_suppressed_entries());
        prop_assert_eq!(stats.reuse_counts(), trace.reuse_counts());
        prop_assert_eq!(stats.peak_penalty(), trace.peak_penalty());
    }

    /// Online 5-second binning materialises exactly what `bin_events`
    /// computes over the buffered update times, anchored at the first
    /// flap.
    #[test]
    fn update_bins_match_bin_events(
        stream in stream_strategy(),
        width_us in 1u64..2_000_000,
        margin_us in 0u64..2_000_000,
    ) {
        let width = SimDuration::from_micros(width_us);
        let mut bins = UpdateBins::new(width);
        for (at, kind) in &stream {
            bins.record(*at, *kind);
        }
        bins.finish();

        let trace = to_trace(&stream);
        let anchor = trace.first_flap_at().unwrap_or(SimTime::ZERO);
        let last = stream.last().map_or(SimTime::ZERO, |(at, _)| *at);
        let end = anchor.max(last) + SimDuration::from_micros(margin_us);
        prop_assert_eq!(bins.anchor().unwrap_or(SimTime::ZERO), anchor);
        prop_assert_eq!(
            bins.bins(end),
            bin_events(&trace.update_times(), width, anchor, end)
        );
    }
}
