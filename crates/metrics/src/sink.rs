//! Streaming trace observers.
//!
//! The original pipeline buffered every [`TraceEvent`] in a [`Trace`]
//! and derived all paper metrics by scanning the vector afterwards, so
//! per-run memory grew O(events). A [`TraceSink`] receives the same
//! time-ordered event stream *during* the run instead, and the online
//! aggregators in this module compute the headline metrics in O(1)
//! (or O(changes)) space:
//!
//! * [`VecSink`] — the full-fidelity buffer: [`Trace`] itself; figures
//!   that genuinely need the raw event history (penalty sawtooths,
//!   Figure 10 panels) opt into it;
//! * [`NullSink`] — counts and drops everything (warm-up);
//! * [`ConvergenceTracker`] — the paper's convergence-time metric;
//! * [`MessageCounter`] — the paper's message-count metric;
//! * [`UpdateBins`] — the Figure 10 update series (5-second bins);
//! * [`SuppressionStats`] — reuse/suppression tallies and peak penalty.
//!
//! Tuples of sinks compose statically. Every leaf sink reports
//! `metrics.sink.events` / `metrics.sink.retained` counters through
//! `rfd-obs` when [`TraceSink::finish`] runs (inert unless
//! observability is enabled).

use std::collections::HashSet;

use rfd_sim::{SimDuration, SimTime};
use rfd_snap::{Decoder, Encoder, SnapError};

use crate::events::TraceEventKind;
use crate::trace::Trace;

/// An observer of the simulation's time-ordered trace-event stream.
///
/// Implementations must tolerate the same-instant bursts the simulation
/// produces (several events may share a timestamp); events never go
/// backwards in time.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Observes one event.
    fn record(&mut self, at: SimTime, kind: TraceEventKind);

    /// Flushes pending state once the stream ends. Aggregators that
    /// coalesce same-instant bursts finalise here; leaf sinks also
    /// report their `metrics.sink.*` counters. Call exactly once.
    fn finish(&mut self) {}

    /// Number of buffered [`TraceEvent`]s this sink holds. Zero for
    /// every aggregator; [`VecSink`] returns its trace length.
    ///
    /// [`TraceEvent`]: crate::TraceEvent
    fn retained_events(&self) -> usize {
        0
    }
}

/// [`Trace`] itself is a sink: recording simply appends.
impl TraceSink for Trace {
    fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        Trace::record(self, at, kind);
    }

    fn finish(&mut self) {
        report_sink_obs(self.len() as u64, self.len());
    }

    fn retained_events(&self) -> usize {
        self.len()
    }
}

macro_rules! tuple_sink {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: TraceSink),+> TraceSink for ($($name,)+) {
            fn record(&mut self, at: SimTime, kind: TraceEventKind) {
                $(self.$idx.record(at, kind);)+
            }

            fn finish(&mut self) {
                $(self.$idx.finish();)+
            }

            fn retained_events(&self) -> usize {
                0 $(+ self.$idx.retained_events())+
            }
        }
    };
}

tuple_sink!(A: 0, B: 1);
tuple_sink!(A: 0, B: 1, C: 2);
tuple_sink!(A: 0, B: 1, C: 2, D: 3);

/// Reports the per-sink observability counters (no-ops unless
/// `rfd_obs::enable` was called).
fn report_sink_obs(seen: u64, retained: usize) {
    rfd_obs::add("metrics.sink.events", seen);
    rfd_obs::add("metrics.sink.retained", retained as u64);
}

/// The full-fidelity sink: buffers every event, exactly like the
/// pre-streaming pipeline. Memory grows O(events); only consumers that
/// replay history (penalty sawtooths, state-span plots, trace export)
/// should pay for it.
pub type VecSink = Trace;

/// Counts events and drops them — the warm-up sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink {
    seen: u64,
}

impl NullSink {
    /// Creates the sink.
    pub fn new() -> Self {
        NullSink::default()
    }

    /// Events observed (and discarded).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for NullSink {
    fn record(&mut self, _at: SimTime, _kind: TraceEventKind) {
        self.seen += 1;
    }

    fn finish(&mut self) {
        report_sink_obs(self.seen, 0);
    }
}

/// Online equivalent of [`Trace::convergence_time`]: tracks the first
/// flap, the last `up = true` flap (the final announcement) and the
/// last received update in O(1) space.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvergenceTracker {
    first_flap: Option<SimTime>,
    final_announcement: Option<SimTime>,
    last_update: Option<SimTime>,
    seen: u64,
}

impl ConvergenceTracker {
    /// Creates the tracker.
    pub fn new() -> Self {
        ConvergenceTracker::default()
    }

    /// Time of the first flap, if any (matches [`Trace::first_flap_at`]).
    pub fn first_flap_at(&self) -> Option<SimTime> {
        self.first_flap
    }

    /// Time of the final recovery, if any (matches
    /// [`Trace::final_announcement_at`]).
    pub fn final_announcement_at(&self) -> Option<SimTime> {
        self.final_announcement
    }

    /// Time of the last received update, if any (matches
    /// [`Trace::last_update_at`]).
    pub fn last_update_at(&self) -> Option<SimTime> {
        self.last_update
    }

    /// The paper's convergence-time metric (matches
    /// [`Trace::convergence_time`]).
    pub fn convergence_time(&self) -> SimDuration {
        match (self.final_announcement, self.last_update) {
            (Some(end_of_flapping), Some(last)) => last.saturating_since(end_of_flapping),
            _ => SimDuration::ZERO,
        }
    }
}

impl TraceSink for ConvergenceTracker {
    fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        self.seen += 1;
        match kind {
            TraceEventKind::OriginFlap { up, .. } | TraceEventKind::LinkFlap { up, .. } => {
                self.first_flap.get_or_insert(at);
                if up {
                    self.final_announcement = Some(at);
                }
            }
            TraceEventKind::UpdateReceived { .. } => self.last_update = Some(at),
            _ => {}
        }
    }

    fn finish(&mut self) {
        report_sink_obs(self.seen, 0);
    }
}

impl ConvergenceTracker {
    /// The tracker's state as a network snapshot stores it.
    pub fn export_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        encode_opt_time(&mut enc, self.first_flap);
        encode_opt_time(&mut enc, self.final_announcement);
        encode_opt_time(&mut enc, self.last_update);
        enc.u64(self.seen);
        enc.into_bytes()
    }

    /// Rebuilds a tracker from [`export_state`](Self::export_state)'s
    /// bytes.
    ///
    /// # Errors
    ///
    /// Truncated, malformed or trailing bytes.
    pub fn import_state(bytes: &[u8]) -> Result<Self, SnapError> {
        const CTX: &str = "convergence tracker";
        decode_section(bytes, CTX, |dec| {
            Ok(ConvergenceTracker {
                first_flap: decode_opt_time(dec, CTX)?,
                final_announcement: decode_opt_time(dec, CTX)?,
                last_update: decode_opt_time(dec, CTX)?,
                seen: dec.u64(CTX)?,
            })
        })
    }
}

/// Online equivalent of [`Trace::message_count`]: updates received from
/// the first flap onwards (all updates when nothing flapped).
///
/// The post-hoc scan counts updates with `at >= first_flap_at`, which
/// includes updates sharing the first flap's timestamp even when they
/// were recorded *before* the flap event — so the counter remembers how
/// many updates landed at the current instant until a flap arrives.
#[derive(Debug, Clone, Copy, Default)]
pub struct MessageCounter {
    total: usize,
    before_flap: usize,
    flap_seen: bool,
    cur_instant: Option<SimTime>,
    cur_count: usize,
    seen: u64,
}

impl MessageCounter {
    /// Creates the counter.
    pub fn new() -> Self {
        MessageCounter::default()
    }

    /// The paper's message-count metric (matches
    /// [`Trace::message_count`]).
    pub fn message_count(&self) -> usize {
        if self.flap_seen {
            self.total - self.before_flap
        } else {
            self.total
        }
    }
}

impl TraceSink for MessageCounter {
    fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        self.seen += 1;
        match kind {
            TraceEventKind::UpdateReceived { .. } => {
                self.total += 1;
                if !self.flap_seen {
                    if self.cur_instant == Some(at) {
                        self.cur_count += 1;
                    } else {
                        self.cur_instant = Some(at);
                        self.cur_count = 1;
                    }
                }
            }
            TraceEventKind::OriginFlap { .. } | TraceEventKind::LinkFlap { .. }
                if !self.flap_seen =>
            {
                self.flap_seen = true;
                let at_instant = if self.cur_instant == Some(at) {
                    self.cur_count
                } else {
                    0
                };
                self.before_flap = self.total - at_instant;
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        report_sink_obs(self.seen, 0);
    }
}

impl MessageCounter {
    /// The counter's state as a network snapshot stores it.
    pub fn export_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.usize(self.total);
        enc.usize(self.before_flap);
        enc.bool(self.flap_seen);
        encode_opt_time(&mut enc, self.cur_instant);
        enc.usize(self.cur_count);
        enc.u64(self.seen);
        enc.into_bytes()
    }

    /// Rebuilds a counter from [`export_state`](Self::export_state)'s
    /// bytes.
    ///
    /// # Errors
    ///
    /// Truncated, malformed or trailing bytes.
    pub fn import_state(bytes: &[u8]) -> Result<Self, SnapError> {
        const CTX: &str = "message counter";
        decode_section(bytes, CTX, |dec| {
            Ok(MessageCounter {
                total: dec.usize(CTX)?,
                before_flap: dec.usize(CTX)?,
                flap_seen: dec.bool(CTX)?,
                cur_instant: decode_opt_time(dec, CTX)?,
                cur_count: dec.usize(CTX)?,
                seen: dec.u64(CTX)?,
            })
        })
    }
}

fn encode_opt_time(enc: &mut Encoder, t: Option<SimTime>) {
    enc.option(t.as_ref(), |e, t| e.u64(t.as_micros()));
}

fn decode_opt_time(dec: &mut Decoder<'_>, ctx: &'static str) -> Result<Option<SimTime>, SnapError> {
    dec.option(ctx, |d| d.u64(ctx).map(SimTime::from_micros))
}

/// Decodes one snapshot section with `read`, refusing trailing bytes.
fn decode_section<T>(
    bytes: &[u8],
    ctx: &'static str,
    read: impl FnOnce(&mut Decoder<'_>) -> Result<T, SnapError>,
) -> Result<T, SnapError> {
    let mut dec = Decoder::new(bytes);
    let value = read(&mut dec)?;
    if dec.is_done() {
        Ok(value)
    } else {
        Err(SnapError::Invalid { context: ctx })
    }
}

/// Online equivalent of binning [`Trace::update_times`] with
/// [`bin_events`] anchored at the first flap — the Figure 10 update
/// series. Memory is O(bins), not O(updates).
///
/// [`bin_events`]: crate::bin_events
#[derive(Debug, Clone)]
pub struct UpdateBins {
    width: SimDuration,
    anchor: Option<SimTime>,
    /// Updates observed before the anchor is known (empty in practice:
    /// the measured phase starts with the first flap).
    pending: Vec<SimTime>,
    counts: Vec<usize>,
    last_update: Option<SimTime>,
    seen: u64,
}

impl Default for UpdateBins {
    /// The paper's 5-second bins.
    fn default() -> Self {
        UpdateBins::new(SimDuration::from_secs(5))
    }
}

impl UpdateBins {
    /// Creates the binner.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        UpdateBins {
            width,
            anchor: None,
            pending: Vec::new(),
            counts: Vec::new(),
            last_update: None,
            seen: 0,
        }
    }

    /// The bin origin: the first flap, or [`SimTime::ZERO`] when nothing
    /// flapped (fixed at [`TraceSink::finish`]).
    pub fn anchor(&self) -> Option<SimTime> {
        self.anchor
    }

    /// Time of the last binned update, if any.
    pub fn last_update_at(&self) -> Option<SimTime> {
        self.last_update
    }

    fn add(&mut self, t: SimTime) {
        let anchor = self.anchor.expect("anchor fixed before adding");
        if t < anchor {
            return; // pre-flap updates fall outside [start, end)
        }
        let idx = (t.saturating_since(anchor).as_micros() / self.width.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Materialises `(bin_start, count)` pairs covering `[anchor, end)`,
    /// byte-for-byte what `bin_events(&trace.update_times(), width,
    /// anchor, end)` returns on the equivalent trace.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the anchor.
    pub fn bins(&self, end: SimTime) -> Vec<(SimTime, usize)> {
        let start = self.anchor.unwrap_or(SimTime::ZERO);
        assert!(end >= start, "end must not precede start");
        let width = self.width.as_micros();
        let span = end.saturating_since(start).as_micros();
        let nbins = span.div_ceil(width).max(1) as usize;
        (0..nbins)
            .map(|i| {
                (
                    start + self.width * i as u64,
                    self.counts.get(i).copied().unwrap_or(0),
                )
            })
            .collect()
    }
}

impl TraceSink for UpdateBins {
    fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        self.seen += 1;
        match kind {
            TraceEventKind::UpdateReceived { .. } => {
                self.last_update = Some(at);
                if self.anchor.is_some() {
                    self.add(at);
                } else {
                    self.pending.push(at);
                }
            }
            TraceEventKind::OriginFlap { .. } | TraceEventKind::LinkFlap { .. }
                if self.anchor.is_none() =>
            {
                self.anchor = Some(at);
                for t in std::mem::take(&mut self.pending) {
                    self.add(t);
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        if self.anchor.is_none() {
            // No flap anywhere: the post-hoc pipeline bins from t = 0.
            self.anchor = Some(SimTime::ZERO);
            for t in std::mem::take(&mut self.pending) {
                self.add(t);
            }
        }
        report_sink_obs(self.seen, 0);
    }
}

/// Online equivalents of [`Trace::reuse_counts`],
/// [`Trace::ever_suppressed_entries`] and [`Trace::peak_penalty`].
/// Memory is O(distinct suppressed entries).
#[derive(Debug, Clone, Default)]
pub struct SuppressionStats {
    ever: HashSet<(u32, u32, u32)>,
    noisy: usize,
    silent: usize,
    peak_penalty: f64,
    seen: u64,
}

impl SuppressionStats {
    /// Creates the aggregator.
    pub fn new() -> Self {
        SuppressionStats::default()
    }

    /// Distinct (node, peer, prefix) entries ever suppressed (matches
    /// [`Trace::ever_suppressed_entries`]).
    pub fn ever_suppressed_entries(&self) -> usize {
        self.ever.len()
    }

    /// `(noisy, silent)` reuse counts (matches [`Trace::reuse_counts`]).
    pub fn reuse_counts(&self) -> (usize, usize) {
        (self.noisy, self.silent)
    }

    /// Maximum penalty value ever sampled (matches
    /// [`Trace::peak_penalty`]).
    pub fn peak_penalty(&self) -> f64 {
        self.peak_penalty
    }
}

impl TraceSink for SuppressionStats {
    fn record(&mut self, _at: SimTime, kind: TraceEventKind) {
        self.seen += 1;
        match kind {
            TraceEventKind::Suppressed { node, peer, prefix } => {
                self.ever.insert((node, peer, prefix));
            }
            TraceEventKind::Reused { noisy, .. } => {
                if noisy {
                    self.noisy += 1;
                } else {
                    self.silent += 1;
                }
            }
            TraceEventKind::PenaltySample { value, .. } => {
                self.peak_penalty = self.peak_penalty.max(value);
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        report_sink_obs(self.seen, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sent() -> TraceEventKind {
        TraceEventKind::UpdateSent {
            from: 0,
            to: 1,
            withdrawal: false,
        }
    }

    fn received() -> TraceEventKind {
        TraceEventKind::UpdateReceived {
            from: 0,
            to: 1,
            withdrawal: false,
        }
    }

    fn flap(up: bool) -> TraceEventKind {
        TraceEventKind::OriginFlap { prefix: 0, up }
    }

    /// Feeds one event stream to a trace and any sink.
    fn feed(events: &[(SimTime, TraceEventKind)], sink: &mut dyn TraceSink) -> Trace {
        let mut trace = Trace::new();
        for &(at, kind) in events {
            trace.record(at, kind);
            sink.record(at, kind);
        }
        sink.finish();
        trace
    }

    fn pulse_stream() -> Vec<(SimTime, TraceEventKind)> {
        let mut ev = vec![
            (t(0), flap(false)),
            (t(1), sent()),
            (t(2), received()),
            (t(60), flap(true)),
            (t(61), sent()),
            (t(63), received()),
            (
                t(64),
                TraceEventKind::Suppressed {
                    node: 1,
                    peer: 0,
                    prefix: 0,
                },
            ),
            (
                t(900),
                TraceEventKind::Reused {
                    node: 1,
                    peer: 0,
                    prefix: 0,
                    noisy: true,
                },
            ),
            (t(901), sent()),
            (t(903), received()),
        ];
        ev.sort_by_key(|&(at, _)| at);
        ev
    }

    #[test]
    fn convergence_tracker_matches_trace() {
        let mut sink = ConvergenceTracker::new();
        let trace = feed(&pulse_stream(), &mut sink);
        assert_eq!(sink.first_flap_at(), trace.first_flap_at());
        assert_eq!(sink.final_announcement_at(), trace.final_announcement_at());
        assert_eq!(sink.last_update_at(), trace.last_update_at());
        assert_eq!(sink.convergence_time(), trace.convergence_time());
    }

    #[test]
    fn message_counter_matches_trace() {
        let mut sink = MessageCounter::new();
        let trace = feed(&pulse_stream(), &mut sink);
        assert_eq!(sink.message_count(), trace.message_count());
    }

    #[test]
    fn message_counter_counts_updates_sharing_the_first_flap_instant() {
        // The post-hoc filter is `at >= first_flap`, so an update
        // recorded before the flap but at the same instant counts.
        let events = [
            (t(5), received()),
            (t(10), received()),
            (t(10), received()),
            (t(10), flap(false)),
            (t(11), received()),
        ];
        let mut sink = MessageCounter::new();
        let trace = feed(&events, &mut sink);
        assert_eq!(trace.message_count(), 3);
        assert_eq!(sink.message_count(), 3);
    }

    #[test]
    fn message_counter_without_flaps_counts_everything() {
        let events = [(t(1), received()), (t(2), received())];
        let mut sink = MessageCounter::new();
        let trace = feed(&events, &mut sink);
        assert_eq!(trace.message_count(), 2);
        assert_eq!(sink.message_count(), 2);
    }

    #[test]
    fn update_bins_match_bin_events() {
        let mut sink = UpdateBins::default();
        let trace = feed(&pulse_stream(), &mut sink);
        let start = trace.first_flap_at().unwrap();
        let end = trace.last_update_at().unwrap() + SimDuration::from_secs(600);
        let expect =
            crate::series::bin_events(&trace.update_times(), SimDuration::from_secs(5), start, end);
        assert_eq!(sink.bins(end), expect);
    }

    #[test]
    fn update_bins_without_flaps_anchor_at_zero() {
        let events = [(t(3), received()), (t(11), received())];
        let mut sink = UpdateBins::default();
        let trace = feed(&events, &mut sink);
        let end = t(20);
        let expect = crate::series::bin_events(
            &trace.update_times(),
            SimDuration::from_secs(5),
            SimTime::ZERO,
            end,
        );
        assert_eq!(sink.bins(end), expect);
    }

    #[test]
    fn suppression_stats_match_trace() {
        let mut events = pulse_stream();
        events.push((
            t(1000),
            TraceEventKind::PenaltySample {
                node: 1,
                peer: 0,
                prefix: 0,
                value: 2750.0,
                charge: 1000.0,
                suppressed: false,
            },
        ));
        events.push((
            t(1001),
            TraceEventKind::Suppressed {
                node: 2,
                peer: 3,
                prefix: 0,
            },
        ));
        events.push((
            t(1500),
            TraceEventKind::Reused {
                node: 2,
                peer: 3,
                prefix: 0,
                noisy: false,
            },
        ));
        let mut sink = SuppressionStats::new();
        let trace = feed(&events, &mut sink);
        assert_eq!(
            sink.ever_suppressed_entries(),
            trace.ever_suppressed_entries()
        );
        assert_eq!(sink.reuse_counts(), trace.reuse_counts());
        assert_eq!(sink.peak_penalty(), trace.peak_penalty());
    }

    #[test]
    fn vec_sink_retains_and_null_sink_does_not() {
        let events = pulse_stream();
        let mut vec_sink = VecSink::new();
        let mut null = NullSink::new();
        let trace = feed(&events, &mut vec_sink);
        feed(&events, &mut null);
        assert_eq!(vec_sink.retained_events(), events.len());
        assert!(vec_sink.iter().eq(trace.iter()));
        assert_eq!(null.retained_events(), 0);
        assert_eq!(null.seen(), events.len() as u64);
    }

    #[test]
    fn tuple_sinks_compose_statically() {
        let mut pair = (ConvergenceTracker::new(), MessageCounter::new());
        let trace = feed(&pulse_stream(), &mut pair);
        assert_eq!(pair.0.convergence_time(), trace.convergence_time());
        assert_eq!(pair.1.message_count(), trace.message_count());
        assert_eq!(pair.retained_events(), 0);
    }

    #[test]
    fn trace_is_a_sink_too() {
        let mut trace = Trace::new();
        TraceSink::record(&mut trace, t(1), received());
        assert_eq!(trace.retained_events(), 1);
    }

    #[test]
    fn aggregator_states_round_trip_and_refuse_trailing_bytes() {
        let mut pair = (ConvergenceTracker::new(), MessageCounter::new());
        feed(&pulse_stream(), &mut pair);
        let conv = pair.0.export_state();
        let msgs = pair.1.export_state();
        let conv_back = ConvergenceTracker::import_state(&conv).unwrap();
        let msgs_back = MessageCounter::import_state(&msgs).unwrap();
        assert_eq!(conv_back.convergence_time(), pair.0.convergence_time());
        assert_eq!(msgs_back.message_count(), pair.1.message_count());
        for bytes in [&conv[..conv.len() - 1], &[conv.as_slice(), &[0]].concat()] {
            assert!(ConvergenceTracker::import_state(bytes).is_err());
        }
        for bytes in [&msgs[..msgs.len() - 1], &[msgs.as_slice(), &[0]].concat()] {
            assert!(MessageCounter::import_state(bytes).is_err());
        }
    }
}
