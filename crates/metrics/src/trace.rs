//! The trace collector and the paper's two headline metrics.
//!
//! A [`Trace`] keeps its events as one packed stream of 32-bit words
//! rather than a `Vec` of 40-byte [`TraceEvent`]s. Each record is a
//! header word followed by only its kind's payload:
//!
//! ```text
//! header   bits 0..3  kind tag (flap, linkflap, sent, recv, best,
//!                     suppress, reuse, penalty)
//!          bit  3     the kind's one flag (up / withdrawal /
//!                     unreachable / noisy / suppressed; 0 for suppress)
//!          bits 4..32 microseconds since the previous record; all ones
//!                     escapes: the absolute time follows as two words
//!                     (low, high)
//! payload  flap: prefix · linkflap: a b · sent/recv: from to ·
//!          best: node path_len · suppress/reuse: node peer prefix ·
//!          penalty: node peer prefix value charge (each f64 as its
//!          bits, low word first)
//! ```
//!
//! So a flap takes 8 bytes, a link flap, update or best-route change
//! 12, a suppression or reuse 16 and a penalty sample 32, plus 8 for a
//! gap of 2^28 − 1 µs (about 4.5 minutes) or more. [`Trace::iter`]
//! decodes the stream front to back; [`Trace::events`] is a decoded
//! copy kept for slice-taking callers.

use std::sync::OnceLock;

use rfd_sim::{SimDuration, SimTime};

use crate::events::{TraceEvent, TraceEventKind};
use crate::series::StepSeries;

/// Bits of a record header that hold the gap since the previous record.
const GAP_BITS: u32 = 28;
/// The header gap that escapes to an absolute time in the next two words.
const ESCAPE: u32 = (1 << GAP_BITS) - 1;
/// Where the gap starts in the header.
const GAP_SHIFT: u32 = 32 - GAP_BITS;
/// The header's flag bit.
const FLAG: u32 = 1 << 3;
/// The header's kind tag.
const TAG: u32 = 0b111;

const FLAP: u32 = 0;
const LINK_FLAP: u32 = 1;
const SENT: u32 = 2;
const RECEIVED: u32 = 3;
const BEST: u32 = 4;
const SUPPRESSED: u32 = 5;
const REUSED: u32 = 6;
const PENALTY: u32 = 7;

/// One penalty sample of a (node, peer) entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyPoint {
    /// When the charge happened.
    pub at: SimTime,
    /// Penalty value right after the charge.
    pub value: f64,
    /// The increment added by this update (may be zero).
    pub charge: f64,
    /// Whether the entry is suppressed at this instant.
    pub suppressed: bool,
}

/// An append-only, time-ordered record of everything that happened in a
/// simulation run, packed as the module docs describe.
///
/// # Examples
///
/// ```
/// use rfd_metrics::{Trace, TraceEventKind};
/// use rfd_sim::SimTime;
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::ZERO, TraceEventKind::OriginFlap { prefix: 0, up: false });
/// trace.record(
///     SimTime::from_secs(1),
///     TraceEventKind::UpdateReceived { from: 0, to: 1, withdrawal: true },
/// );
/// assert_eq!(trace.message_count(), 1);
/// assert_eq!(trace.iter().nth(1).map(|e| e.at), Some(SimTime::from_secs(1)));
/// ```
#[derive(Default)]
pub struct Trace {
    /// The packed record stream.
    words: Vec<u32>,
    /// Number of records in `words`.
    len: usize,
    /// Time of the last record (zero while empty): the next gap's base.
    last_at: SimTime,
    /// [`Trace::events`]' decoded copy, built on its first call.
    view: DecodedView,
}

rfd_sim::clone_fields!(impl Clone for Trace { words, len, last_at, view });

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A cache of the decoded stream; a clone starts empty.
#[derive(Debug, Default)]
struct DecodedView(OnceLock<Vec<TraceEvent>>);

impl Clone for DecodedView {
    fn clone(&self) -> Self {
        DecodedView::default()
    }
}

/// A `u64` as its (low, high) words.
fn split(bits: u64) -> [u32; 2] {
    [bits as u32, (bits >> 32) as u32]
}

/// The inverse of [`split`].
fn join([low, high]: [u32; 2]) -> u64 {
    u64::from(low) | u64::from(high) << 32
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous event (the simulation is
    /// single-threaded and time-ordered; out-of-order recording is a
    /// harness bug).
    pub fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        assert!(at >= self.last_at, "trace events must be time-ordered");
        self.view.0.take();
        match kind {
            TraceEventKind::OriginFlap { prefix, up } => self.push(at, FLAP, up, &[prefix]),
            TraceEventKind::LinkFlap { a, b, up } => self.push(at, LINK_FLAP, up, &[a, b]),
            TraceEventKind::UpdateSent {
                from,
                to,
                withdrawal,
            } => self.push(at, SENT, withdrawal, &[from, to]),
            TraceEventKind::UpdateReceived {
                from,
                to,
                withdrawal,
            } => self.push(at, RECEIVED, withdrawal, &[from, to]),
            TraceEventKind::BestRouteChanged {
                node,
                unreachable,
                path_len,
            } => self.push(at, BEST, unreachable, &[node, path_len]),
            TraceEventKind::Suppressed { node, peer, prefix } => {
                self.push(at, SUPPRESSED, false, &[node, peer, prefix]);
            }
            TraceEventKind::Reused {
                node,
                peer,
                prefix,
                noisy,
            } => self.push(at, REUSED, noisy, &[node, peer, prefix]),
            TraceEventKind::PenaltySample {
                node,
                peer,
                prefix,
                value,
                charge,
                suppressed,
            } => {
                let [v0, v1] = split(value.to_bits());
                let [c0, c1] = split(charge.to_bits());
                self.push(
                    at,
                    PENALTY,
                    suppressed,
                    &[node, peer, prefix, v0, v1, c0, c1],
                );
            }
        }
    }

    /// Appends one record: its header (escaping to an absolute time
    /// when the gap does not fit) and then `payload`.
    fn push(&mut self, at: SimTime, tag: u32, flag: bool, payload: &[u32]) {
        let head = tag | if flag { FLAG } else { 0 };
        match u32::try_from(at.as_micros() - self.last_at.as_micros()) {
            Ok(gap) if gap < ESCAPE => self.words.push(head | gap << GAP_SHIFT),
            _ => {
                let [low, high] = split(at.as_micros());
                self.words
                    .extend_from_slice(&[head | ESCAPE << GAP_SHIFT, low, high]);
            }
        }
        self.words.extend_from_slice(payload);
        self.last_at = at;
        self.len += 1;
    }

    /// The events in recording order, decoded from the packed stream.
    /// Every query of this type reads through it.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            words: &self.words,
            at: 0,
            remaining: self.len,
        }
    }

    /// All events as a slice: a decoded copy of the whole stream, built
    /// on the first call after a [`record`](Self::record) and kept until
    /// the next. It costs 40 bytes per event on top of the stream, so
    /// readers that can walk [`iter`](Self::iter) should.
    pub fn events(&self) -> &[TraceEvent] {
        self.view.0.get_or_init(|| self.iter().collect())
    }

    /// Time of the last recorded event, if any: what a new event must
    /// not precede.
    pub fn last_at(&self) -> Option<SimTime> {
        (!self.is_empty()).then_some(self.last_at)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the first flap (origin or interior link), if any.
    pub fn first_flap_at(&self) -> Option<SimTime> {
        self.iter()
            .find(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::OriginFlap { .. } | TraceEventKind::LinkFlap { .. }
                )
            })
            .map(|e| e.at)
    }

    /// Time of the final recovery (the last `up = true` flap of the
    /// origin or of an interior link), if any.
    pub fn final_announcement_at(&self) -> Option<SimTime> {
        self.iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::OriginFlap { up: true, .. }
                        | TraceEventKind::LinkFlap { up: true, .. }
                )
            })
            .last()
            .map(|e| e.at)
    }

    /// Time the last update message was observed (received), if any.
    pub fn last_update_at(&self) -> Option<SimTime> {
        self.iter()
            .filter(TraceEvent::is_update_received)
            .last()
            .map(|e| e.at)
    }

    /// The paper's **message count**: "the total number of updates
    /// observed in the network starting from the first flap".
    pub fn message_count(&self) -> usize {
        let Some(start) = self.first_flap_at() else {
            return self.iter().filter(TraceEvent::is_update_received).count();
        };
        self.iter()
            .filter(|e| e.at >= start && e.is_update_received())
            .count()
    }

    /// The paper's **convergence time**: "the time from when the
    /// originAS stops flapping (i.e., sends its final route
    /// announcement) to when the last update message is observed in the
    /// network". Zero when there were no flaps or no updates after the
    /// final announcement.
    pub fn convergence_time(&self) -> SimDuration {
        match (self.final_announcement_at(), self.last_update_at()) {
            (Some(end_of_flapping), Some(last)) => last.saturating_since(end_of_flapping),
            _ => SimDuration::ZERO,
        }
    }

    /// Update-received timestamps (for binning into the Figure 10 update
    /// series).
    pub fn update_times(&self) -> Vec<SimTime> {
        self.iter()
            .filter(TraceEvent::is_update_received)
            .map(|e| e.at)
            .collect()
    }

    /// The number of suppressed (node, peer) entries over time — the
    /// paper's **damped link count** (Figure 10, bottom row). "When a
    /// node suppresses routes from a neighbor node, we count it as one
    /// damped link", so with the single experiment prefix this equals
    /// the number of suppressed RIB-IN entries.
    pub fn damped_link_series(&self) -> StepSeries {
        let mut series = StepSeries::new();
        for e in self.iter() {
            match e.kind {
                TraceEventKind::Suppressed { .. } => series.shift(e.at, 1),
                TraceEventKind::Reused { .. } => series.shift(e.at, -1),
                _ => {}
            }
        }
        series
    }

    /// Count of updates currently in flight (sent but not yet received)
    /// over time; used by the state classifier.
    pub fn in_flight_series(&self) -> StepSeries {
        let mut series = StepSeries::new();
        for e in self.iter() {
            match e.kind {
                TraceEventKind::UpdateSent { .. } => series.shift(e.at, 1),
                TraceEventKind::UpdateReceived { .. } => series.shift(e.at, -1),
                _ => {}
            }
        }
        series
    }

    /// Penalty samples recorded for one (node, peer, prefix) entry —
    /// the Figure 3/7 data.
    pub fn penalty_samples(&self, node: u32, peer: u32, prefix: u32) -> Vec<PenaltyPoint> {
        self.iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::PenaltySample {
                    node: n,
                    peer: p,
                    prefix: pfx,
                    value,
                    charge,
                    suppressed,
                } if n == node && p == peer && pfx == prefix => Some(PenaltyPoint {
                    at: e.at,
                    value,
                    charge,
                    suppressed,
                }),
                _ => None,
            })
            .collect()
    }

    /// Noisy and silent reuse counts.
    pub fn reuse_counts(&self) -> (usize, usize) {
        let mut noisy = 0;
        let mut silent = 0;
        for e in self.iter() {
            if let TraceEventKind::Reused { noisy: n, .. } = e.kind {
                if n {
                    noisy += 1;
                } else {
                    silent += 1;
                }
            }
        }
        (noisy, silent)
    }

    /// Number of distinct (node, peer) entries that were ever
    /// suppressed.
    pub fn ever_suppressed_entries(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for e in self.iter() {
            if let TraceEventKind::Suppressed { node, peer, prefix } = e.kind {
                set.insert((node, peer, prefix));
            }
        }
        set.len()
    }

    /// Maximum penalty value ever sampled anywhere in the network.
    pub fn peak_penalty(&self) -> f64 {
        self.iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::PenaltySample { value, .. } => Some(value),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// The decoding iterator behind [`Trace::iter`].
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    /// The undecoded rest of the stream.
    words: &'a [u32],
    /// Time of the last decoded record, in microseconds.
    at: u64,
    /// Records left in `words`.
    remaining: usize,
}

impl TraceIter<'_> {
    /// The stream's next `N` words.
    fn take<const N: usize>(&mut self) -> [u32; N] {
        let (words, rest) = self
            .words
            .split_first_chunk()
            .expect("the stream holds whole records");
        self.words = rest;
        *words
    }
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.remaining = self.remaining.checked_sub(1)?;
        let [head] = self.take();
        self.at = match head >> GAP_SHIFT {
            ESCAPE => join(self.take()),
            gap => self.at + u64::from(gap),
        };
        let flag = head & FLAG != 0;
        let kind = match head & TAG {
            FLAP => {
                let [prefix] = self.take();
                TraceEventKind::OriginFlap { prefix, up: flag }
            }
            LINK_FLAP => {
                let [a, b] = self.take();
                TraceEventKind::LinkFlap { a, b, up: flag }
            }
            SENT => {
                let [from, to] = self.take();
                TraceEventKind::UpdateSent {
                    from,
                    to,
                    withdrawal: flag,
                }
            }
            RECEIVED => {
                let [from, to] = self.take();
                TraceEventKind::UpdateReceived {
                    from,
                    to,
                    withdrawal: flag,
                }
            }
            BEST => {
                let [node, path_len] = self.take();
                TraceEventKind::BestRouteChanged {
                    node,
                    unreachable: flag,
                    path_len,
                }
            }
            SUPPRESSED => {
                let [node, peer, prefix] = self.take();
                TraceEventKind::Suppressed { node, peer, prefix }
            }
            REUSED => {
                let [node, peer, prefix] = self.take();
                TraceEventKind::Reused {
                    node,
                    peer,
                    prefix,
                    noisy: flag,
                }
            }
            tag => {
                debug_assert_eq!(tag, PENALTY);
                let [node, peer, prefix, v0, v1, c0, c1] = self.take();
                TraceEventKind::PenaltySample {
                    node,
                    peer,
                    prefix,
                    value: f64::from_bits(join([v0, v1])),
                    charge: f64::from_bits(join([c0, c1])),
                    suppressed: flag,
                }
            }
        };
        Some(TraceEvent::new(SimTime::from_micros(self.at), kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        tr.record(
            t(0),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: false,
            },
        );
        tr.record(
            t(1),
            TraceEventKind::UpdateSent {
                from: 0,
                to: 1,
                withdrawal: true,
            },
        );
        tr.record(
            t(2),
            TraceEventKind::UpdateReceived {
                from: 0,
                to: 1,
                withdrawal: true,
            },
        );
        tr.record(
            t(60),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: true,
            },
        );
        tr.record(
            t(61),
            TraceEventKind::UpdateSent {
                from: 0,
                to: 1,
                withdrawal: false,
            },
        );
        tr.record(
            t(63),
            TraceEventKind::UpdateReceived {
                from: 0,
                to: 1,
                withdrawal: false,
            },
        );
        tr.record(
            t(64),
            TraceEventKind::Suppressed {
                node: 1,
                peer: 0,
                prefix: 0,
            },
        );
        tr.record(
            t(900),
            TraceEventKind::Reused {
                node: 1,
                peer: 0,
                prefix: 0,
                noisy: true,
            },
        );
        tr.record(
            t(901),
            TraceEventKind::UpdateSent {
                from: 1,
                to: 0,
                withdrawal: false,
            },
        );
        tr.record(
            t(903),
            TraceEventKind::UpdateReceived {
                from: 1,
                to: 0,
                withdrawal: false,
            },
        );
        tr
    }

    #[test]
    fn metric_anchors() {
        let tr = sample_trace();
        assert_eq!(tr.first_flap_at(), Some(t(0)));
        assert_eq!(tr.final_announcement_at(), Some(t(60)));
        assert_eq!(tr.last_update_at(), Some(t(903)));
    }

    #[test]
    fn message_count_counts_received_since_first_flap() {
        let tr = sample_trace();
        assert_eq!(tr.message_count(), 3);
    }

    #[test]
    fn convergence_time_from_final_announcement() {
        let tr = sample_trace();
        assert_eq!(tr.convergence_time(), SimDuration::from_secs(843));
    }

    #[test]
    fn convergence_time_zero_without_flaps() {
        let tr = Trace::new();
        assert_eq!(tr.convergence_time(), SimDuration::ZERO);
    }

    #[test]
    fn damped_link_series_steps() {
        let tr = sample_trace();
        let s = tr.damped_link_series();
        assert_eq!(s.value_at(t(63)), 0);
        assert_eq!(s.value_at(t(64)), 1);
        assert_eq!(s.value_at(t(500)), 1);
        assert_eq!(s.value_at(t(900)), 0);
        assert_eq!(s.max_value(), 1);
    }

    #[test]
    fn in_flight_series_balances() {
        let tr = sample_trace();
        let s = tr.in_flight_series();
        assert_eq!(s.value_at(t(1)), 1);
        assert_eq!(s.value_at(t(2)), 0);
        assert_eq!(s.value_at(t(902)), 1);
        assert_eq!(s.value_at(t(903)), 0);
    }

    #[test]
    fn reuse_counts_split() {
        let tr = sample_trace();
        assert_eq!(tr.reuse_counts(), (1, 0));
    }

    #[test]
    fn ever_suppressed_entries_dedupes() {
        let mut tr = sample_trace();
        tr.record(
            t(1000),
            TraceEventKind::Suppressed {
                node: 1,
                peer: 0,
                prefix: 0,
            },
        );
        assert_eq!(tr.ever_suppressed_entries(), 1);
    }

    #[test]
    fn penalty_samples_filtered_per_entry() {
        let mut tr = Trace::new();
        tr.record(
            t(5),
            TraceEventKind::PenaltySample {
                node: 3,
                peer: 4,
                prefix: 0,
                value: 1000.0,
                charge: 1000.0,
                suppressed: false,
            },
        );
        tr.record(
            t(6),
            TraceEventKind::PenaltySample {
                node: 9,
                peer: 4,
                prefix: 0,
                value: 2500.0,
                charge: 500.0,
                suppressed: true,
            },
        );
        assert_eq!(
            tr.penalty_samples(3, 4, 0),
            vec![PenaltyPoint {
                at: t(5),
                value: 1000.0,
                charge: 1000.0,
                suppressed: false,
            }]
        );
        assert_eq!(tr.peak_penalty(), 2500.0);
    }

    /// One record of each kind at `gap` µs after the previous one, with
    /// the bytes it took.
    fn record_bytes(gap: u64) -> Vec<(&'static str, usize)> {
        let kinds = [
            (
                "flap",
                TraceEventKind::OriginFlap {
                    prefix: 7,
                    up: true,
                },
            ),
            (
                "linkflap",
                TraceEventKind::LinkFlap {
                    a: 1,
                    b: 2,
                    up: false,
                },
            ),
            (
                "sent",
                TraceEventKind::UpdateSent {
                    from: 1,
                    to: 2,
                    withdrawal: true,
                },
            ),
            (
                "recv",
                TraceEventKind::UpdateReceived {
                    from: 1,
                    to: 2,
                    withdrawal: false,
                },
            ),
            (
                "best",
                TraceEventKind::BestRouteChanged {
                    node: 3,
                    unreachable: false,
                    path_len: 4,
                },
            ),
            (
                "suppress",
                TraceEventKind::Suppressed {
                    node: 3,
                    peer: 4,
                    prefix: 0,
                },
            ),
            (
                "reuse",
                TraceEventKind::Reused {
                    node: 3,
                    peer: 4,
                    prefix: 0,
                    noisy: true,
                },
            ),
            (
                "penalty",
                TraceEventKind::PenaltySample {
                    node: 3,
                    peer: 4,
                    prefix: 0,
                    value: 1500.0,
                    charge: 1000.0,
                    suppressed: false,
                },
            ),
        ];
        let mut tr = Trace::new();
        tr.record(
            t(1),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: false,
            },
        );
        kinds
            .into_iter()
            .map(|(name, kind)| {
                let before = tr.words.len();
                let at = tr.last_at + SimDuration::from_micros(gap);
                tr.record(at, kind);
                assert_eq!(tr.iter().last().map(|e| (e.at, e.kind)), Some((at, kind)));
                (name, (tr.words.len() - before) * 4)
            })
            .collect()
    }

    #[test]
    fn record_sizes_per_kind() {
        let sizes = [
            ("flap", 8),
            ("linkflap", 12),
            ("sent", 12),
            ("recv", 12),
            ("best", 12),
            ("suppress", 16),
            ("reuse", 16),
            ("penalty", 32),
        ];
        assert_eq!(record_bytes(0), sizes);
        assert_eq!(record_bytes(u64::from(ESCAPE) - 1), sizes);
        // A gap the header cannot hold adds the 8-byte absolute time.
        let escaped = sizes.map(|(name, bytes)| (name, bytes + 8));
        assert_eq!(record_bytes(u64::from(ESCAPE)), escaped);
        assert_eq!(record_bytes(1 << 40), escaped);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_recording_panics() {
        let mut tr = Trace::new();
        tr.record(
            t(10),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: false,
            },
        );
        tr.record(
            t(5),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: true,
            },
        );
    }
}
