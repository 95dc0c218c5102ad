//! `trace diff`: compare two seeded runs stage-by-stage.
//!
//! The canonical-lines export ([`canonical_lines`]) is a total, byte-stable
//! encoding of a drained event stream, so comparing two runs reduces to
//! comparing text line-by-line. A clean diff turns the repo's "seeded
//! replay is byte-identical" guarantee into a checkable artifact: same
//! seed → same events in the same order, across tracing on/off, shard
//! counts, and batch shapes.
//!
//! [`canonical_lines`]: crate::export::canonical_lines

use crate::export::canonical_lines;
use crate::recorder::Event;

/// First point where two event streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Divergence {
    /// Zero-based line (event) index of the first disagreement.
    index: usize,
    /// The left run's line, if it has one at `index`.
    left: Option<String>,
    /// The right run's line, if it has one at `index`.
    right: Option<String>,
}

/// Outcome of diffing two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Events in the left run.
    left_events: usize,
    /// Events in the right run.
    right_events: usize,
    /// First divergence, or `None` when the runs are identical.
    divergence: Option<Divergence>,
}

impl TraceDiff {
    /// Whether the two runs were event-for-event identical.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }

    /// One-paragraph human description of the outcome.
    pub fn describe(&self) -> String {
        match &self.divergence {
            None => format!("identical: {} events, zero divergence", self.left_events),
            Some(d) => format!(
                "DIVERGED at event {} (left {} events, right {} events)\n  left:  {}\n  right: {}",
                d.index,
                self.left_events,
                self.right_events,
                d.left.as_deref().unwrap_or("<end of trace>"),
                d.right.as_deref().unwrap_or("<end of trace>"),
            ),
        }
    }
}

/// Diffs two canonical-lines exports line-by-line.
pub fn diff_canonical(left: &str, right: &str) -> TraceDiff {
    let l: Vec<&str> = left.lines().collect();
    let r: Vec<&str> = right.lines().collect();
    let mut divergence = None;
    for i in 0..l.len().max(r.len()) {
        let (a, b) = (l.get(i), r.get(i));
        if a != b {
            divergence = Some(Divergence {
                index: i,
                left: a.map(|s| s.to_string()),
                right: b.map(|s| s.to_string()),
            });
            break;
        }
    }
    TraceDiff { left_events: l.len(), right_events: r.len(), divergence }
}

/// Diffs two drained event streams (via their canonical encodings).
pub fn diff_events(left: &[Event], right: &[Event]) -> TraceDiff {
    diff_canonical(&canonical_lines(left), &canonical_lines(right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Stage, Track};
    use corm_sim_core::time::{SimDuration, SimTime};

    fn ev(us: u64) -> Event {
        Event {
            start: SimTime::from_micros(us),
            dur: SimDuration::from_micros(1),
            track: Track::Client,
            stage: Stage::Verb,
            op: us,
        }
    }

    #[test]
    fn identical_streams_diff_clean() {
        let a = vec![ev(1), ev(2), ev(3)];
        let d = diff_events(&a, &a.clone());
        assert!(d.is_clean());
        assert_eq!(d.left_events, 3);
        assert!(d.describe().contains("zero divergence"));
    }

    #[test]
    fn order_divergence_is_flagged_at_first_index() {
        let a = vec![ev(1), ev(2), ev(3)];
        let b = vec![ev(1), ev(3), ev(2)];
        let d = diff_events(&a, &b);
        assert!(d.describe().contains("DIVERGED at event 1"));
        let div = d.divergence.expect("diverged");
        assert_eq!(div.index, 1);
        assert!(div.left.unwrap().starts_with("client verb 2"));
    }

    #[test]
    fn length_divergence_is_flagged_past_shorter_run() {
        let a = vec![ev(1), ev(2)];
        let b = vec![ev(1)];
        let d = diff_events(&a, &b);
        let div = d.divergence.expect("diverged");
        assert_eq!(div.index, 1);
        assert_eq!(div.right, None);
    }
}
