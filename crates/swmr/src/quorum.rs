//! Quorum sizes and counting votes toward a quorum.
//!
//! The paper's resilience bounds — `n ≥ 2·f_P + 1` Byzantine processes,
//! `m ≥ 2·f_M + 1` memories — are one arithmetic, stated here once:
//! [`majority`] is the smallest set any two of which intersect, and
//! [`tolerated`] is the `f` such a deployment survives.

/// The majority quorum of `n` voters: `⌊n/2⌋ + 1`.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// The failures `n` voters tolerate with a majority left standing: the
/// largest `f` with `n ≥ 2f + 1`, and 0 for `n = 0`.
pub fn tolerated(n: usize) -> usize {
    n.saturating_sub(1) / 2
}

/// Progress of a yes/no vote toward a threshold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumStatus {
    /// Not yet decided either way.
    Pending,
    /// The threshold of yes votes was reached.
    Reached,
    /// Enough no votes arrived that the threshold can never be reached.
    Impossible,
}

/// Tracks yes/no votes from `total` voters toward `needed` yes votes.
///
/// Voters that never answer (crashed memories, crashed processes) simply
/// never vote; the tracker reports [`QuorumStatus::Impossible`] only when the
/// *no* votes alone preclude success, i.e. `no > total - needed`.
#[derive(Clone, Debug)]
pub struct QuorumTracker {
    needed: usize,
    total: usize,
    yes: usize,
    no: usize,
}

impl QuorumTracker {
    /// A tracker requiring `needed` of `total` yes votes.
    ///
    /// # Panics
    ///
    /// Panics if `needed > total` (such a quorum could never be reached).
    pub fn new(needed: usize, total: usize) -> QuorumTracker {
        assert!(
            needed <= total,
            "quorum {needed} impossible with {total} voters"
        );
        QuorumTracker {
            needed,
            total,
            yes: 0,
            no: 0,
        }
    }

    /// A majority-of-`total` tracker.
    pub fn majority(total: usize) -> QuorumTracker {
        QuorumTracker::new(majority(total), total)
    }

    /// Registers a yes vote and returns the new status.
    pub fn vote_yes(&mut self) -> QuorumStatus {
        self.yes += 1;
        debug_assert!(self.yes + self.no <= self.total, "more votes than voters");
        self.status()
    }

    /// Registers a no vote and returns the new status.
    pub fn vote_no(&mut self) -> QuorumStatus {
        self.no += 1;
        debug_assert!(self.yes + self.no <= self.total, "more votes than voters");
        self.status()
    }

    /// Current status.
    pub fn status(&self) -> QuorumStatus {
        if self.yes >= self.needed {
            QuorumStatus::Reached
        } else if self.no > self.total - self.needed {
            QuorumStatus::Impossible
        } else {
            QuorumStatus::Pending
        }
    }

    /// Yes votes so far.
    pub fn yes_count(&self) -> usize {
        self.yes
    }

    /// No votes so far.
    pub fn no_count(&self) -> usize {
        self.no
    }

    /// Total responses so far.
    pub fn responses(&self) -> usize {
        self.yes + self.no
    }

    /// The yes threshold.
    pub fn needed(&self) -> usize {
        self.needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one statement of the quorum sizes against every spelling it
    /// replaced across the workspace.
    #[test]
    fn quorum_sizes_match_every_spelling_they_replace() {
        for n in 0..=65usize {
            let (q, f) = (majority(n), tolerated(n));
            assert_eq!(q, n / 2 + 1, "a majority, n = {n}");
            assert_eq!(f, (n.max(1) - 1) / 2, "the harness's f_M, n = {n}");
            if n >= 1 {
                assert_eq!(QuorumTracker::majority(n).needed(), q);
                assert_eq!(f, (n - 1) / 2, "a group's f, n = {n}");
                assert!(
                    (2 * f + 1..2 * f + 3).contains(&n),
                    "largest f with n ≥ 2f + 1"
                );
                assert!(n - f >= q, "n − f set-ups are a majority, n = {n}");
                assert!(2 * q > n, "two majorities meet, n = {n}");
            }
        }
        assert_eq!(tolerated(0), 0, "the harness's `.max(1)` guard");
    }

    #[test]
    fn majority_sizes() {
        assert_eq!(QuorumTracker::majority(3).needed(), 2);
        assert_eq!(QuorumTracker::majority(4).needed(), 3);
        assert_eq!(QuorumTracker::majority(5).needed(), 3);
        assert_eq!(QuorumTracker::majority(1).needed(), 1);
    }

    #[test]
    fn reaches_on_yes() {
        let mut q = QuorumTracker::majority(3);
        assert_eq!(q.vote_yes(), QuorumStatus::Pending);
        assert_eq!(q.vote_yes(), QuorumStatus::Reached);
    }

    #[test]
    fn impossible_on_too_many_no() {
        let mut q = QuorumTracker::majority(3); // needs 2 of 3
        assert_eq!(q.vote_no(), QuorumStatus::Pending);
        assert_eq!(q.vote_no(), QuorumStatus::Impossible);
    }

    #[test]
    fn silent_voters_keep_it_pending() {
        let mut q = QuorumTracker::new(2, 5);
        assert_eq!(q.vote_yes(), QuorumStatus::Pending);
        assert_eq!(q.vote_no(), QuorumStatus::Pending);
        assert_eq!(q.status(), QuorumStatus::Pending);
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn invalid_threshold_panics() {
        let _ = QuorumTracker::new(4, 3);
    }
}
