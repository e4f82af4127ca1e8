//! A socket's deadlines in one word each.
//!
//! A [`Deadline`] is an absolute simulation time in nanoseconds, or
//! unarmed. Unarmed is `u64::MAX`, a value no deadline takes: every
//! deadline is an arming instant plus a timeout, and the clock would have
//! to run for 584 years to reach it. So a deadline is 8 B where an
//! `Option<u64>` was 16, and a socket's five are 40 B smaller.

/// One deadline: armed at an instant, or unarmed. Unarmed orders after
/// every armed instant, so the earliest of several is their `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(u64);

impl Deadline {
    /// No deadline.
    pub const UNARMED: Deadline = Deadline(u64::MAX);

    /// Armed at `at`. `at` is never the unarmed mark (see the module doc).
    pub(crate) const fn at(at: u64) -> Deadline {
        debug_assert!(at != u64::MAX, "a deadline at the unarmed mark");
        Deadline(at)
    }

    /// Armed at `at`, or `None` for the unarmed mark, which no armed
    /// deadline holds: a decoder refuses it.
    pub fn armed(at: u64) -> Option<Deadline> {
        (at != u64::MAX).then_some(Deadline(at))
    }

    /// The instant, if armed.
    pub fn get(self) -> Option<u64> {
        (self != Deadline::UNARMED).then_some(self.0)
    }

    pub fn is_some(self) -> bool {
        self != Deadline::UNARMED
    }

    pub fn is_none(self) -> bool {
        self == Deadline::UNARMED
    }

    /// Armed, and due at `now`.
    pub(crate) fn due(self, now: u64) -> bool {
        self.is_some() && self.0 <= now
    }

    /// Disarm it if it is due at `now`; returns whether it was.
    pub(crate) fn take_due(&mut self, now: u64) -> bool {
        let due = self.due(now);
        if due {
            *self = Deadline::UNARMED;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_is_the_one_value_no_deadline_takes() {
        assert_eq!(std::mem::size_of::<Deadline>(), 8);
        assert_eq!(Deadline::armed(u64::MAX), None);
        for at in [0, 1, u64::MAX - 1] {
            let d = Deadline::armed(at).unwrap();
            assert_eq!((d.get(), d.is_some(), d.is_none()), (Some(at), true, false));
            assert!(d < Deadline::UNARMED, "unarmed orders last");
        }
        assert_eq!(Deadline::UNARMED.get(), None);
        assert!(Deadline::UNARMED.is_none());
    }

    #[test]
    fn take_due_disarms_only_when_due() {
        let mut d = Deadline::at(10);
        assert!(!d.take_due(9));
        assert_eq!(d.get(), Some(10));
        assert!(d.take_due(10));
        assert!(d.is_none());
        assert!(
            !d.take_due(u64::MAX - 1),
            "an unarmed deadline is never due"
        );
    }
}
