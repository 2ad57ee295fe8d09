//! Time constants and helpers.
//!
//! All timestamps in the workspace are `i64` seconds relative to the trace
//! epoch (the instant the trace begins). Synthetic months are fixed 30-day
//! windows, which keeps month bucketing deterministic and avoids calendar
//! arithmetic the paper's analysis does not depend on.

/// One minute in seconds.
pub const MINUTE: i64 = 60;
/// One hour in seconds.
pub const HOUR: i64 = 60 * MINUTE;
/// One day in seconds.
pub const DAY: i64 = 24 * HOUR;
/// One week in seconds.
pub const WEEK: i64 = 7 * DAY;
/// One synthetic month (30 days) in seconds.
pub const MONTH: i64 = 30 * DAY;

/// Index of the synthetic month containing `t` (month 0 starts at the epoch).
///
/// Negative timestamps (before the epoch) land in negative month indices via
/// euclidean division so the mapping stays monotone.
#[inline]
pub fn month_of(t: i64) -> i64 {
    t.div_euclid(MONTH)
}

/// Seconds elapsed since the start of the day containing `t`.
#[inline]
pub fn time_of_day(t: i64) -> i64 {
    t.rem_euclid(DAY)
}

/// Day-of-week index in `0..7` (day 0 is the epoch's weekday).
#[inline]
pub fn day_of_week(t: i64) -> i64 {
    t.div_euclid(DAY).rem_euclid(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_bucketing_is_monotone() {
        assert_eq!(month_of(0), 0);
        assert_eq!(month_of(MONTH - 1), 0);
        assert_eq!(month_of(MONTH), 1);
        assert_eq!(month_of(-1), -1);
    }

    #[test]
    fn time_of_day_wraps() {
        assert_eq!(time_of_day(0), 0);
        assert_eq!(time_of_day(DAY + 5), 5);
        assert_eq!(time_of_day(-1), DAY - 1);
    }

    #[test]
    fn day_of_week_cycles() {
        assert_eq!(day_of_week(0), 0);
        assert_eq!(day_of_week(6 * DAY), 6);
        assert_eq!(day_of_week(7 * DAY), 0);
    }
}
