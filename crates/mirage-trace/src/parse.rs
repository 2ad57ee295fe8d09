//! Parsing real Slurm accounting dumps.
//!
//! The paper collects `JobID, JobName, UserID, SubmitTime, StartTime,
//! EndTime, Timelimit, NumNodes` from the Slurm database (§3). This module
//! parses the pipe-separated output of
//!
//! ```text
//! sacct -a -P -o JobID,JobName,UID,Submit,Start,End,Timelimit,NNodes
//! ```
//!
//! so a site with real traces can feed them to Mirage directly instead of
//! using the synthetic generator. Timestamps are ISO-8601 without zone
//! (`2021-02-03T04:05:06`, as sacct prints); `Timelimit` uses Slurm's
//! `[days-]HH:MM[:SS]` form. Unstarted/running records (`Unknown`,
//! `None`) yield `start = end = None`.

use std::ops::RangeInclusive;

use crate::job::JobRecord;
use crate::time::{DAY, HOUR, MINUTE};

/// A parse failure with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Raw parsed row before epoch re-anchoring:
/// `(id, name, user, submit, start, end, timelimit, nodes)`.
type RawRow = (u64, String, u32, i64, Option<i64>, Option<i64>, i64, u32);

/// Parses a whole sacct dump. A header line (starting with `JobID`) is
/// skipped; sub-job step lines (`1234.batch`, `1234.0`) are ignored, as
/// the paper's analysis works on job-level records.
///
/// Timestamps are converted to seconds relative to the earliest submit in
/// the file (the trace epoch), matching the synthetic generator's clock.
pub fn parse_sacct(input: &str) -> Result<Vec<JobRecord>, ParseError> {
    let mut raw: Vec<RawRow> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("JobID") {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() < 8 {
            return Err(ParseError {
                line: lineno + 1,
                message: format!("expected 8 pipe-separated fields, got {}", fields.len()),
            });
        }
        if fields[0].contains('.') {
            continue; // job step (1234.batch), not a job
        }
        let err = |message: String| ParseError {
            line: lineno + 1,
            message,
        };
        let id: u64 = fields[0]
            .split('_')
            .next()
            .unwrap_or(fields[0])
            .parse()
            .map_err(|_| err(format!("bad JobID {:?}", fields[0])))?;
        let name = fields[1].to_string();
        let user: u32 = fields[2]
            .parse()
            .map_err(|_| err(format!("bad UID {:?}", fields[2])))?;
        let submit =
            parse_timestamp(fields[3]).ok_or_else(|| err(format!("bad Submit {:?}", fields[3])))?;
        let start = parse_optional_timestamp(fields[4])
            .ok_or_else(|| err(format!("bad Start {:?}", fields[4])))?;
        let end = parse_optional_timestamp(fields[5])
            .ok_or_else(|| err(format!("bad End {:?}", fields[5])))?;
        let timelimit = parse_timelimit(fields[6])
            .ok_or_else(|| err(format!("bad Timelimit {:?}", fields[6])))?;
        let nodes: u32 = fields[7]
            .parse()
            .map_err(|_| err(format!("bad NNodes {:?}", fields[7])))?;
        raw.push((id, name, user, submit, start, end, timelimit, nodes));
    }
    let epoch = raw.iter().map(|r| r.3).min().unwrap_or(0);
    let jobs = raw
        .into_iter()
        .map(|(id, name, user, submit, start, end, timelimit, nodes)| {
            let runtime = match (start, end) {
                (Some(s), Some(e)) => (e - s).max(1),
                _ => timelimit, // still running / never started: assume limit
            };
            let mut j = JobRecord::new(id, name, user, submit - epoch, nodes, timelimit, runtime);
            j.start = start.map(|s| s - epoch);
            j.end = end.map(|e| e - epoch);
            j
        })
        .collect();
    Ok(jobs)
}

/// `2021-02-03T04:05:06` → Unix-ish seconds (proleptic, zone-less). Only
/// differences matter, so days are counted with a simple Gregorian rule.
/// Years run 1..=9999, days to the month's length (leap years Gregorian),
/// hours 0..=23, minutes 0..=59 and seconds 0..=60 (a leap second), so
/// every time is far inside the 2^53 s within which the scheduling pass's
/// `f64` age is exact; anything else is `None`.
fn parse_timestamp(s: &str) -> Option<i64> {
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let year = bounded(dp.next()?, 1..=9999)?;
    let month = bounded(dp.next()?, 1..=12)?;
    let day = bounded(dp.next()?, 1..=days_in_month(year, month))?;
    let mut tp = time.split(':');
    let h = bounded(tp.next()?, 0..=23)?;
    let m = bounded(tp.next()?, 0..=59)?;
    let sec = bounded(tp.next().unwrap_or("0"), 0..=60)?;
    Some(days_from_epoch(year, month, day) * DAY + h * HOUR + m * MINUTE + sec)
}

/// `s` parsed as a number inside `range`.
fn bounded<T: std::str::FromStr + PartialOrd>(s: &str, range: RangeInclusive<T>) -> Option<T> {
    s.parse().ok().filter(|v| range.contains(v))
}

/// Length of `month` in `year`: a leap year is divisible by 4, except a
/// century not divisible by 400.
fn days_in_month(year: i64, month: u32) -> i64 {
    match month {
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

/// `Some(None)` for a job that has not started (or ended), `None` for a
/// malformed time.
fn parse_optional_timestamp(s: &str) -> Option<Option<i64>> {
    match s {
        "Unknown" | "None" | "" => Some(None),
        _ => parse_timestamp(s).map(Some),
    }
}

/// Days since 1970-01-01 (civil-from-days algorithm, Howard Hinnant).
fn days_from_epoch(y: i64, m: u32, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from((m + 9) % 12);
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Slurm timelimit: `HH:MM`, `HH:MM:SS`, `D-HH:MM[:SS]`, `UNLIMITED`.
/// Every part is non-negative and the total must fit an `i64`.
fn parse_timelimit(s: &str) -> Option<i64> {
    if s.eq_ignore_ascii_case("UNLIMITED") {
        return Some(365 * DAY);
    }
    let part = |p: &str| bounded(p, 0..=i64::MAX);
    let (days, rest) = match s.split_once('-') {
        Some((d, rest)) => (part(d)?, rest),
        None => (0, s),
    };
    let parts: Vec<&str> = rest.split(':').collect();
    let (h, m, sec) = match parts.as_slice() {
        [h, m] => (part(h)?, part(m)?, 0),
        [h, m, s2] => (part(h)?, part(m)?, part(s2)?),
        _ => return None,
    };
    days.checked_mul(DAY)?
        .checked_add(h.checked_mul(HOUR)?)?
        .checked_add(m.checked_mul(MINUTE)?)?
        .checked_add(sec)
}

/// Serializes jobs back to the sacct pipe format (relative timestamps are
/// rendered from the epoch 2020-01-01). Round-trips with [`parse_sacct`]
/// up to timestamp re-anchoring.
pub fn to_sacct(jobs: &[JobRecord]) -> String {
    let mut out = String::from("JobID|JobName|UID|Submit|Start|End|Timelimit|NNodes\n");
    for j in jobs {
        let ts = |t: i64| format_timestamp(t + days_from_epoch(2020, 1, 1) * DAY);
        let opt = |t: Option<i64>| t.map(ts).unwrap_or_else(|| "Unknown".into());
        out.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{}|{}\n",
            j.id,
            j.name,
            j.user,
            ts(j.submit),
            opt(j.start),
            opt(j.end),
            format_timelimit(j.timelimit),
            j.nodes
        ));
    }
    out
}

fn format_timestamp(secs: i64) -> String {
    // civil-from-days inverse (Howard Hinnant).
    let z = secs.div_euclid(DAY) + 719_468;
    let tod = secs.rem_euclid(DAY);
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
        y,
        m,
        d,
        tod / HOUR,
        (tod % HOUR) / MINUTE,
        tod % MINUTE
    )
}

fn format_timelimit(secs: i64) -> String {
    let days = secs / DAY;
    let h = (secs % DAY) / HOUR;
    let m = (secs % HOUR) / MINUTE;
    let s = secs % MINUTE;
    if days > 0 {
        format!("{days}-{h:02}:{m:02}:{s:02}")
    } else {
        format!("{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
JobID|JobName|UID|Submit|Start|End|Timelimit|NNodes
1001|bert_pretrain_0|501|2021-02-01T10:00:00|2021-02-01T12:30:00|2021-02-03T12:30:00|2-00:00:00|8
1001.batch|batch|501|2021-02-01T10:00:00|2021-02-01T12:30:00|2021-02-03T12:30:00|2-00:00:00|8
1002|infer_svc|502|2021-02-01T11:00:00|Unknown|Unknown|12:00:00|1
1003|short|503|2021-02-01T11:30:00|2021-02-01T11:31:00|2021-02-01T11:31:25|01:00:00|1
";

    #[test]
    fn parses_jobs_and_skips_steps() {
        let jobs = parse_sacct(SAMPLE).unwrap();
        assert_eq!(jobs.len(), 3, "step line must be skipped");
        assert_eq!(jobs[0].id, 1001);
        assert_eq!(jobs[0].nodes, 8);
        assert_eq!(jobs[0].timelimit, 2 * DAY);
        assert_eq!(jobs[0].runtime, 2 * DAY);
    }

    #[test]
    fn timestamps_are_relative_to_earliest_submit() {
        let jobs = parse_sacct(SAMPLE).unwrap();
        assert_eq!(jobs[0].submit, 0, "earliest submit is the epoch");
        assert_eq!(jobs[1].submit, HOUR);
        assert_eq!(jobs[2].submit, HOUR + 30 * MINUTE);
        assert_eq!(jobs[0].start, Some(2 * HOUR + 30 * MINUTE));
    }

    #[test]
    fn pending_jobs_have_no_schedule() {
        let jobs = parse_sacct(SAMPLE).unwrap();
        assert_eq!(jobs[1].start, None);
        assert_eq!(jobs[1].end, None);
        // Runtime assumed at the limit for unstarted records.
        assert_eq!(jobs[1].runtime, 12 * HOUR);
    }

    #[test]
    fn short_job_runtime_from_start_end() {
        let jobs = parse_sacct(SAMPLE).unwrap();
        assert_eq!(jobs[2].runtime, 25);
        assert!(jobs[2].is_short());
    }

    #[test]
    fn timelimit_forms() {
        assert_eq!(parse_timelimit("12:00"), Some(12 * HOUR));
        assert_eq!(parse_timelimit("01:30:15"), Some(HOUR + 30 * MINUTE + 15));
        assert_eq!(parse_timelimit("2-00:00:00"), Some(2 * DAY));
        assert_eq!(parse_timelimit("UNLIMITED"), Some(365 * DAY));
        assert_eq!(parse_timelimit("nope"), None);
    }

    #[test]
    fn bad_lines_report_position() {
        let err = parse_sacct("1|a|x|2021-01-01T00:00:00|Unknown|Unknown|01:00|1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("UID"));
        let err = parse_sacct("1|a|5|bad|Unknown|Unknown|01:00|1\n").unwrap_err();
        assert!(err.message.contains("Submit"));
        let err = parse_sacct("only|three|fields\n").unwrap_err();
        assert!(err.message.contains("8 pipe-separated"));
    }

    #[test]
    fn out_of_range_times_are_errors_naming_the_field() {
        let line = |submit: &str, start: &str, limit: &str| {
            format!("1|a|5|{submit}|{start}|Unknown|{limit}|1\n")
        };
        let ok = "2021-02-03T04:05:06";
        for (submit, start, limit, field) in [
            (
                "2021-02-03T99999999999999999:00:00",
                "Unknown",
                "01:00",
                "Submit",
            ),
            ("9999999999-02-03T04:05:06", "Unknown", "01:00", "Submit"),
            ("0-02-03T04:05:06", "Unknown", "01:00", "Submit"),
            ("2021-02-03T24:00:00", "Unknown", "01:00", "Submit"),
            ("2021-02-03T04:60:00", "Unknown", "01:00", "Submit"),
            ("2021-02-03T04:05:61", "Unknown", "01:00", "Submit"),
            ("2021-02-03T-1:05:06", "Unknown", "01:00", "Submit"),
            (ok, "2021-02-03T04:05:99", "01:00", "Start"),
            (ok, "garbage", "01:00", "Start"),
            (ok, "Unknown", "1--5:00", "Timelimit"),
            (ok, "Unknown", "01:-5", "Timelimit"),
            (ok, "Unknown", "99999999999999999-00:00", "Timelimit"),
            (ok, "Unknown", "9223372036854775807:00", "Timelimit"),
        ] {
            let err = parse_sacct(&line(submit, start, limit)).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains(field), "{field}: {}", err.message);
        }
        // The bounds themselves parse.
        let jobs = parse_sacct(&line("9999-12-31T23:59:60", "Unknown", "0-00:00:00")).unwrap();
        assert_eq!(jobs[0].timelimit, 0);
        assert!(parse_sacct(&line("0001-01-01T00:00:00", ok, "01:00")).is_ok());
    }

    #[test]
    fn impossible_dates_are_errors_naming_the_field() {
        let line = |submit: &str, start: &str| format!("1|a|5|{submit}|{start}|Unknown|01:00|1\n");
        let ok = "2021-02-03T04:05:06";
        for date in ["2021-02-31", "2021-04-31", "2023-02-29", "1900-02-29"] {
            let t = format!("{date}T00:00:00");
            let err = parse_sacct(&line(&t, "Unknown")).unwrap_err();
            assert!(err.message.contains("Submit"), "{date}: {}", err.message);
            let err = parse_sacct(&line(ok, &t)).unwrap_err();
            assert!(err.message.contains("Start"), "{date}: {}", err.message);
        }
        // Leap days of leap years parse, one day before 1 March.
        for year in [2024, 2000] {
            let day = |md: &str| parse_timestamp(&format!("{year}-{md}T00:00:00")).unwrap();
            assert_eq!(day("03-01") - day("02-29"), DAY, "{year}");
            assert!(parse_sacct(&line(&format!("{year}-02-29T12:00:00"), ok)).is_ok());
        }
    }

    #[test]
    fn array_job_ids_take_base() {
        let line = "77_3|arr|5|2021-01-01T00:00:00|Unknown|Unknown|01:00|1\n";
        let jobs = parse_sacct(line).unwrap();
        assert_eq!(jobs[0].id, 77);
    }

    #[test]
    fn roundtrip_through_to_sacct() {
        let jobs = parse_sacct(SAMPLE).unwrap();
        let text = to_sacct(&jobs);
        let again = parse_sacct(&text).unwrap();
        assert_eq!(jobs.len(), again.len());
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.start, b.start);
            assert_eq!(a.timelimit, b.timelimit);
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn calendar_arithmetic_handles_leap_years() {
        // 2020-02-28 → 2020-03-01 is 2 days (2020 is a leap year).
        let a = parse_timestamp("2020-02-28T00:00:00").unwrap();
        let b = parse_timestamp("2020-03-01T00:00:00").unwrap();
        assert_eq!(b - a, 2 * DAY);
        // 2021 is not.
        let a = parse_timestamp("2021-02-28T00:00:00").unwrap();
        let b = parse_timestamp("2021-03-01T00:00:00").unwrap();
        assert_eq!(b - a, DAY);
    }
}
