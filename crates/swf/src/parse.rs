//! Tolerant SWF parser.
//!
//! Real archive traces contain oddities (floating-point processor counts,
//! stray whitespace, short lines in damaged logs). The parser accepts any
//! whitespace separation, parses integers through `f64` when needed, and can
//! run in *lenient* mode (skip malformed lines, the archive-recommended
//! behaviour) or *strict* mode (error out, used by our tests).

use crate::error::SwfError;
use crate::header::SwfHeader;
use crate::record::{JobStatus, SwfJob};
use std::io::BufRead;

/// A parsed trace: header plus job records in file order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub header: SwfHeader,
    pub jobs: Vec<SwfJob>,
}

impl Trace {
    pub fn new(header: SwfHeader, jobs: Vec<SwfJob>) -> Self {
        Trace { header, jobs }
    }

    /// Number of job records.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sorts records by submit time (stable), as replaying requires.
    pub(crate) fn sort_by_submit(&mut self) {
        self.jobs.sort_by_key(|j| j.submit);
    }
}

fn parse_i64(tok: &str) -> Option<i64> {
    if let Ok(v) = tok.parse::<i64>() {
        return Some(v);
    }
    // Some archive traces write integer fields as floats ("32.0").
    tok.parse::<f64>().ok().map(|f| f.round() as i64)
}

fn parse_f64(tok: &str) -> Option<f64> {
    tok.parse::<f64>().ok()
}

/// Parses a single 18-field data line. `line_no` is only used for errors.
pub(crate) fn parse_line(line: &str, line_no: usize) -> Result<SwfJob, SwfError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() < 18 {
        return Err(SwfError::FieldCount {
            line: line_no,
            found: toks.len(),
        });
    }
    let int = |idx: usize| -> Result<i64, SwfError> {
        parse_i64(toks[idx]).ok_or_else(|| SwfError::BadField {
            line: line_no,
            field: idx + 1,
            value: toks[idx].to_string(),
        })
    };
    let flt = |idx: usize| -> Result<f64, SwfError> {
        parse_f64(toks[idx]).ok_or_else(|| SwfError::BadField {
            line: line_no,
            field: idx + 1,
            value: toks[idx].to_string(),
        })
    };

    Ok(SwfJob {
        job_id: int(0)?.max(0) as u64,
        submit: int(1)?,
        wait: int(2)?,
        run_time: int(3)?,
        used_procs: int(4)?,
        avg_cpu_time: flt(5)?,
        used_mem: flt(6)?,
        req_procs: int(7)?,
        req_time: int(8)?,
        req_mem: flt(9)?,
        status: JobStatus::from_code(int(10)?),
        user: int(11)?,
        group: int(12)?,
        app: int(13)?,
        queue: int(14)?,
        partition: int(15)?,
        preceding_job: int(16)?,
        think_time: int(17)?,
    })
}

/// Parses an SWF document from any buffered reader.
///
/// With `lenient == true`, malformed data lines are skipped (counted in the
/// returned tuple); with `false` the first malformed line aborts the parse.
pub(crate) fn parse_reader<R: BufRead>(
    reader: R,
    lenient: bool,
) -> Result<(Trace, usize), SwfError> {
    let mut header = SwfHeader::new();
    let mut jobs = Vec::new();
    let mut skipped = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix(';') {
            header.add_line(rest);
            continue;
        }
        match parse_line(trimmed, idx + 1) {
            Ok(job) => jobs.push(job),
            Err(e) if lenient => {
                let _ = e;
                skipped += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((Trace { header, jobs }, skipped))
}

/// Parses an SWF document from a string (strict mode).
pub fn parse_str(input: &str) -> Result<Trace, SwfError> {
    parse_reader(input.as_bytes(), false).map(|(t, _)| t)
}

/// Reads an SWF file from disk in lenient mode.
pub fn parse_file(path: &std::path::Path) -> Result<(Trace, usize), SwfError> {
    let file = std::fs::File::open(path)?;
    parse_reader(std::io::BufReader::new(file), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; MaxNodes: 8
; MaxProcs: 64
1 0 10 100 8 -1 -1 8 200 -1 1 3 1 5 1 1 -1 -1
2 5 -1 50 16 99.5 2048 16 60 4096 0 4 2 6 1 1 1 30
";

    #[test]
    fn parses_sample() {
        let t = parse_str(SAMPLE).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.header.max_nodes(), Some(8));
        assert_eq!(t.header.max_procs(), Some(64));
        let j = &t.jobs[0];
        assert_eq!(j.job_id, 1);
        assert_eq!(j.wait, 10);
        assert_eq!(j.run_time, 100);
        assert_eq!(j.status, JobStatus::Completed);
        let j2 = &t.jobs[1];
        assert_eq!(j2.avg_cpu_time, 99.5);
        assert_eq!(j2.status, JobStatus::Failed);
        assert_eq!(j2.think_time, 30);
    }

    #[test]
    fn short_line_errors_in_strict_mode() {
        let bad = "1 2 3\n";
        match parse_str(bad) {
            Err(SwfError::FieldCount { line: 1, found: 3 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_skips_bad_lines() {
        let mixed = format!("{SAMPLE}not a data line at all\n");
        let (t, skipped) = parse_reader(mixed.as_bytes(), true).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn float_shaped_integers_accepted() {
        let line = "3 0.0 10.0 100.0 8.0 -1 -1 8 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
        let j = parse_line(line, 1).unwrap();
        assert_eq!(j.used_procs, 8);
        assert_eq!(j.run_time, 100);
    }

    #[test]
    fn non_numeric_field_reports_position() {
        let line = "1 0 10 abc 8 -1 -1 8 200 -1 1 -1 -1 -1 -1 -1 -1 -1";
        match parse_line(line, 7) {
            Err(SwfError::BadField { line: 7, field: 4, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn sort_by_submit_is_stable() {
        let mut t = parse_str(SAMPLE).unwrap();
        t.jobs[0].submit = 100;
        t.sort_by_submit();
        assert_eq!(t.jobs[0].job_id, 2);
    }
}
