//! Folded-stack rendering of [`timing`](crate::timing) reports — the
//! Brendan Gregg `flamegraph.pl` / inferno / speedscope input format: one
//! line per unique stack, frames joined by `;`, a space, then the value.
//! Re-exported as `timing::collapsed`.

use std::collections::BTreeMap;

use crate::timing::{FnTiming, TABLE};

/// Renders rows as collapsed stacks. Each row's stack comes from the probe
/// table and its value is its self time in integer microseconds: its total
/// minus its direct children's, clamped at zero (probes measure
/// independently, so a child can slightly exceed its nominal parent). Zero
/// values and unknown names are dropped, repeated stacks are summed, and
/// lines sort by stack, so equal rows render equal bytes.
pub fn collapsed(rows: &[FnTiming]) -> String {
    let totals: Vec<(&str, &[&str], u64)> = rows
        .iter()
        .filter_map(|r| {
            let &(name, callers) = TABLE.iter().find(|(n, _)| *n == r.name)?;
            Some((name, callers, (r.total_secs * 1e6) as u64))
        })
        .collect();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for &(name, callers, total) in &totals {
        let children: u64 = totals
            .iter()
            .filter(|(_, c, _)| c.split_last() == Some((&name, callers)))
            .map(|&(_, _, v)| v)
            .sum();
        let value = total.saturating_sub(children);
        if value > 0 {
            *folded.entry(format!("{};{name}", callers.join(";"))).or_default() += value;
        }
    }
    folded.into_iter().map(|(stack, v)| format!("{stack} {v}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, count: u64, total_secs: f64) -> FnTiming {
        FnTiming { name, count, total_secs }
    }

    #[test]
    fn folds_duplicates_and_sorts() {
        // Two job_end rows share one stack and fold into one line; the
        // dispatch stack sorts before the pass stack whatever the row order.
        let rows = vec![
            row("job_end", 2, 0.030),
            row("sched_pass", 1, 0.005),
            row("job_end", 1, 0.012),
        ];
        assert_eq!(collapsed(&rows), "sd;dispatch;job_end 42000\nsd;sched_pass 5000\n");
    }

    #[test]
    fn drops_zero_and_escapes_semicolons() {
        // Zero rows, count-only rows and unknown names render nothing.
        let rows = vec![
            row("cutoff", 1, 0.005),
            row("quota_check", 0, 0.0),
            row("trial_memo_hit", 7, 0.0),
            row("not_a_probe", 1, 1.0),
        ];
        assert_eq!(collapsed(&rows), "sd;sched_pass;backfill_trial;cutoff 5000\n");
        // Frames are the table's static names, so none needs escaping: no
        // `;` splits a frame and no space ends a stack early.
        for &(name, callers) in &TABLE {
            for frame in callers.iter().chain([&name]) {
                assert!(!frame.is_empty() && !frame.contains([';', ' ']), "{frame:?}");
            }
        }
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(collapsed(&[]), "");
        // A fresh thread's report has every row but no time in any.
        let idle = std::thread::spawn(crate::timing::report).join().unwrap();
        assert_eq!(collapsed(&idle), "");
    }
}
