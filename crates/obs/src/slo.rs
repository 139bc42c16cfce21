//! Declarative service-level objectives with multi-window burn-rate math.
//!
//! An SLO is an *objective fraction* of good events over total events
//! (e.g. "99% of waits under one hour", "99.9% of submits accepted"). The
//! error budget is the allowed bad fraction `1 - objective`; the *burn
//! rate* over a window is `bad_fraction_in_window / (1 - objective)` — 1.0
//! burns the budget exactly at the sustainable pace, 14.4 burns a 30-day
//! budget in ~2 days (the classic page-worthy threshold). Following the
//! SRE-workbook multi-window rule, [`SloStatus::breached`] fires when the
//! budget is exhausted outright or when *both* the fast and the slow
//! window burn above `BURN_PAGE_THRESHOLD` — the fast window gives
//! detection latency, the slow window de-flaps it.
//!
//! Trackers consume *cumulative* `(good, total)` counters (monotone, the
//! shape Prometheus counters and the service's histograms already have)
//! sampled on a timeline the caller owns — wall seconds in `sd-serve`,
//! virtual seconds in offline evaluation.

use std::collections::VecDeque;

/// Both burn windows above this rate ⇒ the SLO is breached (page).
pub(crate) const BURN_PAGE_THRESHOLD: f64 = 14.4;

/// Default fast / slow burn windows in seconds (5 min / 1 h).
pub(crate) const DEFAULT_FAST_WINDOW: u64 = 300;
pub(crate) const DEFAULT_SLOW_WINDOW: u64 = 3600;

/// What the objective measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Fraction of queue waits at or under `threshold` virtual seconds.
    WaitQuantile,
    /// Fraction of scheduler passes at or under `threshold` wall seconds.
    PassQuantile,
    /// Fraction of submit requests answered 2xx (429/5xx are bad).
    Availability,
}

impl SloKind {
    pub fn label(self) -> &'static str {
        match self {
            SloKind::WaitQuantile => "wait_quantile",
            SloKind::PassQuantile => "pass_quantile",
            SloKind::Availability => "availability",
        }
    }
}

/// One declared objective, parsed from a `[slo]` scenario entry or an
/// `--slo key=value` flag.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The declaration key, used as the `{slo="…"}` label value.
    pub name: String,
    pub kind: SloKind,
    /// Objective fraction of good events in `[0, 1)`.
    pub objective: f64,
    /// Threshold for the quantile kinds (seconds); 0 for availability.
    pub threshold: f64,
    pub fast_window: u64,
    pub slow_window: u64,
}

/// The declaration grammar: `key = value` with these keys.
pub const KNOWN_KEYS: [&str; 3] = ["p99_wait_seconds", "pass_duration_p95", "submit_availability"];

impl SloSpec {
    /// Parses one declaration entry. The key fixes kind and objective; the
    /// value is the threshold (quantile kinds) or the objective fraction
    /// (availability).
    pub fn parse(key: &str, value: f64) -> Result<SloSpec, String> {
        let (kind, objective, threshold) = match key {
            "p99_wait_seconds" => {
                if value <= 0.0 {
                    return Err(format!("{key} needs a positive threshold, got {value}"));
                }
                (SloKind::WaitQuantile, 0.99, value)
            }
            "pass_duration_p95" => {
                if value <= 0.0 {
                    return Err(format!("{key} needs a positive threshold, got {value}"));
                }
                (SloKind::PassQuantile, 0.95, value)
            }
            "submit_availability" => {
                if !(0.0..1.0).contains(&value) {
                    return Err(format!(
                        "{key} needs an objective fraction in [0, 1), got {value}"
                    ));
                }
                (SloKind::Availability, value, 0.0)
            }
            other => {
                return Err(format!(
                    "unknown slo `{other}` (known: {})",
                    KNOWN_KEYS.join(", ")
                ))
            }
        };
        Ok(SloSpec {
            name: key.to_string(),
            kind,
            objective,
            threshold,
            fast_window: DEFAULT_FAST_WINDOW,
            slow_window: DEFAULT_SLOW_WINDOW,
        })
    }
}

/// One cumulative sample on the tracker's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    t: u64,
    good: u64,
    total: u64,
}

/// Evaluated state of one SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub name: String,
    pub kind: SloKind,
    pub objective: f64,
    pub threshold: f64,
    pub good: u64,
    pub total: u64,
    /// All-time bad fraction (0 when no events yet).
    pub bad_fraction: f64,
    /// `1 - bad_fraction / (1 - objective)`; 1.0 = untouched budget, ≤ 0 =
    /// exhausted. May go negative (overspent).
    pub budget_remaining: f64,
    pub burn_fast: f64,
    pub burn_slow: f64,
    pub fast_window: u64,
    pub slow_window: u64,
    pub breached: bool,
}

/// Burn-rate tracker over cumulative good/total counters.
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    samples: VecDeque<Sample>,
}

impl SloTracker {
    pub fn new(spec: SloSpec) -> SloTracker {
        SloTracker { spec, samples: VecDeque::new() }
    }

    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records a cumulative `(good, total)` observation at time `t` seconds
    /// (monotone in `t`; counters clamp monotone defensively). Samples
    /// older than the slow window (plus one anchor) are discarded.
    pub fn record(&mut self, t: u64, good: u64, total: u64) {
        let (good, total) = match self.samples.back() {
            Some(last) => (good.max(last.good), total.max(last.total)),
            None => (good, total),
        };
        self.samples.push_back(Sample { t, good, total });
        let horizon = t.saturating_sub(self.spec.slow_window);
        // Keep one sample at-or-before the horizon as the window anchor.
        while self.samples.len() > 2 && self.samples[1].t <= horizon {
            self.samples.pop_front();
        }
    }

    /// Burn rate over the trailing `window` seconds ending at the newest
    /// sample: bad fraction within the window over the allowed bad
    /// fraction. 0 when the window saw no events.
    fn burn(&self, window: u64) -> f64 {
        let Some(newest) = self.samples.back() else { return 0.0 };
        let start = newest.t.saturating_sub(window);
        // The last sample at-or-before the window start anchors the deltas.
        let anchor = self
            .samples
            .iter()
            .rev()
            .find(|s| s.t <= start)
            .or_else(|| self.samples.front())
            .copied()
            .unwrap_or(*newest);
        let d_total = newest.total.saturating_sub(anchor.total);
        if d_total == 0 {
            return 0.0;
        }
        let d_bad = d_total.saturating_sub(newest.good.saturating_sub(anchor.good));
        let allowed = (1.0 - self.spec.objective).max(f64::EPSILON);
        (d_bad as f64 / d_total as f64) / allowed
    }

    pub fn status(&self) -> SloStatus {
        let (good, total) = self
            .samples
            .back()
            .map(|s| (s.good, s.total))
            .unwrap_or((0, 0));
        let bad_fraction = if total == 0 {
            0.0
        } else {
            (total - good) as f64 / total as f64
        };
        let allowed = (1.0 - self.spec.objective).max(f64::EPSILON);
        let budget_remaining = 1.0 - bad_fraction / allowed;
        let burn_fast = self.burn(self.spec.fast_window);
        let burn_slow = self.burn(self.spec.slow_window);
        let breached = budget_remaining <= 0.0
            || (burn_fast > BURN_PAGE_THRESHOLD && burn_slow > BURN_PAGE_THRESHOLD);
        SloStatus {
            name: self.spec.name.clone(),
            kind: self.spec.kind,
            objective: self.spec.objective,
            threshold: self.spec.threshold,
            good,
            total,
            bad_fraction,
            budget_remaining,
            burn_fast,
            burn_slow,
            fast_window: self.spec.fast_window,
            slow_window: self.spec.slow_window,
            breached,
        }
    }
}

/// `(good, total)` split of a cumulative-bucket histogram against a
/// threshold using Prometheus `le` semantics: buckets whose upper bound is
/// ≤ `threshold` count good; the overflow bucket (`counts` has one more
/// entry than `bounds`) is always bad.
pub fn good_within(bounds: &[f64], counts: &[u64], threshold: f64) -> (u64, u64) {
    let mut good = 0u64;
    let mut total = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        total += c;
        if i < bounds.len() && bounds[i] <= threshold {
            good += c;
        }
    }
    (good, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(objective: f64) -> SloSpec {
        SloSpec {
            name: "test".into(),
            kind: SloKind::Availability,
            objective,
            threshold: 0.0,
            fast_window: 300,
            slow_window: 3600,
        }
    }

    #[test]
    fn parse_known_keys() {
        let s = SloSpec::parse("p99_wait_seconds", 3600.0).unwrap();
        assert_eq!(s.kind, SloKind::WaitQuantile);
        assert_eq!(s.objective, 0.99);
        assert_eq!(s.threshold, 3600.0);
        let s = SloSpec::parse("pass_duration_p95", 0.01).unwrap();
        assert_eq!(s.kind, SloKind::PassQuantile);
        assert_eq!(s.objective, 0.95);
        let s = SloSpec::parse("submit_availability", 0.999).unwrap();
        assert_eq!(s.kind, SloKind::Availability);
        assert_eq!(s.objective, 0.999);
        assert!(SloSpec::parse("submit_availability", 1.0).is_err());
        assert!(SloSpec::parse("p99_wait_seconds", 0.0).is_err());
        assert!(SloSpec::parse("nope", 1.0).is_err());
    }

    #[test]
    fn empty_tracker_has_full_budget() {
        let t = SloTracker::new(spec(0.99));
        let s = t.status();
        assert_eq!(s.total, 0);
        assert_eq!(s.budget_remaining, 1.0);
        assert_eq!(s.burn_fast, 0.0);
        assert!(!s.breached);
    }

    #[test]
    fn all_good_keeps_budget_intact() {
        let mut t = SloTracker::new(spec(0.99));
        t.record(0, 100, 100);
        t.record(60, 500, 500);
        let s = t.status();
        assert_eq!(s.budget_remaining, 1.0);
        assert!(!s.breached);
    }

    #[test]
    fn overspent_budget_goes_negative_and_breaches() {
        // objective 0.99 → allowed 1% bad; exactly 1% spends ~the whole
        // budget, 2% overspends it.
        let mut t = SloTracker::new(spec(0.99));
        t.record(0, 0, 0);
        t.record(60, 990, 1000);
        assert!(t.status().budget_remaining.abs() < 1e-9);
        t.record(120, 1960, 2000);
        let s = t.status();
        assert!(s.budget_remaining < -0.5, "{s:?}");
        assert!(s.breached, "budget overspent");
    }

    #[test]
    fn burn_rate_is_windowed() {
        let mut t = SloTracker::new(spec(0.9)); // allowed 10% bad
        // First hour: perfect. Then a burst of 50% bad inside 5 minutes.
        t.record(0, 1000, 1000);
        t.record(3600, 2000, 2000);
        t.record(3900, 2100, 2200);
        let s = t.status();
        // Fast window (300 s): 100 bad / 200 total = 50% bad → burn 5.0.
        assert!((s.burn_fast - 5.0).abs() < 1e-9, "{}", s.burn_fast);
        // Slow window (3600 s): 100 bad / 1200 total → burn ~0.83.
        assert!(s.burn_slow < 1.0);
        assert!(!s.breached, "slow window de-flaps the burst");
    }

    #[test]
    fn sustained_burn_breaches_both_windows() {
        let mut t = SloTracker::new(spec(0.99)); // allowed 1% bad
        t.record(0, 0, 0);
        for i in 1..=80u64 {
            // 50% bad continuously for over an hour.
            t.record(i * 60, i * 50, i * 100);
        }
        let s = t.status();
        assert!(s.burn_fast > BURN_PAGE_THRESHOLD);
        assert!(s.burn_slow > BURN_PAGE_THRESHOLD);
        assert!(s.breached);
    }

    #[test]
    fn good_within_splits_on_le() {
        let bounds = [1.0, 10.0, 100.0];
        let counts = [5, 3, 2, 1]; // +Inf overflow = 1
        assert_eq!(good_within(&bounds, &counts, 10.0), (8, 11));
        assert_eq!(good_within(&bounds, &counts, 0.5), (0, 11));
        assert_eq!(good_within(&bounds, &counts, 1e9), (10, 11));
    }
}
