//! The worker pool under every campaign: a parallel, order-preserving map.

use sd_scenario::cli::Value;

/// `--threads`' value: a cap of at least 1 on the pool's threads, named
/// `bad thread count: <value>` when it is not a number.
pub fn thread_cap(v: &Value) -> Result<usize, String> {
    v.text.parse::<usize>().map_err(|_| format!("bad thread count: {}", v.text))?;
    v.at_least_1()
}

/// Generic fan-out over scoped threads: applies `run` to every item and
/// returns results in input order. `threads = None` uses the machine's
/// available parallelism; the scenario campaign runner and the claim
/// validator share this pool.
pub fn sweep_with<T, R>(items: &[T], threads: Option<usize>, run: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let max_threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    let results: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..max_threads.max(1).min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let res = run(&items[i]);
                *results[i].lock().expect("sweep lock poisoned") = Some(res);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep lock poisoned")
                .expect("every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_scenario::{execute, expand, Scenario, SourceKind};

    #[test]
    fn sweep_matches_individual_runs() {
        let mut s = Scenario::new("t", SourceKind::Ricc);
        s.scale = Some(0.02);
        s.sweep.set("maxsd", &["10", "dyn"], 0).unwrap();
        let points = expand(&s);
        let swept = sweep_with(&points, None, execute);
        assert_eq!(swept.len(), 2);
        for (p, r) in points.iter().zip(&swept) {
            let solo = execute(p).unwrap();
            assert_eq!(r.as_ref().unwrap().result.outcomes, solo.result.outcomes);
        }
    }

    #[test]
    fn sweep_with_preserves_order_and_honours_thread_cap() {
        let items: Vec<u64> = (0..37).collect();
        let out = sweep_with(&items, Some(3), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // A zero thread request still runs everything (floored to 1).
        let out1 = sweep_with(&items, Some(0), |x| x + 1);
        assert_eq!(out1.len(), 37);
    }
}
