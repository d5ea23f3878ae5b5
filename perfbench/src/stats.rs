//! Percentiles, window summaries and spreads — the arithmetic every
//! reported number goes through, kept in one place so it can be tested.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(q·n)` (1-based), so `q = 0.5` of `[1,2,3,4]` is `2` and no
/// value is ever interpolated. `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The floor of an ascending-sorted sample of durations: its 1st
/// percentile (nearest rank), but never one of the two smallest values,
/// so that no single freak reading can set it. `0.0` for an empty sample.
///
/// This, not the median, is what the end-to-end timing metrics report.
/// The benchmark host's noise is one-sided — stolen CPU time and a busy
/// sibling thread slow an operation down by up to 2×, for minutes at a
/// time, and nothing ever speeds one up. On the seed commit the median
/// of identical runs moved 10–25 % with the neighbours; the floor moved
/// 0.5–1.5 % within a quiet or a noisy spell and about 7 % between them.
/// The floor is the time the *code* takes; medians and tails are still
/// reported, as per-layer `client.*` metrics.
pub fn floor(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), 0.01).max(3).min(sorted.len()) - 1]
}

/// The rate over the fastest runs of `k` consecutive completions: each
/// window's completion times (ms, ascending) are cut into runs of `k`
/// intervals, and the rate is `k` over the [`floor`] of the runs'
/// durations, per second. Counted in completions, not in time, so it
/// cannot be quantised; runs never span two windows. The same
/// one-sided-noise argument as [`floor`], for rates. `0.0` when no window
/// holds a run.
pub fn best_run_rate<'a>(windows: impl IntoIterator<Item = &'a [f64]>, k: usize) -> f64 {
    let runs = windows
        .into_iter()
        .flat_map(|done| done.iter().step_by(k).zip(done.iter().skip(k).step_by(k)))
        .map(|(start, end)| end - start);
    rate_of_fastest(runs.collect(), k)
}

/// [`best_run_rate`] with every run placed around an event: for each
/// `(completions, events)` window (both ms from one origin, ascending),
/// the run of an event begins at the last completion at or before the
/// event and lasts `k` completions, so it holds every operation that
/// overlapped the event. What the fastest runs cannot do here is avoid
/// the events. Events too close to either end of their window are left
/// out.
pub fn event_run_rate<'a>(
    windows: impl IntoIterator<Item = (&'a [f64], &'a [f64])>,
    k: usize,
) -> f64 {
    let runs = windows.into_iter().flat_map(|(done, events)| {
        events.iter().filter_map(move |&at| {
            let start = done.partition_point(|&d| d <= at).checked_sub(1)?;
            Some(done.get(start + k)? - done[start])
        })
    });
    rate_of_fastest(runs.collect(), k)
}

/// Time per item, in ms, of every run of `m` consecutive batches of a
/// server that is never idle. `answers` are `(answered at, size of the
/// batch it was in)` in the order the requests were sent, which is the
/// order batches are formed in: the first `n` of them are the batch of
/// `n` that the first one names, and so on. A batch is answered when its
/// first answer is (a client that reads its clock late can only stamp an
/// answer late). A run lasts from the answer of one batch to the answer
/// of the `m`-th batch after it and holds those `m` batches' items: no
/// item is counted into a run that did not also pay for its batch, which
/// runs cut at arbitrary completions get wrong by up to a batch.
pub fn batch_run_item_ms(answers: &[(f64, usize)], m: usize) -> Vec<f64> {
    let mut batches = Vec::new(); // (answered at, items up to and including it)
    let mut items = 0;
    while let Some(&(_, n)) = answers.get(items) {
        let Some(batch) = answers.get(items..items + n.max(1)) else { break };
        items += batch.len();
        batches.push((batch.iter().map(|a| a.0).fold(f64::INFINITY, f64::min), items));
    }
    batches.windows(m + 1).map(|run| (run[m].0 - run[0].0) / (run[m].1 - run[0].1) as f64).collect()
}

/// `k` per second over the [`floor`] of run durations given in ms.
fn rate_of_fastest(runs_ms: Vec<f64>, k: usize) -> f64 {
    let fastest = floor(&sorted(runs_ms));
    if fastest > 0.0 {
        k as f64 * 1e3 / fastest
    } else {
        0.0
    }
}

/// Whether a sample of `n` supports quantile `q`: at least ten samples
/// lie beyond its rank (choosing-metrics §1).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// The highest of the usual tail quantiles (p99.9, p99, p95, p90) that
/// [`supports`] allows for a sample of `n`, or `None` below 100 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90].into_iter().find(|&q| supports(n, q))
}

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// clock difference or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// A value reported from several timed windows: the median over the
/// windows with the min–max spread beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the windows.
    pub median: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// Number of windows.
    pub windows: usize,
}

impl Summary {
    /// Summarises one value per window. All-zero for no windows.
    pub fn of(per_window: &[f64]) -> Summary {
        let s = sorted(per_window.to_vec());
        Summary {
            median: percentile(&s, 0.5),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            windows: s.len(),
        }
    }

    /// `(max − min) / median`, the relative window-to-window spread
    /// (`0.0` when the median is zero).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// How much worse `new` is than `old` as a share of `old`: positive means
/// worse in the metric's own direction, negative means better.
pub fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}
