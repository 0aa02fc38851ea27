//! Percentiles and medians for the benchmark's own reporting.

use crate::health::host_normalize;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that it is one or two host hiccups, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 100)`) of `samples`, refusing
/// when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} out of (0, 100)");
    let n = samples.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{q} of {n} samples has {beyond} beyond it (needs {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small set (setup repetitions, per-run summaries): no
/// tail rule, the middle value or the mean of the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Block summaries of a stream of timed samples.  The run is cut into
/// consecutive blocks of `block` samples, and each block is host-
/// normalized ([`host_normalize`]) and summarized as it fills.  So a run
/// holds one block in memory, not the whole run, and its peak resident
/// set does not grow with the number of samples a faster host gathers.
///
/// A percentile is the median over the blocks of the block's percentile.
/// A stall confined to a minority of blocks (a host hiccup) does not
/// move it; a slower program, or a stall of the program's own that
/// recurs in most blocks, does.  Unlike the whole-run percentile it does
/// not drift as a longer run gathers more hiccups.  Each block must
/// leave [`MIN_BEYOND`] samples beyond its p99.
pub struct Blocks {
    block: usize,
    nominal_us: f64,
    pending: Vec<(f64, f64)>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    sum: f64,
    count: usize,
}

/// What [`Blocks::finish`] reports.
#[derive(Debug, PartialEq)]
pub struct Summary {
    /// Median over the full blocks of each block's p50 and p99.
    pub p50: f64,
    pub p99: f64,
    /// The highest block p99: stalls confined to a few blocks show here.
    pub worst_p99: f64,
    /// Sum and number of all samples, normalized, the last partial block
    /// included.
    pub sum: f64,
    pub count: usize,
}

impl Blocks {
    /// `nominal_us` is the reference time a normalized sample is scaled
    /// to; samples pushed with a reference equal to it stay as they are.
    pub fn new(block: usize, nominal_us: f64) -> Blocks {
        Blocks {
            block,
            nominal_us,
            pending: Vec::with_capacity(block),
            p50: Vec::new(),
            p99: Vec::new(),
            sum: 0.0,
            count: 0,
        }
    }

    /// Samples pushed so far.
    pub fn len(&self) -> usize {
        self.count + self.pending.len()
    }

    /// One sample and the reference timed right after it.
    pub fn push(&mut self, time: f64, ref_us: f64) -> Result<(), String> {
        self.pending.push((time, ref_us));
        if self.pending.len() == self.block {
            let normalized = self.fold();
            self.p50.push(percentile(&normalized, 50.0)?);
            self.p99.push(percentile(&normalized, 99.0)?);
        }
        Ok(())
    }

    /// Normalize the pending samples into the totals.
    fn fold(&mut self) -> Vec<f64> {
        let normalized = host_normalize(&self.pending, self.nominal_us);
        self.sum += normalized.iter().sum::<f64>();
        self.count += normalized.len();
        self.pending.clear();
        normalized
    }

    pub fn finish(mut self) -> Result<Summary, String> {
        if self.p50.is_empty() {
            return Err(format!(
                "{} samples do not fill one block of {}",
                self.len(),
                self.block
            ));
        }
        self.fold();
        Ok(Summary {
            p50: median(&self.p50),
            p99: median(&self.p99),
            worst_p99: self.p99.iter().copied().fold(f64::MIN, f64::max),
            sum: self.sum,
            count: self.count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `samples` at the nominal reference speed, so they are not
    /// rescaled, and summarize them in blocks of 1000.
    fn blocks(samples: &[f64]) -> Result<Summary, String> {
        let mut b = Blocks::new(1_000, 80.0);
        for &s in samples {
            b.push(s, 80.0)?;
        }
        b.finish()
    }

    #[test]
    fn blocks_skip_a_minority_of_stalled_blocks_but_not_a_majority() {
        let mut samples: Vec<f64> = (0..5_000).map(|i| f64::from(i % 1_000)).collect();
        let p99 = |s: &[f64]| blocks(s).unwrap().p99;
        assert_eq!(p99(&samples), 989.0);
        // Host stalls spoil two blocks of five.
        for s in &mut samples[..2_000] {
            *s += 1e6;
        }
        assert_eq!(p99(&samples), 989.0);
        assert!(blocks(&samples).unwrap().worst_p99 > 1e6);
        assert!(percentile(&samples, 99.0).unwrap() > 1e6);
        // A stall that recurs in most blocks shows.
        for s in &mut samples[2_000..3_000] {
            *s += 1e6;
        }
        assert!(p99(&samples) > 1e6);
        // A slow program moves every block.
        let slow: Vec<f64> = (0..5_000).map(|i| f64::from(i % 1_000) * 2.0).collect();
        let summary = blocks(&slow).unwrap();
        assert_eq!((summary.p50, summary.p99), (998.0, 1_978.0));
        // The partial last block counts in the totals, not the percentiles.
        let summary = blocks(&slow[..1_500]).unwrap();
        assert_eq!((summary.p99, summary.count), (1_978.0, 1_500));
        assert_eq!(summary.sum, slow[..1_500].iter().sum::<f64>());
        assert!(blocks(&slow[..999]).is_err());
    }

    #[test]
    fn blocks_refuse_a_thin_tail_and_rescale_by_the_host_speed() {
        let mut b = Blocks::new(500, 80.0);
        let refused = (0..500).try_for_each(|i| b.push(f64::from(i), 80.0));
        assert!(refused.is_err(), "a 500-sample p99 has 5 beyond");
        // A host at half speed: every time and reference doubles.
        let mut b = Blocks::new(1_000, 80.0);
        for i in 0..1_000 {
            b.push(f64::from(i) * 2.0, 160.0).unwrap();
        }
        assert_eq!(b.finish().unwrap().p99, 989.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples: rank 990, 9 beyond it.
        assert!(percentile(&samples, 99.0).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        // p50 needs 20 samples.
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert_eq!(percentile(&samples[..20], 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&samples, 50.0).unwrap();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0).unwrap(), a);
        assert_eq!(a, 49.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
