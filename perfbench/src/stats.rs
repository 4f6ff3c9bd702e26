//! Sample summaries: nearest-rank quantiles over exact samples.

use std::time::Duration;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Lat {
    pub ms: Vec<f64>,
}

impl Lat {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(ms(d));
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.ms, q)
    }
}
