//! Order statistics and the hand-written JSON the run record uses (like
//! the repository's other bench bins: no serialisation dependency).

/// One reported number with what stands behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The reported value (a median, a percentile or a ratio of totals).
    pub value: f64,
    /// Observations behind it.
    pub n: u64,
    /// Quartiles of those observations, when there is more than one.
    pub q1: Option<f64>,
    pub q3: Option<f64>,
}

impl Measured {
    /// A value computed from totals (one observation).
    pub fn single(value: f64) -> Self {
        Self {
            value,
            n: 1,
            q1: None,
            q3: None,
        }
    }

    /// The `q`-quantile of `samples`, scaled by `scale`, with quartiles.
    pub fn quantile_of(samples: &mut [f64], q: f64, scale: f64) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self {
            value: quantile(samples, q) * scale,
            n: samples.len() as u64,
            q1: (samples.len() > 1).then(|| quantile(samples, 0.25) * scale),
            q3: (samples.len() > 1).then(|| quantile(samples, 0.75) * scale),
        }
    }

    pub fn median_of(samples: &mut [f64], scale: f64) -> Self {
        Self::quantile_of(samples, 0.5, scale)
    }

    /// The mid-mean: the mean of the samples between the quartiles. As
    /// robust as the median, but for whole-nanosecond call timings it keeps
    /// the digits a median of integers throws away.
    pub fn midmean_of(samples: &mut [f64], scale: f64) -> Self {
        let mut m = Self::median_of(samples, scale);
        let middle = &samples[samples.len() / 4..samples.len() - samples.len() / 4];
        if !middle.is_empty() {
            m.value = middle.iter().sum::<f64>() / middle.len() as f64 * scale;
        }
        m
    }
}

/// Quantile of an ascending slice, interpolating between order statistics;
/// 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile(samples, 0.5)
}

pub fn to_f64<T: Copy + Into<u64>>(v: &[T]) -> Vec<f64> {
    v.iter().map(|&x| x.into() as f64).collect()
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which would be a harness bug) become
/// `null` so the document stays parseable and the bug visible.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let m = Measured::median_of(&mut [3.0, 1.0, 2.0], 10.0);
        assert_eq!((m.value, m.n), (20.0, 3));
        assert_eq!((m.q1, m.q3), (Some(15.0), Some(25.0)));
        let m = Measured::midmean_of(&mut [100.0, 1.0, 2.0, 4.0, 3.0, 0.0, 5.0, 6.0], 1.0);
        assert_eq!(m.value, 3.5, "mean of 2, 3, 4, 5");
        assert_eq!(Measured::midmean_of(&mut [], 1.0).value, 0.0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
