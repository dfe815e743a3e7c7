//! Small statistics and output helpers shared by the phases.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fastest of repeated timings of one call; NaN when empty.
///
/// On a shared machine the same call's time swings by up to 1.8× in
/// spells of 0.1–1 s set by other tenants (thread CPU time swings the
/// same, so it is the core's speed, not preemption). A mean or median
/// moves with the share of slow spells in the run; the fastest sample,
/// taken over samples spread through the whole run, is the call's cost
/// at the machine's undisturbed speed and repeats from run to run.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::NAN)
}

/// Sum over calls of each call's fastest timing.
pub fn sum_fastest(per_call: &[Vec<f64>]) -> f64 {
    per_call.iter().map(|xs| fastest(xs)).sum()
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn unit(&self, name: &str) -> &'static str {
        self.0.get(name).map_or("", |(_, u)| u)
    }

    pub fn merge(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (k.clone(), *v)));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value is
    /// written as `null` so a missing measurement is visible, never faked.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// A fixed byte-scanning kernel (a tag/attribute counter written here,
/// independent of the code under test), timed to track the machine's
/// speed during the run.
pub fn calibration_pass(doc: &[u8]) -> u64 {
    let (mut in_tag, mut tags, mut quotes, mut h) = (false, 0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    for &b in doc {
        match b {
            b'<' => {
                in_tag = true;
                tags += 1;
            }
            b'>' => in_tag = false,
            b'"' if in_tag => quotes += 1,
            _ => {}
        }
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    tags ^ quotes ^ h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
        assert_eq!(sum_fastest(&[vec![2.0, 1.0], vec![0.5, 3.0]]), 1.5);
    }
}
