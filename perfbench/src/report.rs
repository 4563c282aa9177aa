//! Shared bookkeeping: operation tallies, traced/untraced sample pairs, and
//! the result line.

use crate::stats::Samples;

/// Operations attempted and failed (failed, refused or wrong output).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the human-readable report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            eprintln!("FAILED: {why}");
            self.reasons.push(why);
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons.iter().cloned());
    }
}

/// One end-to-end timing, split by whether the operation ran traced. The
/// untraced samples give the end-to-end metric; the difference of the two
/// medians is the tracing overhead.
#[derive(Debug, Default, Clone)]
pub struct Ab {
    pub plain: Samples,
    pub traced: Samples,
}

impl Ab {
    pub fn push(&mut self, traced: bool, v: f64) {
        if traced {
            self.traced.push(v);
        } else {
            self.plain.push(v);
        }
    }

    /// Every sample, traced or not (the traced run's per-layer view).
    pub fn all(&self) -> Samples {
        let mut s = self.plain.clone();
        s.extend(&self.traced);
        s
    }
}

/// Runs `f`, turning a panic — a model's failed in-app check, rethrown by
/// the simulator — into an error, so a broken program shows as failed
/// operations instead of a crashed benchmark.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(p) => Err(if let Some(s) = p.downcast_ref::<&str>() {
            format!("panicked: {s}")
        } else if let Some(s) = p.downcast_ref::<String>() {
            format!("panicked: {s}")
        } else {
            "panicked".to_string()
        }),
    }
}

/// Metrics in the order they are printed: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, tally: &Tally) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN; a metric that could not be measured is
                // reported as null and the run as incorrect.
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}
