//! The run's result: correctness checks, operation counts and metrics,
//! rendered as the one-line JSON object the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::{Group, PER_LAYER};

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Names of the properties that broke (empty on a correct run).
    failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a property of the outputs; a broken one fails the run
    /// and is reported on stderr by name, with `detail`.
    pub fn check(&mut self, property: &str, holds: bool, detail: impl FnOnce() -> String) {
        if !holds {
            eprintln!("CHECK FAILED: {property}: {}", detail());
            self.failures.push(property.to_string());
        }
    }

    /// [`check`](Self::check) that two values are equal.
    pub fn check_eq<T: PartialEq + Debug>(&mut self, property: &str, left: T, right: T) {
        let holds = left == right;
        self.check(property, holds, || format!("{left:?} != {right:?}"));
    }

    /// Sets a metric (by its name in `END_TO_END` or `PER_LAYER`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets every per-layer metric of a group not in `exercised` to 0.
    pub fn zero_groups(&mut self, exercised: &[Group]) {
        for &(name, _, group) in PER_LAYER {
            if !exercised.contains(&group) {
                self.set(name, 0.0);
            }
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The final JSON line: exactly the metrics in `names` (a missing
    /// or non-finite one fails the run and prints as 0).
    pub fn render(&mut self, names: impl Iterator<Item = (&'static str, &'static str)>) -> String {
        let mut body = Vec::new();
        for (name, unit) in names {
            let value = self.metrics.get(name).copied();
            let ok = value.is_some_and(f64::is_finite);
            self.check(&format!("metric {name} is measured"), ok, || {
                format!("value {value:?}")
            });
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            self.check("at least one operation was attempted", false, String::new);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_exactly_the_named_metrics() {
        let mut r = Report {
            attempted: 30,
            failed: 3,
            ..Report::default()
        };
        r.set("a", 1.25);
        r.set("b", 3.0);
        r.set("unlisted", 9.0);
        let line = r.render([("a", "s"), ("b", "count")].into_iter());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 30, \"failed\": 3, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_missing_metric_or_broken_check_fails_the_run() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.check("holds", true, String::new);
        assert!(r.correct());
        let line = r.render([("absent", "s")].into_iter());
        assert!(line.starts_with("{\"correct\": false"));
        let mut r = Report::default();
        r.check_eq("equal", 1, 2);
        assert!(!r.correct());
    }

    #[test]
    fn zero_groups_spares_the_exercised_ones() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("fabric.replay_s", 2.5);
        r.zero_groups(&[Group::Fabric]);
        let line = r.render(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        assert!(line.contains("\"fabric.replay_s\": {\"value\": 2.5,"));
        assert!(line.contains("\"core.round_s\": {\"value\": 0,"));
        // Fabric metrics left unset are missing, not zeroed.
        assert!(line.starts_with("{\"correct\": false"));
    }
}
