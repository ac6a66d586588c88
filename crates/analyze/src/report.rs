//! Deterministic human and JSON rendering of a lint run.
//!
//! Both formats are pure functions of the (already sorted) finding list, so
//! two runs over the same tree produce byte-identical output — pinned in CI
//! by diffing consecutive `--format json` reports.

use crate::baseline::json_string;
use crate::rules::Finding;

/// A finding joined with its baseline status.
#[derive(Debug, Clone)]
pub struct Reported {
    pub finding: Finding,
    pub baselined: bool,
}

/// Aggregate outcome of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub reported: Vec<Reported>,
    /// Files the rules ran over, with or without findings.
    pub files_scanned: usize,
}

impl Outcome {
    pub fn total(&self) -> usize {
        self.reported.len()
    }

    pub fn new_count(&self) -> usize {
        self.reported.iter().filter(|r| !r.baselined).count()
    }

    pub fn baselined_count(&self) -> usize {
        self.reported.iter().filter(|r| r.baselined).count()
    }

    /// `path:line: [rule] message` lines plus a summary tail.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for r in &self.reported {
            let f = &r.finding;
            out.push_str(&format!(
                "{}:{}: [{}] {}{}\n",
                f.path,
                f.line,
                f.rule,
                f.message,
                if r.baselined { " (baselined)" } else { "" }
            ));
        }
        let files: std::collections::BTreeSet<&str> = self
            .reported
            .iter()
            .map(|r| r.finding.path.as_str())
            .collect();
        out.push_str(&format!(
            "asm lint: {} finding(s) ({} new, {} baselined) in {} of {} file(s)\n",
            self.total(),
            self.new_count(),
            self.baselined_count(),
            files.len(),
            self.files_scanned
        ));
        out
    }

    /// The machine-readable report (stable key order, sorted findings, no
    /// timestamps or absolute paths — byte-identical across runs and hosts).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"tool\": \"smin-analyze\",\n  \"version\": 1,\n");
        out.push_str(&format!(
            "  \"total\": {},\n  \"new\": {},\n  \"baselined\": {},\n",
            self.total(),
            self.new_count(),
            self.baselined_count()
        ));
        out.push_str("  \"findings\": [");
        for (i, r) in self.reported.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let f = &r.finding;
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"baselined\": {}}}",
                json_string(f.rule),
                json_string(&f.path),
                f.line,
                json_string(&f.message),
                r.baselined
            ));
        }
        if !self.reported.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            reported: vec![
                Reported {
                    finding: Finding {
                        rule: "no-wall-clock",
                        path: "a.rs".into(),
                        line: 3,
                        message: "clock".into(),
                    },
                    baselined: true,
                },
                Reported {
                    finding: Finding {
                        rule: "checked-cast",
                        path: "b.rs".into(),
                        line: 9,
                        message: "cast".into(),
                    },
                    baselined: false,
                },
            ],
            files_scanned: 57,
        }
    }

    #[test]
    fn counts_and_human_format() {
        let o = outcome();
        assert_eq!((o.total(), o.new_count(), o.baselined_count()), (2, 1, 1));
        let h = o.human();
        assert!(h.contains("a.rs:3: [no-wall-clock] clock (baselined)"));
        assert!(h.contains("b.rs:9: [checked-cast] cast\n"));
        assert!(h.contains("2 finding(s) (1 new, 1 baselined) in 2 of 57 file(s)"));
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let o = outcome();
        assert_eq!(o.json(), o.json());
        assert!(o.json().contains("\"new\": 1"));
        let empty = Outcome::default();
        assert!(empty.json().contains("\"findings\": []"));
    }
}
