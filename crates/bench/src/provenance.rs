//! Provenance stamp for benchmark artifacts.
//!
//! Every `BENCH_*.json` carries a `provenance` object identifying the
//! commit and host that produced the numbers, so a perf diff
//! ([`bench_compare`]) knows which rows it may hold across machines
//! and a reader can see at a glance where a baseline came from.
//!
//! [`bench_compare`]: ../bench_compare/index.html

use std::process::Command;

use adc_trace::json::Json;

/// Where and on what a benchmark artifact was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working tree, suffixed `-dirty` when
    /// tracked files differ from that commit (the figures then come
    /// from code no commit holds yet); `"unknown"` when the binary runs
    /// outside a checkout (or git itself is absent).
    pub git_commit: String,
    /// Logical CPUs visible to the process — the figure perf diffs key
    /// their comparability check on.
    pub host_cpus: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
}

impl Provenance {
    /// Captures the provenance of the current process: commit (and
    /// whether the tree is dirty) from `git`, CPU count from the
    /// scheduler, OS from the target triple.
    pub fn capture() -> Self {
        let head = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        let git_commit = match head {
            None => "unknown".to_string(),
            Some(sha) => {
                // `git diff --quiet` exits 1 exactly when tracked files
                // differ from HEAD, staged or not.
                let dirty = Command::new("git")
                    .args(["diff", "--quiet", "HEAD", "--"])
                    .status()
                    .is_ok_and(|status| status.code() == Some(1));
                if dirty {
                    format!("{sha}-dirty")
                } else {
                    sha
                }
            }
        };
        let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            git_commit,
            host_cpus,
            os: std::env::consts::OS.to_string(),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("git_commit".into(), Json::Str(self.git_commit.clone())),
            ("host_cpus".into(), Json::Num(self.host_cpus as f64)),
            ("os".into(), Json::Str(self.os.clone())),
        ])
    }

    /// Reads a stamp written by [`Provenance::to_json`]; `None` when a
    /// field is missing or mistyped.
    pub fn from_json(doc: &Json) -> Option<Self> {
        let host_cpus =
            crate::ledger::whole(doc.get("host_cpus")?.as_f64()?).filter(|&n| n >= 1)?;
        Some(Self {
            git_commit: doc.get("git_commit")?.as_str()?.to_string(),
            host_cpus: usize::try_from(host_cpus).ok()?,
            os: doc.get("os")?.as_str()?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_well_formed() {
        let p = Provenance::capture();
        assert!(p.host_cpus >= 1);
        assert!(!p.git_commit.is_empty());
        assert!(!p.os.is_empty());
        // Commit is either a hex SHA, with `-dirty` on a modified tree,
        // or the explicit fallback.
        let sha = p.git_commit.strip_suffix("-dirty").unwrap_or(&p.git_commit);
        assert!(
            p.git_commit == "unknown"
                || (!sha.is_empty() && sha.chars().all(|c| c.is_ascii_hexdigit()))
        );
    }

    #[test]
    fn json_round_trips_and_rejects_bad_cpu_counts() {
        let p = Provenance {
            git_commit: "deadbeef".into(),
            host_cpus: 4,
            os: "linux".into(),
        };
        let text = p.to_json().to_string();
        let parsed = adc_trace::json::parse(&text).expect("valid json");
        assert_eq!(Provenance::from_json(&parsed), Some(p));
        for bad in [
            r#"{"git_commit":"x","host_cpus":0,"os":"linux"}"#,
            r#"{"git_commit":"x","host_cpus":1.5,"os":"linux"}"#,
            r#"{"git_commit":"x","os":"linux"}"#,
        ] {
            let doc = adc_trace::json::parse(bad).expect("valid json");
            assert_eq!(Provenance::from_json(&doc), None, "{bad}");
        }
    }
}
