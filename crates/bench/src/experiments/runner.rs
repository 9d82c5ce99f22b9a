//! The `report` runner: one driver for the whole experiment registry,
//! built on the shared run-plan layer (`crate::plan`). `escalate report`
//! and perfbench parse their report lines with [`ReportOptions::parse`]:
//!
//! ```text
//! escalate report --list           # enumerate the registry
//! escalate report fig8 table4      # run named experiments, text to stdout
//! escalate report --all            # run every experiment
//! escalate report --json fig8      # JSON (escalate-report/v1) instead of text
//! escalate report --out DIR --all  # one file per experiment instead of stdout
//! escalate report --all --update   # regenerate the results/ golden corpus
//! escalate report --all --check    # diff against results/, nonzero on drift
//! ```
//!
//! The selected experiments form a [`ReportPlan`] (one work unit per
//! experiment, the plan a served `report` job runs too); `plan::execute`
//! fans the units out over worker threads,
//! and one of three [`UnitSink`]s renders each output as soon as it and
//! every earlier experiment have finished, strictly in request order —
//! so stdout, per-file output, and golden checks (`ok NAME` lines appear
//! progressively) are byte-identical to a serial run, and the first
//! failure in request order is the one reported.
//!
//! `--check`/`--update` operate on the golden corpus under `results/`
//! (override with `--results DIR`); every experiment is deterministic, so
//! every one has a golden file. Options are read by the shared option
//! reader ([`crate::args`]), as every `escalate` command's are, so valued
//! options accept both `--key value` and `--key=value`. Arguments after
//! `--` are forwarded to the experiments verbatim (e.g.
//! `report fig11 -- MobileNet`).

use super::{find, registry, ExpContext, ExpError, Experiment};
use crate::args::Options;
use crate::jobs::ReportPlan;
use crate::plan::{self, UnitOutput, UnitSink, WorkUnit};
use std::io::Write;
use std::path::PathBuf;

/// Parsed command line of the `report` runner.
#[derive(Debug, Default, Clone)]
pub struct ReportOptions {
    /// List the registry and exit.
    pub list: bool,
    /// Expand to every registered experiment.
    pub all: bool,
    /// Render JSON (`escalate-report/v1`) instead of text.
    pub json: bool,
    /// Compare rendered text against the golden corpus; report drift.
    pub check: bool,
    /// Rewrite the golden corpus from fresh runs.
    pub update: bool,
    /// Write one file per experiment into this directory instead of stdout.
    pub out_dir: Option<PathBuf>,
    /// Golden corpus directory (default: `results/` at the workspace
    /// root).
    pub results_dir: Option<PathBuf>,
    /// Explicitly named experiments, in request order.
    pub names: Vec<String>,
    /// Positional arguments forwarded to the experiments (after `--`).
    pub args: Vec<String>,
}

impl ReportOptions {
    /// Parses runner arguments (without the program name). Tokens after
    /// the first `--` are forwarded to the experiments; the shared option
    /// reader ([`crate::args`]) reads the rest, so valued options accept
    /// both `--out DIR` and `--out=DIR`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an option the reader rejects
    /// (unknown, missing or empty value, repeated, or a value on a flag),
    /// for contradictory modes (`--check --update`), or for an empty
    /// invocation.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut head: Vec<String> = argv.into_iter().collect();
        let args = match head.iter().position(|t| t == "--") {
            Some(i) => head.drain(i..).skip(1).collect(),
            None => Vec::new(),
        };
        let o = Options::parse(
            head,
            &["out", "results"],
            &["list", "all", "json", "check", "update"],
        )
        .map_err(|e| e.to_string())?;
        let opts = ReportOptions {
            list: o.flag("list"),
            all: o.flag("all"),
            json: o.flag("json"),
            check: o.flag("check"),
            update: o.flag("update"),
            out_dir: o.options.get("out").map(PathBuf::from),
            results_dir: o.options.get("results").map(PathBuf::from),
            names: o.positional,
            args,
        };
        if opts.check && opts.update {
            return Err("--check and --update are mutually exclusive".into());
        }
        if !opts.list && !opts.all && opts.names.is_empty() {
            return Err("nothing to do: name experiments, or pass --all or --list".into());
        }
        Ok(opts)
    }

    /// The golden corpus directory: `--results`, else `results/` at the
    /// workspace root.
    fn resolve_results_dir(&self) -> PathBuf {
        self.results_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")))
    }
}

/// Resolves the experiment set a parsed command line selects.
fn select(opts: &ReportOptions) -> Result<Vec<&'static Experiment>, ExpError> {
    let mut exps: Vec<&'static Experiment> = Vec::new();
    if opts.all {
        exps.extend(registry());
    }
    for name in &opts.names {
        let exp = find(name).ok_or_else(|| {
            ExpError::Msg(format!("unknown experiment {name:?} (see report --list)"))
        })?;
        if !exps.iter().any(|e| e.name == exp.name) {
            exps.push(exp);
        }
    }
    Ok(exps)
}

/// Reports the first diverging line of a drifted golden check.
fn first_drift(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("first drift at line {}:\n  - {e}\n  + {a}", i + 1);
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    format!("line counts differ: golden {el}, current {al}")
}

/// `--check`: byte-diffs each experiment against its golden file.
struct CheckSink<'w> {
    out: &'w mut dyn Write,
    results_dir: PathBuf,
    clean: bool,
}

impl UnitSink for CheckSink<'_> {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        let name = &out.table.experiment;
        let text = out.table.render_text();
        let golden_path = self.results_dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) if golden == text => {
                writeln!(self.out, "ok    {name}")?;
            }
            Ok(golden) => {
                self.clean = false;
                writeln!(self.out, "DRIFT {name}")?;
                writeln!(self.out, "{}", first_drift(&golden, &text))?;
            }
            Err(e) => {
                self.clean = false;
                writeln!(self.out, "DRIFT {name} (no golden: {e})")?;
            }
        }
        Ok(())
    }
}

/// `--out DIR` (one text/JSON file per experiment) and `--update`
/// (one text file per experiment into the golden corpus).
struct DirSink<'w> {
    out: &'w mut dyn Write,
    dir: PathBuf,
    json: bool,
}

impl UnitSink for DirSink<'_> {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        let ext = if self.json { "json" } else { "txt" };
        let path = self.dir.join(format!("{}.{ext}", out.table.experiment));
        let body = if self.json {
            out.table.render_json()
        } else {
            out.table.render_text()
        };
        std::fs::write(&path, body)?;
        writeln!(self.out, "wrote {}", path.display())?;
        Ok(())
    }
}

/// Default mode: text (blank-line separated) or JSON documents on stdout.
struct StreamSink<'w> {
    out: &'w mut dyn Write,
    json: bool,
    written: usize,
}

impl UnitSink for StreamSink<'_> {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        if self.json {
            self.out.write_all(out.table.render_json().as_bytes())?;
            writeln!(self.out)?;
        } else {
            if self.written > 0 {
                writeln!(self.out)?;
            }
            self.out.write_all(out.table.render_text().as_bytes())?;
        }
        self.written += 1;
        Ok(())
    }
}

/// Drives the registry per `opts`, writing report output to `out`.
/// Returns `true` when everything (including any `--check`) passed.
///
/// Sizes the process-wide pool first (`ESCALATE_THREADS`, else every
/// core), as every other entry point does, so the pool the plan runs on
/// honours the variable.
///
/// # Errors
///
/// Returns an [`ExpError`] when an experiment fails or a file cannot be
/// read or written. Golden drift is a `false` return, not an error.
pub fn run_report(opts: &ReportOptions, out: &mut dyn Write) -> Result<bool, ExpError> {
    escalate_core::par::configure_threads(0);
    if opts.list {
        writeln!(out, "{:<16} {:<18} summary", "name", "paper anchor")?;
        for e in registry() {
            writeln!(out, "{:<16} {:<18} {}", e.name, e.paper_anchor, e.summary)?;
        }
        return Ok(true);
    }

    let exps = select(opts)?;
    let selected = exps.len();
    let ctx = ExpContext {
        args: opts.args.clone(),
        ..ExpContext::default()
    };
    let results_dir = opts.resolve_results_dir();
    let files = if opts.update {
        Some((results_dir.clone(), false))
    } else {
        opts.out_dir.clone().map(|dir| (dir, opts.json))
    };
    let plan = ReportPlan::new(exps, ctx);

    let clean = if opts.check {
        let clean = {
            let mut sink = CheckSink {
                out: &mut *out,
                results_dir: results_dir.clone(),
                clean: true,
            };
            plan::execute(&plan, &mut sink)?;
            sink.clean
        };
        writeln!(
            out,
            "{}: {} experiment(s) checked against {}",
            if clean { "PASS" } else { "FAIL" },
            selected,
            results_dir.display()
        )?;
        clean
    } else if let Some((dir, json)) = files {
        std::fs::create_dir_all(&dir)?;
        let mut sink = DirSink {
            out: &mut *out,
            dir,
            json,
        };
        plan::execute(&plan, &mut sink)?;
        true
    } else {
        let mut sink = StreamSink {
            out: &mut *out,
            json: opts.json,
            written: 0,
        };
        plan::execute(&plan, &mut sink)?;
        true
    };
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunPlan;

    #[test]
    fn parse_rejects_unknown_flags_and_empty_invocations() {
        assert!(ReportOptions::parse(["--bogus".to_string()]).is_err());
        assert!(ReportOptions::parse(Vec::new()).is_err());
        assert!(
            ReportOptions::parse(["--check".into(), "--update".into(), "--all".into()]).is_err()
        );
    }

    #[test]
    fn parse_collects_names_flags_and_forwarded_args() {
        let o = ReportOptions::parse(
            [
                "--json",
                "fig8",
                "table4",
                "--out",
                "/tmp/x",
                "--",
                "MobileNet",
            ]
            .map(String::from),
        )
        .expect("valid");
        assert!(o.json && !o.all && !o.check);
        assert_eq!(o.names, ["fig8", "table4"]);
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(o.args, ["MobileNet"]);
    }

    #[test]
    fn parse_accepts_key_equals_value_forms() {
        let o =
            ReportOptions::parse(["--out=/tmp/x", "--results=/tmp/r", "fig8"].map(String::from))
                .expect("valid");
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(
            o.results_dir.as_deref(),
            Some(std::path::Path::new("/tmp/r"))
        );
        assert_eq!(o.names, ["fig8"]);
        // Boolean flags reject inline values instead of swallowing them.
        let e = ReportOptions::parse(["--check=yes".to_string()]).unwrap_err();
        assert!(e.contains("no value (it is a flag)"), "{e}");
        // A directory value containing '=' survives (only the first '='
        // splits).
        let o = ReportOptions::parse(["--out=/tmp/a=b", "fig8"].map(String::from)).expect("valid");
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/a=b")));
    }

    #[test]
    fn all_selects_the_whole_registry_in_order() {
        let all = ReportOptions {
            all: true,
            check: true,
            ..ReportOptions::default()
        };
        let names: Vec<&str> = select(&all)
            .expect("select")
            .iter()
            .map(|e| e.name)
            .collect();
        let registered: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names, registered);
    }

    #[test]
    fn report_plan_units_mirror_the_selection_order() {
        let exps = select(&ReportOptions {
            names: vec!["fig8".into(), "table4".into()],
            ..ReportOptions::default()
        })
        .expect("select");
        let plan = ReportPlan::new(exps, ExpContext::default());
        let units = plan.units().expect("units");
        let keys: Vec<&str> = units.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys, ["report/fig8", "report/table4"]);
        assert_ne!(units[0].seed, units[1].seed);
        assert_eq!(units[1].index, 1);
    }

    #[test]
    fn list_names_every_experiment() {
        let opts = ReportOptions {
            list: true,
            ..ReportOptions::default()
        };
        let mut buf = Vec::new();
        assert!(run_report(&opts, &mut buf).expect("list"));
        let text = String::from_utf8(buf).expect("utf8");
        for e in registry() {
            assert!(text.contains(e.name), "{} missing from --list", e.name);
        }
    }

    #[test]
    fn first_drift_pinpoints_the_line() {
        let msg = first_drift("a\nb\nc\n", "a\nX\nc\n");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("- b") && msg.contains("+ X"), "{msg}");
        let msg = first_drift("a\n", "a\nb\n");
        assert!(msg.contains("line counts differ"), "{msg}");
    }
}
