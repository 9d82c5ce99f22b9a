//! `perfbench record`: recomputes every reference digest through the
//! one-shot paths (`escalate simulate`, `escalate report`,
//! `escalate sweep`) and rewrites `reference/digests.txt`. Run it only
//! on a revision whose outputs are known good.

use crate::common::{digest, tmp_dir, Size};
use crate::{cold, serve, sweep};
use escalate_bench::experiments::{run_report, ReportOptions};
use escalate_serve::Request;
use escalate_sim::{ScheduleKind, SimConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The rendered one-shot output of one job.
fn one_shot(req: &Request) -> Result<String, String> {
    match req {
        Request::Simulate {
            model, schedule, ..
        } => {
            let profile = escalate_models::resolve(model).map_err(|e| e.to_string())?;
            let cfg = SimConfig {
                schedule: ScheduleKind::parse(schedule)?,
                ..cold::sim_config()
            };
            cold::one_shot(&profile, &cfg)
        }
        Request::Report { experiment } => {
            let opts = ReportOptions::parse([experiment.clone()])?;
            let mut buf = Vec::new();
            run_report(&opts, &mut buf).map_err(|e| e.to_string())?;
            String::from_utf8(buf).map_err(|e| e.to_string())
        }
        other => Err(format!("{} has no reference output", other.verb())),
    }
}

/// Records every reference and writes the file.
pub fn record() -> Result<(), String> {
    let mut refs: BTreeMap<String, String> = BTreeMap::new();
    for size in [Size::Full, Size::Smoke] {
        for job in serve::distinct_jobs(size) {
            let key = serve::request_key(&job);
            eprintln!("record: {key}");
            refs.insert(key, digest(&one_shot(&job)?));
        }
        let path = tmp_dir()?.join("record.jsonl");
        let _ = std::fs::remove_file(&path);
        eprintln!("record: {}", sweep::stream_key(size));
        escalate_bench::sweep::run_sweep(&sweep::options(size, path.clone()), &mut Vec::new())
            .map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        for (i, line) in text.lines().enumerate() {
            refs.insert(sweep::line_key(size, i), digest(line));
        }
        refs.insert(sweep::stream_key(size), digest(&text));
    }
    let mut out = String::from(
        "# 64-bit FNV-1a digests of reference outputs, written by `perfbench record`.\n",
    );
    for (k, v) in &refs {
        out.push_str(&format!("{k} {v}\n"));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference/digests.txt");
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("record: {} references -> {}", refs.len(), path.display());
    Ok(())
}
