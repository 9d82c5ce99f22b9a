//! Keeps the DESIGN.md §2 system inventory honest.
//!
//! Each row of that table names a crate (`crates/<name>`, or the root
//! package) and its key modules as backticked file names. This test
//! checks both directions against the source tree:
//!
//! - every `pub mod m;` in a crate's `src/lib.rs` is named in that
//!   crate's row, as `m.rs` for a file module or `…/m/` for a directory
//!   module;
//! - every `.rs` file and every `…/` directory a row names exists in that
//!   crate (under `src/`, `benches/`, `examples/` or `tests/`).
//!
//! Every library crate under `crates/` must have a row.

use std::fs;
use std::path::{Path, PathBuf};

/// One inventory row: the crate directory and the backticked spans of
/// its "Key modules" column.
struct Row {
    dir: PathBuf,
    spans: Vec<String>,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn backticked(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

fn inventory_rows() -> Vec<Row> {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md is readable");
    let section: Vec<&str> = design
        .lines()
        .skip_while(|l| !l.starts_with("## 2."))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect();
    let mut rows = vec![];
    for line in section.iter().filter(|l| l.starts_with('|')) {
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| subsystem | crate | key modules |` splits into five pieces.
        if cols.len() != 5 {
            continue;
        }
        let dir = if cols[2].contains("root package") {
            root()
        } else if let Some(c) = backticked(cols[2])
            .into_iter()
            .find(|s| s.starts_with("crates/"))
        {
            root().join(c)
        } else {
            continue;
        };
        rows.push(Row {
            dir,
            spans: backticked(cols[3]),
        });
    }
    assert!(!rows.is_empty(), "DESIGN.md §2 has no inventory rows");
    rows
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn public_modules(lib_rs: &Path) -> Vec<String> {
    fs::read_to_string(lib_rs)
        .expect("lib.rs is readable")
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod "))
        .filter_map(|l| l.strip_suffix(';'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_library_crate_has_an_inventory_row() {
    let rows = inventory_rows();
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    crates.sort();
    for dir in crates {
        assert!(
            rows.iter().any(|r| r.dir == dir),
            "DESIGN.md §2 has no row for {}",
            dir.display()
        );
    }
}

#[test]
fn every_public_module_is_in_its_inventory_row() {
    for row in inventory_rows() {
        let lib_rs = row.dir.join("src/lib.rs");
        if !lib_rs.is_file() {
            continue;
        }
        for m in public_modules(&lib_rs) {
            let named = if row.dir.join("src").join(format!("{m}.rs")).is_file() {
                let file = format!("{m}.rs");
                row.spans
                    .iter()
                    .any(|s| *s == file || s.ends_with(&format!("/{file}")))
            } else {
                row.spans.iter().any(|s| s.ends_with(&format!("{m}/")))
            };
            assert!(
                named,
                "{}: `pub mod {m}` is missing from its DESIGN.md §2 row",
                row.dir.display()
            );
        }
    }
}

#[test]
fn every_inventoried_file_exists() {
    for row in inventory_rows() {
        let mut files = vec![];
        for sub in ["src", "benches", "examples", "tests"] {
            rust_files(&row.dir.join(sub), &mut files);
        }
        for span in &row.spans {
            if span.contains(char::is_whitespace) || span.contains('*') {
                continue;
            }
            if span.ends_with(".rs") {
                let suffix = format!("/{span}");
                assert!(
                    files.iter().any(|f| f.to_string_lossy().ends_with(&suffix)),
                    "{}: DESIGN.md §2 names `{span}`, which does not exist",
                    row.dir.display()
                );
            } else if span.ends_with('/') {
                assert!(
                    row.dir.join(span).is_dir(),
                    "{}: DESIGN.md §2 names `{span}`, which does not exist",
                    row.dir.display()
                );
            }
        }
    }
}
