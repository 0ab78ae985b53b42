//! One module per reproduced table/figure, and [`ALL`], the registry the
//! `vlt-bench` runner drives.

pub mod ext_chaining;
pub mod ext_cluster;
pub mod ext_lanes;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod irregular_stalls;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table4_static;

use std::path::{Path, PathBuf};

use vlt_stats::{Experiment, Table};
use vlt_workloads::Scale;

use crate::harness::SuiteError;

/// One result record: the table printed to stdout and the JSON document
/// written to `results/<id>.json`.
pub struct Record {
    /// The `results/<id>.json` basename.
    pub id: String,
    /// What the runner prints.
    pub shown: Table,
    /// The document the runner writes.
    pub json: String,
}

impl Record {
    /// A vlt-table v1 record that prints as the table itself.
    pub fn table(id: &str, t: Table) -> Self {
        Record { id: id.to_string(), json: t.to_json(id).pretty(), shown: t }
    }

    /// An experiment record, printed through [`render`].
    pub fn experiment(e: &Experiment) -> Self {
        Record { id: e.id.clone(), shown: render(e), json: e.to_json() }
    }

    /// Write `dir/<id>.json`, creating `dir`. Every results file goes
    /// through here, and the error reaches the caller.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, &self.json)?;
        Ok(path)
    }
}

/// One runnable experiment: `vlt-bench <id>`.
pub struct Entry {
    /// The name the runner accepts.
    pub id: &'static str,
    /// The record ids `produce` returns, in order.
    pub records: &'static [&'static str],
    /// Run the experiment at a scale.
    pub produce: fn(Scale) -> Result<Vec<Record>, SuiteError>,
}

impl Entry {
    /// Produce the records, then print and write each one into `dir`.
    pub fn run(&self, scale: Scale, dir: &Path) -> Result<(), String> {
        let records = (self.produce)(scale).map_err(|e| e.to_string())?;
        if !records.iter().map(|r| r.id.as_str()).eq(self.records.iter().copied()) {
            return Err(format!("produced records do not match the declared {:?}", self.records));
        }
        for r in &records {
            println!("{}", r.shown);
            let path = r
                .write_to(dir)
                .map_err(|e| format!("could not write {}/{}.json: {e}", dir.display(), r.id))?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

fn experiment(r: Result<Experiment, SuiteError>) -> Result<Vec<Record>, SuiteError> {
    r.map(|e| vec![Record::experiment(&e)])
}

/// Every experiment, in the order `vlt-bench all` runs them. The committed
/// `results/` tree is exactly the union of the `records` columns.
pub const ALL: &[Entry] = &[
    Entry {
        id: "table3",
        records: &["table3"],
        produce: |_| Ok(vec![Record::table("table3", table3::run())]),
    },
    Entry { id: "table1", records: &["table1"], produce: |_| experiment(Ok(table1::run())) },
    Entry { id: "table2", records: &["table2"], produce: |_| experiment(Ok(table2::run())) },
    Entry { id: "table4", records: &["table4"], produce: |s| Ok(vec![table4::run(s)]) },
    Entry {
        id: "table4_static",
        records: &["table4_static", "table4_dynamic"],
        produce: |s| {
            let stat = table4_static::static_table(&table4_static::run(s));
            let dynamic = table4_static::dynamic_table(&table4_static::dynamic_rows(s));
            Ok(vec![Record::table("table4_static", stat), Record::table("table4_dynamic", dynamic)])
        },
    },
    Entry { id: "fig1", records: &["fig1"], produce: |s| experiment(fig1::run(s)) },
    Entry { id: "fig3", records: &["fig3"], produce: |s| experiment(fig3::run(s)) },
    Entry { id: "fig4", records: &["fig4"], produce: |s| experiment(fig4::run(s)) },
    Entry { id: "fig5", records: &["fig5"], produce: |s| experiment(fig5::run(s)) },
    Entry { id: "fig6", records: &["fig6"], produce: |s| experiment(fig6::run(s)) },
    Entry { id: "ext_lanes", records: &["ext_lanes"], produce: |s| experiment(ext_lanes::run(s)) },
    Entry {
        id: "ext_chaining",
        records: &["ext_chaining"],
        produce: |s| experiment(ext_chaining::run(s)),
    },
    Entry {
        id: "ext_cluster",
        records: &["ext_cluster"],
        produce: |s| experiment(ext_cluster::run(s)),
    },
    Entry {
        id: "irregular_stalls",
        records: &["irregular_stalls"],
        produce: |s| experiment(irregular_stalls::run(s)),
    },
];

/// Scale selection via `VLT_SCALE` = `test` | `small` | `full` (unset
/// means `small`); any other value is an error.
pub fn scale_from_env() -> Result<Scale, String> {
    match std::env::var("VLT_SCALE") {
        Err(std::env::VarError::NotPresent) => Ok(Scale::Small),
        Ok(v) => v.parse().map_err(|e| format!("VLT_SCALE: {e}")),
        Err(e) => Err(format!("VLT_SCALE: {e}")),
    }
}

/// Render an experiment's series as an aligned table: one row per series,
/// one column per x point, with the paper's value in parentheses when
/// available.
pub fn render(e: &Experiment) -> Table {
    let xs: Vec<&str> =
        e.series.first().map(|s| s.x.iter().map(String::as_str).collect()).unwrap_or_default();
    let mut headers = vec![e.metric.as_str()];
    headers.extend(xs.iter());
    let mut t = Table::new(format!("{} — {}", e.id, e.title), &headers);
    for s in &e.series {
        let mut row = vec![s.label.clone()];
        for (i, v) in s.values.iter().enumerate() {
            let cell = match s.paper.get(i) {
                Some(p) => format!("{v:.2} (paper ~{p:.2})"),
                None => format!("{v:.2}"),
            };
            row.push(cell);
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_ids_are_unique_and_not_all() {
        let mut ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len(), "duplicate entry id");
        assert!(!ids.contains(&"all"), "`all` is the runner's own name");
    }

    #[test]
    fn analytical_entries_produce_their_declared_records() {
        for id in ["table1", "table2", "table3"] {
            let e = ALL.iter().find(|e| e.id == id).unwrap();
            let records = (e.produce)(Scale::Test).unwrap();
            let got: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
            assert_eq!(got, e.records, "{id}");
        }
    }

    /// A results directory that cannot be created — its parent is a
    /// regular file — fails the run instead of printing and carrying on.
    #[test]
    fn failed_write_fails_the_run() {
        let file = std::env::temp_dir().join(format!("vlt-bench-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "a regular file").unwrap();
        let table1 = ALL.iter().find(|e| e.id == "table1").unwrap();
        let err = table1.run(Scale::Test, &file.join("results")).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(err.contains("could not write"), "{err}");
    }
}
