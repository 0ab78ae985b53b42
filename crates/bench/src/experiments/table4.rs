//! Table 4: workload characteristics — % vectorization, average VL, common
//! VLs, and % VLT opportunity, measured on this reproduction's kernels and
//! compared against the paper's application measurements.

use vlt_stats::{Experiment, Series, Table};
use vlt_workloads::characterize::characterize;
use vlt_workloads::{suite, Scale};

use super::Record;

/// Measure every workload once: the `table4` experiment record, shown with
/// the common-VL column (not representable in Series form).
pub fn run(scale: Scale) -> Record {
    let mut e = Experiment::new(
        "table4",
        "Workload characteristics (measured vs paper)",
        "pct_vect / avg_vl / opportunity",
    );
    let mut t = Table::new(
        "table4 — Workload characteristics",
        &["app", "% vect (paper)", "avg VL (paper)", "common VLs (paper)", "% opp (paper)"],
    );
    let x = vec!["% vect".to_string(), "avg VL".to_string(), "% opportunity".to_string()];
    for w in suite() {
        let c = characterize(w, scale).unwrap_or_else(|err| panic!("{}: {err}", w.name()));
        let row = w.paper_row();
        e.push(Series::new(w.name(), &x, vec![c.pct_vect, c.avg_vl, c.opportunity]).with_paper(
            vec![
                row.pct_vect.unwrap_or(0.0),
                row.avg_vl.unwrap_or(0.0),
                row.opportunity.unwrap_or(0.0),
            ],
        ));
        let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or("-".into());
        let vls: Vec<String> = c.common_vls.iter().map(|v| v.to_string()).collect();
        let pvls: Vec<String> = row.common_vls.iter().map(|v| v.to_string()).collect();
        t.row(&[
            w.name().to_string(),
            format!("{:.1} ({})", c.pct_vect, fmt_opt(row.pct_vect)),
            format!("{:.1} ({})", c.avg_vl, fmt_opt(row.avg_vl)),
            format!(
                "{} ({})",
                vls.join(","),
                if pvls.is_empty() { "-".into() } else { pvls.join(",") }
            ),
            format!("{:.1} ({})", c.opportunity, fmt_opt(row.opportunity)),
        ]);
    }
    Record { shown: t, ..Record::experiment(&e) }
}
