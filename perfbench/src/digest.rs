//! Per-point digests of simulated results.
//!
//! Simulated statistics are model output: a change that only speeds up
//! the simulator must leave them bit-identical. Each point's result is
//! folded into a 64-bit FNV-1a digest and compared with the committed
//! `digests.txt`, so a moved model number fails the point.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vlt_core::{SimResult, StallBreakdown};
use vlt_exec::funcsim::RunSummary;

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn stalls(out: &mut String, b: &StallBreakdown) {
    for (cause, n) in b.iter() {
        let _ = write!(out, " {}={n}", cause.name());
    }
}

/// Digest of a timing run: cycles, committed, utilization, every unit's
/// stall breakdown, memory statistics and lane occupancy.
pub(crate) fn sim_digest(r: &SimResult) -> u64 {
    let u = &r.utilization;
    let mut s = format!(
        "cycles={} committed={} util={},{},{},{}\nvu",
        r.cycles, r.committed, u.busy, u.partly_idle, u.stalled, u.all_idle
    );
    stalls(&mut s, &r.vu_stalls);
    for c in &r.cores {
        s.push_str("\ncore");
        stalls(&mut s, &c.stalls);
    }
    for l in &r.lanes {
        s.push_str("\nlane");
        stalls(&mut s, &l.stalls);
    }
    let m = &r.mem;
    let _ = write!(
        s,
        "\nl1i={:?} l1d={:?} lane_i={:?} l2={:?} banks={:?}",
        m.l1i, m.l1d, m.lane_i, m.l2, m.l2_bank_conflicts
    );
    if let Some(n) = &m.net {
        let _ = write!(
            s,
            "\nnet={},{},{} links={:?}",
            n.transfers, n.contended, n.wait_cycles, n.link_contention
        );
    }
    let _ = write!(s, "\nlane_busy={:?} lane_partly={:?}", r.lane_busy, r.lane_partly);
    fnv1a(&s)
}

/// Digest of a functional-only point: the run summary plus the static
/// checks' verdicts.
pub(crate) fn func_digest(r: &RunSummary, diags: usize, dlp_exact: bool, dlp_insts: u64) -> u64 {
    fnv1a(&format!(
        "insts={} per_thread={:?} vector={} elem={} scalar={} vl={:?} diags={diags} \
         dlp_exact={dlp_exact} dlp_insts={dlp_insts}",
        r.insts, r.per_thread, r.vector_insts, r.elem_ops, r.scalar_ops, r.vl_histogram
    ))
}

/// The committed digests, or a table being recorded.
#[derive(Debug, Clone)]
pub enum Digests {
    /// Compare every point against these entries.
    Check(BTreeMap<String, u64>),
    /// Collect every point's digest.
    Record(BTreeMap<String, u64>),
}

impl Digests {
    /// The table committed beside the benchmark.
    pub fn committed() -> Result<Digests, String> {
        parse(include_str!("../digests.txt")).map(Digests::Check)
    }

    /// Check (or record) the digest of point `key`.
    pub fn check(&mut self, key: &str, digest: u64) -> Result<(), String> {
        match self {
            Digests::Record(map) => {
                map.insert(key.to_string(), digest);
                Ok(())
            }
            Digests::Check(map) => match map.get(key) {
                Some(&want) if want == digest => Ok(()),
                Some(&want) => Err(format!(
                    "simulated result moved: digest {digest:016x}, committed {want:016x}"
                )),
                None => Err("no committed digest for this point".to_string()),
            },
        }
    }

    /// The entries, whichever mode.
    pub fn entries(&self) -> &BTreeMap<String, u64> {
        match self {
            Digests::Check(m) | Digests::Record(m) => m,
        }
    }
}

/// Parse `key hex` lines; `#` starts a comment.
fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("digests.txt:{}: expected `<point> <hex>`", n + 1))?;
        let v = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| format!("digests.txt:{}: {e}", n + 1))?;
        map.insert(key.to_string(), v);
    }
    Ok(map)
}

/// Render entries in the committed file's format.
pub fn render(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# Per-point digests of simulated results (cycles, committed, utilization,\n\
         # stall breakdowns, memory statistics, lane occupancy; run summaries and\n\
         # static verdicts for functional-only points). Regenerate with\n\
         # `--record-digests` only when a change is meant to move the model.\n",
    );
    for (k, v) in map {
        let _ = writeln!(out, "{k} {v:016x}");
    }
    out
}
