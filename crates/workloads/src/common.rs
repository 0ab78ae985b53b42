//! Shared infrastructure for workload generators.

use vlt_exec::FuncSim;
use vlt_isa::Program;

/// Problem-size presets. `Test` keeps functional tests fast; `Small` is the
/// bench default; `Full` approaches the paper's working-set regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests.
    Test,
    /// Bench default: tens of thousands of dynamic instructions.
    Small,
    /// Larger runs for the headline numbers.
    Full,
}

impl Scale {
    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, test: T, small: T, full: T) -> T {
        match self {
            Scale::Test => test,
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Parses the lowercase names `test`, `small` and `full` — the one
/// spelling every CLI flag and `VLT_SCALE` accepts.
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale `{other}` (expected test | small | full)")),
        }
    }
}

/// Verifier callback: inspects the final functional state.
pub type Verifier = Box<dyn Fn(&FuncSim) -> Result<(), String> + Send + Sync>;

/// A workload instance ready to run.
pub struct Built {
    /// The assembled SPMD program.
    pub program: Program,
    /// Checks the final memory image against a golden Rust computation.
    pub verifier: Verifier,
}

impl Built {
    /// Run functionally (no timing) and verify; returns dynamic instruction
    /// count. Used by tests and the characterization harness.
    pub fn run_functional(&self, threads: usize, budget: u64) -> Result<u64, String> {
        let mut sim = FuncSim::new(&self.program, threads);
        let summary = sim.run_to_completion(budget).map_err(|e| e.to_string())?;
        (self.verifier)(&sim)?;
        Ok(summary.insts)
    }
}

/// The `vltcfg` operand for `threads` VLT threads spread over `clusters`
/// lane clusters. `clusters <= 1` keeps the legacy flat encoding, so
/// single-cluster builds stay bit-identical to what they always were;
/// `clusters > 1` packs the hierarchical encoding, which raises the
/// per-thread MVL to `64 * clusters / threads` on a clustered machine.
pub fn vltcfg_operand(threads: usize, clusters: usize) -> u64 {
    if clusters <= 1 {
        threads as u64
    } else {
        vlt_isa::vltcfg::operand(threads as u8, clusters as u8)
    }
}

/// Render a `.double` data block.
pub fn data_doubles(label: &str, values: &[f64]) -> String {
    let vals: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("{label}:\n    .double {}\n", vals.join(", "))
}

/// Render a `.dword` data block.
pub fn data_dwords(label: &str, values: &[u64]) -> String {
    let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("{label}:\n    .dword {}\n", vals.join(", "))
}

/// Read `n` f64 values starting at symbol `sym`.
pub fn read_f64s(sim: &FuncSim, sym: &str, n: usize) -> Vec<f64> {
    let base = sim.prog.program.symbol(sym).unwrap_or_else(|| panic!("symbol {sym}"));
    (0..n).map(|i| sim.mem.read_f64(base + 8 * i as u64)).collect()
}

/// Read `n` u64 values starting at symbol `sym`.
pub fn read_u64s(sim: &FuncSim, sym: &str, n: usize) -> Vec<u64> {
    let base = sim.prog.program.symbol(sym).unwrap_or_else(|| panic!("symbol {sym}"));
    (0..n).map(|i| sim.mem.read_u64(base + 8 * i as u64)).collect()
}

/// Compare f64 arrays bit-exactly (the golden model replays the same
/// operation order, so results must match exactly).
pub fn expect_f64s(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!("{what}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Compare u64 arrays.
pub fn expect_u64s(got: &[u64], want: &[u64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!("{what}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Emit a serial (thread-0-only) scalar phase: an integer reduction over
/// `count` 8-byte words starting at `array`, stored to `out`. Bracketed by
/// barriers and marked `region 0`, it models each application's
/// non-parallelizable portion — the complement of Table 4's "% opportunity".
/// `x10` must still hold the thread id.
pub fn serial_phase(array: &str, count: usize, out: &str) -> String {
    assert!(count.is_multiple_of(4) && count > 0, "serial phase walks four items per block");
    let iters = count / 4;
    format!(
        r#"
        region  0
        barrier
        bnez    x10, serial_skip
        # Unrolled four-wide with ping-ponged register sets: every load
        # leads its use by a full unrolled block, so the walk runs at the
        # chain rate even on an in-order lane without an L1. (Loads may
        # over-read up to 56 bytes past the array; the values are unused.)
        la      x4, {array}
        li      x5, {iters}
        li      x6, 0
        ld      x7, 0(x4)
        ld      x15, 8(x4)
        ld      x16, 16(x4)
        ld      x19, 24(x4)
    serial_loop:
        add     x6, x6, x7
        xor     x8, x6, x7
        srli    x8, x8, 3
        add     x6, x6, x8
        add     x6, x6, x15
        xor     x8, x6, x15
        srli    x8, x8, 3
        add     x6, x6, x8
        ld      x7, 32(x4)
        ld      x15, 40(x4)
        add     x6, x6, x16
        xor     x8, x6, x16
        srli    x8, x8, 3
        add     x6, x6, x8
        add     x6, x6, x19
        xor     x8, x6, x19
        srli    x8, x8, 3
        add     x6, x6, x8
        ld      x16, 48(x4)
        ld      x19, 56(x4)
        addi    x4, x4, 32
        addi    x5, x5, -1
        bnez    x5, serial_loop
        la      x4, {out}
        sd      x6, 0(x4)
    serial_skip:
        barrier
"#
    )
}

/// Golden model of [`serial_phase`]'s reduction.
pub fn serial_golden(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &w in words {
        acc = acc.wrapping_add(w);
        let x = (acc ^ w) >> 3;
        acc = acc.wrapping_add(x);
    }
    acc
}

/// Deterministic xorshift64* stream for workload input data.
pub fn rng_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed.max(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Test.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_parses_only_its_lowercase_names() {
        assert_eq!("test".parse(), Ok(Scale::Test));
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("full".parse(), Ok(Scale::Full));
        for bad in ["Test", "SMALL", "", "large"] {
            let err = bad.parse::<Scale>().unwrap_err();
            assert!(err.contains("test | small | full"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn data_rendering_assembles() {
        let src = format!(
            ".data\n{}{}\n.text\nhalt\n",
            data_doubles("dd", &[1.5, -2.0]),
            data_dwords("ww", &[1, 2, 3])
        );
        let p = assemble(&src).unwrap();
        assert_eq!(p.data.len(), 2 * 8 + 3 * 8);
    }

    #[test]
    fn rng_stream_is_deterministic() {
        assert_eq!(rng_stream(42, 5), rng_stream(42, 5));
        assert_ne!(rng_stream(42, 5), rng_stream(43, 5));
    }

    #[test]
    fn expect_helpers() {
        assert!(expect_f64s(&[1.0], &[1.0], "x").is_ok());
        assert!(expect_f64s(&[1.0], &[1.0 + f64::EPSILON], "x").is_err());
        assert!(expect_u64s(&[1], &[1, 2], "x").is_err());
    }
}
