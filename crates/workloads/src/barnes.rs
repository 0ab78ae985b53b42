//! `barnes` — galaxy system simulation (Table 4: not vectorized, 98%
//! opportunity).
//!
//! The force-computation phase of a Barnes-Hut step: each body walks its
//! interaction list (pointer chasing through shuffled nodes) accumulating
//! `m / (dx*dx + eps)` terms — long divide-latency chains with almost no
//! ILP. This is the workload whose per-thread performance suffers on a
//! 2-way in-order lane, making VLT and the CMT baseline tie (Figure 6).

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_doubles, expect_f64s, read_f64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Barnes;

/// Average interaction-list length.
const LIST_LEN: usize = 12;

fn masses(nb: usize) -> Vec<f64> {
    rng_stream(0xBA51, nb).into_iter().map(|v| ((v % 64) + 1) as f64 / 8.0).collect()
}

fn positions(nb: usize) -> Vec<f64> {
    rng_stream(0xBA52, nb).into_iter().map(|v| (v % 1024) as f64 / 32.0).collect()
}

/// Interaction lists: for body i, a list of partner body indices, laid out
/// as linked nodes `(partner, next_byte_offset)` *shuffled* in memory so
/// the walk is genuine pointer chasing.
fn lists(nb: usize) -> (Vec<u64>, Vec<Vec<usize>>) {
    let rand = rng_stream(0xBA53, nb * LIST_LEN + nb);
    let mut partners: Vec<Vec<usize>> = Vec::with_capacity(nb);
    for i in 0..nb {
        let len = LIST_LEN / 2 + (rand[i] as usize % LIST_LEN); // 6..=17
        partners
            .push((0..len).map(|k| rand[(i * LIST_LEN + k) % rand.len()] as usize % nb).collect());
    }
    // Allocate nodes in a shuffled global order.
    let total: usize = partners.iter().map(|p| p.len()).sum();
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(total);
    for (i, p) in partners.iter().enumerate() {
        for k in 0..p.len() {
            order.push((i, k));
        }
    }
    // Deterministic shuffle.
    let sh = rng_stream(0xBA54, total);
    for i in (1..total).rev() {
        order.swap(i, sh[i] as usize % (i + 1));
    }
    // node slot per (body, k)
    let mut slot = vec![Vec::new(); nb];
    let mut slot_of = std::collections::HashMap::new();
    for (s, key) in order.iter().enumerate() {
        slot_of.insert(*key, s);
    }
    for (i, p) in partners.iter().enumerate() {
        slot[i] = (0..p.len()).map(|k| slot_of[&(i, k)]).collect();
    }
    // nodes: 2 dwords each: (partner_index, next_node_byte_offset or 0)
    let mut nodes = vec![0u64; total * 2];
    for (i, p) in partners.iter().enumerate() {
        for k in 0..p.len() {
            let s = slot[i][k];
            nodes[s * 2] = p[k] as u64;
            nodes[s * 2 + 1] = if k + 1 < p.len() {
                (slot[i][k + 1] * 16) as u64 + 1 // +1 tags "valid"
            } else {
                0
            };
        }
    }
    // heads: byte offset of first node per body (tagged +1), or 0 if empty
    let mut heads = vec![0u64; nb];
    for (i, p) in partners.iter().enumerate() {
        if !p.is_empty() {
            heads[i] = (slot[i][0] * 16) as u64 + 1;
        }
    }
    let mut blob = heads;
    blob.extend_from_slice(&nodes);
    (blob, partners)
}

fn golden(nb: usize) -> Vec<f64> {
    let m = masses(nb);
    let pos = positions(nb);
    let (_, partners) = lists(nb);
    let eps = 0.5f64;
    let mut f = vec![0.0f64; nb];
    for i in 0..nb {
        let mut acc = 0.0f64;
        for &j in &partners[i] {
            let dx = pos[i] - pos[j];
            let d2 = dx * dx + eps;
            acc += m[j] / d2;
        }
        f[i] = acc;
    }
    f
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn vectorizable(&self) -> bool {
        false
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: None,
            avg_vl: None,
            common_vls: &[],
            opportunity: Some(98.0),
            description: "galaxy system simulation",
        }
    }

    fn build_spread(&self, threads: usize, _clusters: usize, scale: Scale) -> Built {
        let nb: usize = scale.pick(64, 1024, 2048);
        assert!(nb.is_multiple_of(threads));
        let (blob, _) = lists(nb);
        let src = format!(
            r#"
        .data
    {m_data}
    {p_data}
    heads:
        .dword {blob}
    force:
        .zero {fbytes}
        .text
        # the interaction-list walk is genuine pointer chasing: node
        # addresses come from `next` links loaded at run time. The race
        # checker's walk follows them and sees the reads stay inside the
        # read-only m/pos/heads arrays, so no allow is needed.
        tid     x10
        li      x11, {bodies_per_thread}
        mul     x12, x10, x11
        add     x13, x12, x11
        la      x20, m
        la      x21, pos
        la      x22, heads
        la      x24, force
        # nodes start right after the heads table
        li      x4, {heads_bytes}
        add     x23, x22, x4       # &nodes
        # eps = 0.5
        li      x4, 1
        fcvt.f.x f10, x4
        li      x4, 2
        fcvt.f.x f11, x4
        fdiv    f10, f10, f11
        region  1
        mv      x14, x12           # body i
    body:
        slli    x4, x14, 3
        add     x5, x21, x4
        fld     f1, 0(x5)          # pos[i]
        fcvt.f.x f2, x0            # acc = 0.0
        add     x5, x22, x4
        ld      x15, 0(x5)         # head (tagged)
    walk:
        beqz    x15, done
        addi    x15, x15, -1       # strip tag -> byte offset
        add     x16, x23, x15
        ld      x17, 0(x16)        # partner j
        ld      x15, 8(x16)        # next (tagged)
        slli    x17, x17, 3
        add     x5, x21, x17
        fld     f3, 0(x5)          # pos[j]
        fsub    f4, f1, f3         # dx
        fmul    f4, f4, f4
        fadd    f4, f4, f10        # d2
        add     x5, x20, x17
        fld     f5, 0(x5)          # m[j]
        fdiv    f5, f5, f4
        fadd    f2, f2, f5
        j       walk
    done:
        add     x5, x24, x4
        fsd     f2, 0(x5)
        addi    x14, x14, 1
        blt     x14, x13, body
        region  0
        barrier
        halt
    "#,
            m_data = data_doubles("m", &masses(nb)),
            p_data = data_doubles("pos", &positions(nb)),
            blob = blob.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
            fbytes = 8 * nb,
            bodies_per_thread = nb / threads,
            heads_bytes = 8 * nb,
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("barnes: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            expect_f64s(&read_f64s(sim, "force", nb), &golden(nb), "barnes force")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Barnes.build(1, Scale::Test).run_functional(1, 20_000_000).unwrap();
    }

    #[test]
    fn eight_threads_verify() {
        Barnes.build(8, Scale::Test).run_functional(8, 20_000_000).unwrap();
    }

    #[test]
    fn lists_are_shuffled_but_complete() {
        let (blob, partners) = lists(32);
        let total: usize = partners.iter().map(|p| p.len()).sum();
        assert_eq!(blob.len(), 32 + total * 2);
        // Every list has at least LIST_LEN/2 partners.
        assert!(partners.iter().all(|p| p.len() >= LIST_LEN / 2));
    }
}
