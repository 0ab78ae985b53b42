//! Property tests on the vector unit: for any dispatch sequence, the
//! utilization accounting stays exact, completions are sane, window
//! capacity is respected, and `poll` reports each completion exactly once.

use proptest::prelude::*;
use std::sync::Arc;
use vlt_core::{VectorUnit, VuConfig};

use vlt_exec::{AddrArena, AddrRange, DecodedProgram};
use vlt_isa::asm::assemble;
use vlt_isa::OpClass;
use vlt_mem::{MemConfig, MemSystem};
use vlt_scalar::{VecDispatch, VecToken, VectorSink};

const CLASS_PROG: &str = "\
vfadd.vv v1, v2, v3
vfmul.vv v1, v2, v3
vfdiv.vv v1, v2, v3
vld v1, x1
vst v1, x1
vmset
halt
";

fn sidx_for(class: OpClass) -> u32 {
    match class {
        OpClass::VAdd => 0,
        OpClass::VMul => 1,
        OpClass::VDiv => 2,
        OpClass::VLoad => 3,
        OpClass::VStore => 4,
        _ => 5,
    }
}

fn prog() -> Arc<DecodedProgram> {
    DecodedProgram::new(&assemble(CLASS_PROG).unwrap())
}

/// Blocks of `CLASS_PROG`'s six classes. Dispatch `n` of class `c` uses
/// sidx `6n + sidx_for(c)`, so every dispatch of a run has its own sidx
/// and the issue log (which carries sidx, not tokens) names it.
const BLOCKS: usize = 64;

fn wide_prog() -> Arc<DecodedProgram> {
    let block: String = CLASS_PROG.lines().take(6).map(|l| format!("{l}\n")).collect();
    DecodedProgram::new(&assemble(&(block.repeat(BLOCKS) + "halt\n")).unwrap())
}

#[derive(Debug, Clone)]
struct Req {
    class_pick: u8,
    vl: u16,
    vthread: u8,
}

fn class_of(pick: u8) -> OpClass {
    match pick % 6 {
        0 => OpClass::VAdd,
        1 => OpClass::VMul,
        2 => OpClass::VDiv,
        3 => OpClass::VLoad,
        4 => OpClass::VStore,
        _ => OpClass::VMask,
    }
}

fn arb_req() -> impl Strategy<Value = Req> {
    (any::<u8>(), 1u16..=64, 0u8..4).prop_map(|(class_pick, vl, vthread)| Req {
        class_pick,
        vl,
        vthread,
    })
}

/// One step of a poll-contract run: a dispatch request, the ticks to wait
/// before the next one, and the producers it reads.
#[derive(Debug, Clone)]
struct Step {
    req: Req,
    gap: u8,
    /// Read the same thread's previous vector instruction, if still in
    /// flight (as the scalar unit's rename snapshot would).
    chain: bool,
    /// Read a scalar producer that resolves this many cycles after dispatch.
    scalar_delay: Option<u8>,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (arb_req(), 0u8..4, any::<bool>(), any::<bool>(), 0u8..12).prop_map(
        |(req, gap, chain, scalar, delay)| Step {
            req,
            gap,
            chain,
            scalar_delay: scalar.then_some(delay),
        },
    )
}

/// A token handed out by the unit under test.
struct Tok {
    token: VecToken,
    vthread: usize,
    seq: u64,
    sidx: u32,
    /// (issue cycle, completion cycle) from the issue log.
    issued: Option<(u64, u64)>,
    reported: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the unit as a scalar unit would — poll every outstanding token
    /// in dispatch order and resolve its consumers, resolve scalar
    /// producers, dispatch, tick — at 1, 2 and 4 partitions, as cluster 1
    /// of 2 (`set_thread_map(2, 1)`). Every token polls `Some` exactly
    /// once, never before the cycle after its issue and always with its
    /// logged completion cycle; reported and unknown tokens poll `None`;
    /// once all are reported the unit drains and can repartition.
    #[test]
    fn poll_reports_each_completion_once(steps in proptest::collection::vec(arb_step(), 1..60)) {
        prop_assert!(steps.len() < BLOCKS);
        for threads in [1usize, 2, 4] {
            let cfg = VuConfig::base(8).with_threads(threads);
            let mut vu = VectorUnit::new(cfg, wide_prog());
            vu.set_thread_map(2, 1);
            vu.set_issue_logging(true);
            let mut mem = MemSystem::new(MemConfig::default(), 1, 8);
            let mut arena = AddrArena::new(4);
            let mut toks: Vec<Tok> = Vec::new();
            // Scalar producers still to resolve: (thread, seq, cycle).
            let mut scalar: Vec<(usize, u64, u64)> = Vec::new();
            let mut last_vec: [Option<usize>; 4] = [None; 4];
            let (mut next, mut wait_until, mut now) = (0usize, 0u64, 0u64);

            while (next < steps.len() || toks.iter().any(|t| !t.reported)) && now < 100_000 {
                for t in toks.iter_mut() {
                    if t.reported {
                        prop_assert_eq!(vu.poll(t.token), None, "reported token polled again");
                        continue;
                    }
                    if let Some(c) = vu.poll(t.token) {
                        let (start, done) = t.issued.expect("polled Some before it issued");
                        prop_assert!(start < now, "polled in its issue cycle");
                        prop_assert_eq!(c, done);
                        t.reported = true;
                        vu.resolve(t.vthread, t.seq, c);
                    }
                }
                prop_assert_eq!(vu.poll(VecToken(1 << 40)), None, "unknown token");
                scalar.retain(|&(v, seq, at)| {
                    if at == now {
                        vu.resolve(v, seq, now + 1);
                    }
                    at != now
                });

                if next < steps.len() && now >= wait_until {
                    let st = &steps[next];
                    let vthread = st.req.vthread as usize % threads;
                    let class = class_of(st.req.class_pick);
                    let vl = st.req.vl.min((64 / threads) as u16);
                    // Even seqs are vector instructions, odd ones scalar producers.
                    let seq = 2 * next as u64;
                    let mut deps = Vec::new();
                    let mut scalar_deps = Vec::new();
                    if let Some(i) = last_vec[vthread].filter(|&i| st.chain && !toks[i].reported) {
                        deps.push(toks[i].seq);
                    }
                    if st.scalar_delay.is_some() {
                        deps.push(seq + 1);
                        scalar_deps.push(seq + 1);
                    }
                    let sidx = (6 * next) as u32 + sidx_for(class);
                    let d = VecDispatch {
                        vthread,
                        sidx,
                        vl,
                        class,
                        addrs: if class.is_mem() {
                            let elems: Vec<u64> =
                                (0..vl as u64).map(|e| 0x10000 + 8 * e).collect();
                            arena.alloc(vthread, &elems)
                        } else {
                            AddrRange::EMPTY
                        },
                        seq,
                        deps,
                        scalar_deps,
                        ready_base: 0,
                    };
                    if vu.has_room(vthread) {
                        let token = vu.try_dispatch(d, now).expect("has_room promised a slot");
                        if let Some(delay) = st.scalar_delay {
                            scalar.push((vthread, seq + 1, now + 1 + delay as u64));
                        }
                        last_vec[vthread] = Some(toks.len());
                        toks.push(Tok { token, vthread, seq, sidx, issued: None, reported: false });
                        next += 1;
                        wait_until = now + st.gap as u64;
                    } else {
                        prop_assert!(vu.try_dispatch(d, now).is_none(), "full unit accepted");
                    }
                }

                vu.tick(now, &mut mem, None, &arena, 0, 2 * threads, false);
                for ev in vu.issue_log() {
                    let t = toks.iter_mut().find(|t| t.sidx == ev.sidx).expect("issued a token");
                    prop_assert_eq!(ev.vthread as usize, 2 * t.vthread + 1, "global thread id");
                    prop_assert!(t.issued.is_none(), "issued twice");
                    t.issued = Some((ev.start, ev.done));
                }
                vu.clear_issue_log();
                now += 1;
            }
            prop_assert_eq!(next, steps.len(), "every step dispatched");
            prop_assert!(toks.iter().all(|t| t.reported), "every token reported");
            prop_assert!(vu.drained(), "reported entries leave the window");
            vu.repartition(if threads == 1 { 2 } else { 1 });
        }
    }

    /// Dispatch a random stream of independent vector instructions at 1, 2,
    /// and 4 partitions: every accepted instruction completes, completions
    /// never precede dispatch, and the Figure-4 accounting covers exactly
    /// 3 * lanes datapath-slots per cycle.
    #[test]
    fn random_streams_complete_exactly(reqs in proptest::collection::vec(arb_req(), 1..60)) {
        for threads in [1usize, 2, 4] {
            let cfg = VuConfig::base(8).with_threads(threads);
            let mut vu = VectorUnit::new(cfg, prog());
            let mut mem = MemSystem::new(MemConfig::default(), 1, 8);
            let mut arena = AddrArena::new(4);
            let mut pending: Vec<(VecToken, u64)> = Vec::new();
            let mut next = 0usize;
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut done_count = 0usize;
            let mut accepted = 0usize;

            while (next < reqs.len() || !pending.is_empty()) && now < 200_000 {
                // Try to dispatch the next request.
                if next < reqs.len() {
                    let r = &reqs[next];
                    let vthread = (r.vthread as usize) % threads;
                    let class = class_of(r.class_pick);
                    let vl = r.vl.min((64 / threads) as u16);
                    let d = VecDispatch {
                        vthread,
                        sidx: sidx_for(class),
                        vl,
                        class,
                        addrs: if class.is_mem() {
                            let elems: Vec<u64> =
                                (0..vl as u64).map(|e| 0x10000 + 8 * e).collect();
                            arena.alloc(vthread, &elems)
                        } else {
                            AddrRange::EMPTY
                        },
                        seq,
                        deps: vec![],
                        scalar_deps: vec![],
                        ready_base: 0,
                    };
                    if let Some(tok) = vu.try_dispatch(d, now) {
                        pending.push((tok, now));
                        next += 1;
                        seq += 1;
                        accepted += 1;
                    }
                }
                vu.tick(now, &mut mem, None, &arena, 0, threads, false);
                let mut bad_completion = None;
                pending.retain(|(tok, dispatched)| match vu.poll(*tok) {
                    Some(t) => {
                        if t <= *dispatched {
                            bad_completion = Some((t, *dispatched));
                        }
                        done_count += 1;
                        false
                    }
                    None => true,
                });
                prop_assert!(bad_completion.is_none(), "completion before dispatch: {bad_completion:?}");
                now += 1;
            }
            prop_assert_eq!(done_count, accepted, "every accepted instruction completes");
            prop_assert_eq!(next, reqs.len(), "every request eventually dispatches");
            // Figure-4 invariant.
            prop_assert_eq!(vu.util.total(), 3 * 8 * now, "utilization accounting exact");
            // Busy element-cycles never exceed the 24 datapaths.
            prop_assert!(vu.util.busy <= 24 * now);
        }
    }
}

#[test]
fn window_capacity_is_partition_scoped() {
    let mut vu = VectorUnit::new(VuConfig::base(8).with_threads(4), prog());
    // Each partition holds window/4 = 8 entries.
    for p in 0..4usize {
        for i in 0..8 {
            let d = VecDispatch {
                vthread: p,
                sidx: 0,
                vl: 8,
                class: OpClass::VAdd,
                addrs: AddrRange::EMPTY,
                seq: (p * 8 + i) as u64,
                deps: vec![],
                scalar_deps: vec![],
                ready_base: 0,
            };
            assert!(vu.try_dispatch(d, 0).is_some(), "partition {p} entry {i}");
        }
        let d = VecDispatch {
            vthread: p,
            sidx: 0,
            vl: 8,
            class: OpClass::VAdd,
            addrs: AddrRange::EMPTY,
            seq: 1000 + p as u64,
            deps: vec![],
            scalar_deps: vec![],
            ready_base: 0,
        };
        assert!(vu.try_dispatch(d, 0).is_none(), "partition {p} must be full");
    }
}
