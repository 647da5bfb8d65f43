//! Properties of the pooled frame-buffer system (PR 2's zero-allocation
//! hot path): recycling must never let a reused buffer alias a live
//! frame, and pooling must be invisible to simulation results.

use daiet_mapreduce::runner::{Runner, ShuffleMode};
use daiet_mapreduce::wordcount::{Corpus, CorpusSpec};
use daiet_netsim::{Frame, FramePool};
use proptest::prelude::*;
use std::sync::Arc;

/// Interpreter for a random op sequence against one pool. Every live
/// frame remembers the exact bytes it was built with; after each step,
/// every live frame must still read back those bytes — if the pool ever
/// handed a live frame's buffer to a new allocation, the fill pattern
/// would clobber it and this check fails.
fn run_ops(ops: Vec<(u8, u8)>) {
    let pool = FramePool::with_max_free(4); // tiny free list: maximum reuse pressure
    let mut live: Vec<(Frame, Vec<u8>)> = Vec::new();
    let mut counter: u8 = 0;

    for (op, arg) in ops {
        match op % 4 {
            // Allocate a new frame filled with a unique pattern.
            0 | 1 => {
                counter = counter.wrapping_add(1);
                let len = 1 + (arg as usize % 64);
                let mut buf = pool.buffer();
                assert!(buf.is_empty(), "pool handed out a dirty buffer");
                buf.resize(len, counter);
                let expect = buf.clone();
                live.push((pool.frame(buf), expect));
            }
            // Clone an existing live frame (shares the buffer).
            2 => {
                if !live.is_empty() {
                    let i = arg as usize % live.len();
                    let cloned = (live[i].0.clone(), live[i].1.clone());
                    live.push(cloned);
                }
            }
            // Drop a live frame (its buffer may return to the pool).
            _ => {
                if !live.is_empty() {
                    let i = arg as usize % live.len();
                    live.swap_remove(i);
                }
            }
        }
        // Invariant: recycling never aliases a live buffer.
        for (frame, expect) in &live {
            prop_assert_eq!(&frame[..], expect.as_slice(), "live frame was clobbered");
        }
    }
    // Everything dropped at the end returns home; the free list respects
    // its cap.
    drop(live);
    prop_assert!(pool.free_buffers() <= 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recycled_buffers_never_alias_live_frames(
        ops in prop::collection::vec((any::<u8>(), any::<u8>()), 1..200),
    ) {
        run_ops(ops);
    }
}

/// Pooling is a pure allocation strategy: running the fig3 shuffle with
/// buffer recycling on and off must produce bit-identical outcomes for a
/// pinned seed.
#[test]
fn pooled_and_unpooled_fig3_runs_are_identical() {
    let corpus = Corpus::generate(&CorpusSpec {
        n_mappers: 6,
        n_reducers: 3,
        register_cells: 256,
        ..CorpusSpec::paper_scaled(3 * 64, 7)
    });
    let mut pooled = Runner::new(corpus.clone());
    pooled.daiet_config.register_cells = 256;
    let mut unpooled = Runner::new(corpus);
    unpooled.daiet_config.register_cells = 256;
    unpooled.pooling = false;

    for mode in [ShuffleMode::TcpBaseline, ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg] {
        let a = pooled.run(mode);
        let b = unpooled.run(mode);
        assert!(a.all_correct(), "{mode:?} pooled run incorrect");
        assert!(b.all_correct(), "{mode:?} unpooled run incorrect");
        assert_eq!(a.finished_at, b.finished_at, "{mode:?} timing diverged");
        assert_eq!(a.frames_dropped, b.frames_dropped);
        assert_eq!(
            format!("{:?}", a.reducers),
            format!("{:?}", b.reducers),
            "{mode:?} reducer metrics diverged"
        );
    }
    // The two runners hold clones of one corpus, which share one set of
    // map-output buffers: two handles each, and no run left a third.
    for pairs in pooled.corpus.partitions.iter().flatten() {
        assert_eq!(Arc::strong_count(pairs), 2);
    }
}

/// Senders build each frame at its transmit tick, so a frame's buffer is
/// out of the pool only while the frame is in flight. What a whole fig3
/// shuffle allocates is therefore bounded by the largest in-flight
/// population — a few frames per link while the mappers stream, and the
/// switch's END-time flush burst (one frame per ten distinct keys) queued
/// toward the reducers — not by the frames it sends; everything else it
/// hands out is a recycled buffer, from the first job on.
#[test]
fn fresh_buffers_are_bounded_by_frames_in_flight_not_frames_sent() {
    let distinct_words = 12 * 512;
    let corpus = Corpus::generate(&CorpusSpec::paper_scaled(distinct_words, 7));
    let sent = (corpus.total_records() / 10) as u64; // 10 pairs per DATA frame
    assert!(sent > 6_000, "the corpus is too small to tell the two bounds apart");
    for mode in [ShuffleMode::UdpNoAgg, ShuffleMode::DaietAgg] {
        let runner = Runner::new(corpus.clone());
        assert!(runner.run(mode).all_correct());
        let pool = runner.pool_stats();
        let handed_out = pool.fresh + pool.reused;
        assert!(handed_out >= sent, "{mode:?}: {handed_out} buffers for {sent} frames");
        let flush_burst = (distinct_words / 10 + 12) as u64;
        assert!(
            pool.fresh <= flush_burst + 100,
            "{mode:?}: {} fresh buffers for {sent} frames sent, flush burst {flush_burst}",
            pool.fresh
        );
        let reuse = pool.reused as f64 / handed_out as f64;
        assert!(reuse >= 0.9, "{mode:?}: reuse ratio {reuse:.3}");
    }
}
