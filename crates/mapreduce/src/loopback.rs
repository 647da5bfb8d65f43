//! WordCount over the real-time UDP loopback backend.
//!
//! The same corpus, controller deployment and protocol nodes as
//! [`Runner::run_on`](crate::Runner) with a UDP mode — but instead of a
//! simulator, every slot runs a [`daiet_fabric::NodeDriver`] on its own
//! thread, exchanging genuine datagrams over `127.0.0.1`. This is the
//! backend-equivalence anchor: for a loss-free run (or a lossy run with
//! NACK recovery armed), the reducers' sorted output must be
//! **byte-identical** to the simulator's — `tests/fabric_properties.rs`
//! asserts it.

use crate::Runner;
use daiet::controller::{AggregationMode, Controller};
use daiet::loopback::{wall_clock_config, LoopbackJob, ReducerReport};
use daiet::AggFn;
use daiet_fabric::{DriverStats, ExitReason, FaultShim};
use daiet_netsim::topology::TopologyPlan;

/// One loopback WordCount run's results.
#[derive(Debug)]
pub struct LoopbackOutcome {
    /// Per-reducer reports, indexed by reducer.
    pub reducers: Vec<ReducerReport>,
    /// Per-reducer sorted `(word, count)` output, decoded from the keys
    /// — directly comparable to [`Corpus::expected_reduction`] and to
    /// the simulator runner's read-out.
    ///
    /// [`Corpus::expected_reduction`]: crate::Corpus::expected_reduction
    pub words: Vec<Vec<(String, u32)>>,
    /// Frames dropped by fault shims across all slots.
    pub shim_dropped: u64,
    /// Per-slot driver socket counters.
    pub driver_stats: Vec<DriverStats>,
    /// Whether any driver hit the wall-clock deadline (a wedged run).
    pub deadlined: bool,
}

impl LoopbackOutcome {
    /// True when every reducer completed with exact ground-truth output.
    pub fn all_correct(&self, runner: &Runner) -> bool {
        self.reducers.iter().enumerate().all(|(r, rep)| {
            rep.complete
                && rep.recovery_satisfied
                && self.words[r] == runner.corpus.expected_reduction(r)
        })
    }
}

/// Runs the corpus's WordCount shuffle over loopback UDP sockets:
/// `shim_for(slot)` supplies each slot's egress fault injection
/// ([`FaultShim::none`] for a clean run), `deadline` bounds the
/// wall-clock run time. The runner's `daiet_config` is rescaled with
/// [`wall_clock_config`] — the run is in real time, so sim-scale NACK
/// timeouts would fire off spuriously.
pub fn run_wordcount_loopback(
    runner: &Runner,
    plan: &TopologyPlan,
    mode: AggregationMode,
    shim_for: impl FnMut(usize) -> FaultShim,
    deadline: std::time::Duration,
) -> LoopbackOutcome {
    let mut shim_for = shim_for;
    let placement = runner.placement(plan);
    let config = wall_clock_config(runner.daiet_config);
    let job = LoopbackJob::deploy(
        Controller::new(config, AggFn::Sum),
        plan.clone(),
        placement.clone(),
        runner.resources,
        mode,
    )
    .expect("deployment fits");

    // Cloning the table clones handles, not pairs: each driver thread
    // reads the corpus's own buffers.
    let shards = runner.corpus.partitions.clone();
    // Sim pacing is tuned for virtual time; at wall clock the driver
    // loop itself paces (one timer fire per iteration), so anything at
    // or above the timer-wheel granularity behaves the same. Clamp up
    // to 50 µs to keep kernel socket buffers comfortable.
    let pacing = daiet_fabric::Duration::from_nanos(runner.pacing.as_nanos().max(50_000));
    let mut specs = job.specs(shards, pacing, runner.redundancy);
    for (slot, spec) in specs.iter_mut().enumerate() {
        spec.shim = shim_for(slot);
    }
    let out = daiet_fabric::run_cluster(specs, &job.links(), deadline);

    let deadlined = out.iter().any(|o| o.exit == ExitReason::Deadline);
    let shim_dropped = out.iter().map(|o| o.stats.shim_dropped).sum();
    let driver_stats: Vec<DriverStats> = out.iter().map(|o| o.stats).collect();
    let mut outcomes: Vec<Option<ReducerReport>> = out
        .into_iter()
        .map(|o| o.result.downcast::<ReducerReport>().ok().map(|b| *b))
        .collect();
    let reducers: Vec<ReducerReport> = placement
        .reducers
        .iter()
        .map(|&slot| outcomes[slot].take().expect("reducer slots produce reports"))
        .collect();
    let words: Vec<Vec<(String, u32)>> = reducers
        .iter()
        .map(|rep| {
            rep.pairs.iter().map(|(k, v)| (k.display_lossy(), *v)).collect()
        })
        .collect();
    LoopbackOutcome { reducers, words, shim_dropped, driver_stats, deadlined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordcount::{Corpus, CorpusSpec};
    use std::sync::Arc;

    /// A tiny corpus end-to-end over real sockets, in-network
    /// aggregation, no injected loss: every reducer must land exactly on
    /// the ground truth.
    #[test]
    fn tiny_wordcount_completes_over_loopback() {
        let runner = Runner::new(Corpus::generate(&CorpusSpec::tiny(3)));
        let plan = runner.star_plan();
        let out = run_wordcount_loopback(
            &runner,
            &plan,
            AggregationMode::InNetwork,
            |_| FaultShim::none(),
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "run hit the deadline");
        assert!(out.all_correct(&runner), "reducers diverged from ground truth");
        assert_eq!(out.shim_dropped, 0);
        // The driver threads read the corpus's buffers and gave them back.
        for pairs in runner.corpus.partitions.iter().flatten() {
            assert_eq!(Arc::strong_count(pairs), 1);
        }
    }

    /// Seeded loss on the switch's egress — the frames that carry the
    /// aggregated results — with NACK recovery armed: the run must still
    /// land exactly, and must actually have dropped and recovered
    /// something.
    #[test]
    fn switch_egress_loss_is_nack_recovered_over_loopback() {
        let spec = CorpusSpec::tiny(5);
        let mut runner = Runner::new(Corpus::generate(&spec));
        runner.daiet_config.reliability = true;
        runner.daiet_config.nack_recovery = true;
        runner.daiet_config = runner.daiet_config.with_rtx_sized_for_flush();
        let plan = runner.star_plan();
        let switch_slot = plan.switches()[0];
        let out = run_wordcount_loopback(
            &runner,
            &plan,
            AggregationMode::InNetwork,
            |slot| {
                if slot == switch_slot {
                    // Scripted drop of egress frame 0 guarantees at least
                    // one loss even when the seeded 10% stream spares the
                    // handful of frames a tiny corpus produces.
                    FaultShim::seeded(77, 0.10, 0.0).with_scripted_drops([0])
                } else {
                    FaultShim::none()
                }
            },
            std::time::Duration::from_secs(60),
        );
        assert!(!out.deadlined, "recovery never converged");
        assert!(out.all_correct(&runner), "loss leaked into the result");
        assert!(out.shim_dropped > 0, "shim injected no loss — test is vacuous");
        let nacks: u64 = out.reducers.iter().map(|r| r.nacks_emitted).sum();
        assert!(nacks > 0, "loss was repaired without NACKs?");
    }
}
