//! The six workloads: how each generates its inputs from the seed, what one
//! job of it is, and how the job's result is checked against the host-side
//! reference.

use crate::job::{digest_of, draw_seed, Backend, JobData, Round};
use crate::simrun::{self, InSitu};
use crate::tenants::{self, MixInputs, MixShape, SharedTally};
use crate::udp;
use daiet::controller::AggregationMode;
use daiet::AggFn;
use daiet_fabric::FramePool;
use daiet_mapreduce::runner::{Runner, ShuffleMode};
use daiet_mapreduce::serialize;
use daiet_mapreduce::{Corpus, CorpusSpec};
use daiet_netsim::{FaultProfile, LinkSpec};
use daiet_wire::daiet::{Key, Pair};

/// Input sizes: the tracked ones, or tiny ones for the debug-profile tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one job yields besides its wall time. Every field is a pure
/// function of workload, seed and scale: a rep whose facts differ from the
/// warm-up's is a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    pub input_pairs: u64,
    /// Simulated nanoseconds until the last reducer had its input (the
    /// mix: first arrival to last departure).
    pub sim_done_ns: u64,
    /// Frames delivered to reducer NICs.
    pub reducer_frames: u64,
    /// Application bytes (DAIET preamble and entries) the reducers took in.
    pub reducer_app_bytes: u64,
    /// Digest of the verified result.
    pub digest: u64,
}

/// One workload, set up and ready to run jobs.
pub trait Instance {
    /// Runs one job and verifies it. An error is a failed operation.
    fn rep(&mut self) -> Result<Facts, String>;

    /// Like [`rep`](Self::rep) with the traced pass's instrumentation on,
    /// where the workload has any to switch on.
    fn rep_traced(&mut self, tally: &SharedTally) -> Result<Facts, String> {
        let _ = tally;
        self.rep()
    }

    /// The workload's traffic for the layer probes, as rounds of shards.
    fn job(&self) -> Result<JobData, String>;

    /// The corpus specification behind the workload's keys.
    fn corpus_spec(&self) -> CorpusSpec;

    /// Runs the job once more where the benchmark can read what it leaves
    /// behind in the simulator, the switches and the hosts. Returns those
    /// counts and the digest of the result that run produced. A single job
    /// runs on `simrun`'s star, twice, so the second finds the frame pool
    /// as a job finds it after its predecessor.
    fn in_situ(&self, job: &JobData, pool: &FramePool) -> Result<(InSitu, u64), String> {
        let round = &job.rounds[0];
        simrun::run_star(job, round, job.seed, pool);
        let digest_of_run = |got: &InSitu| digest_of(std::slice::from_ref(&got.results));
        let mut got = simrun::run_star(job, round, job.seed, pool);
        let digest = digest_of_run(&got);
        for draw in 1..job.fault_draws {
            let next = simrun::run_star(job, round, draw_seed(job.seed, draw), pool);
            if digest_of_run(&next) != digest {
                return Err(format!("fault draw {draw} changed the result"));
            }
            got.absorb(&next);
        }
        if !got.complete {
            return Err("the in-situ run left a reducer incomplete".into());
        }
        Ok((got, digest))
    }
}

pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Instance>, String> {
    match name {
        "shuffle_agg" | "shuffle_fwd" | "shuffle_spill" | "shuffle_chaos" => {
            Ok(Box::new(Shuffle::setup(name, seed, scale)))
        }
        "tenant_mix" => Ok(Box::new(TenantMix::setup(seed, scale)?)),
        "udp_shuffle" => Ok(Box::new(UdpShuffle::setup(seed, scale)?)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The figure-3 WordCount shuffle through `mapreduce::Runner`.
pub struct Shuffle {
    runner: Runner,
    mode: ShuffleMode,
    seed: u64,
    /// Shuffles one job runs, each under its own draw of the link faults.
    fault_draws: u64,
    input_pairs: u64,
    reference_digest: u64,
}

/// One fault draw decides a chaos shuffle's cost to within a tenth: a lost
/// END replays a whole flow, a lost DATA frame one frame. A job of eight
/// draws is steady enough to compare across seeds.
const CHAOS_DRAWS: u64 = 8;

impl Shuffle {
    fn setup(name: &str, seed: u64, scale: Scale) -> Shuffle {
        // (words per reducer, cells the corpus is collision-free against,
        // cells the switches run with)
        let (words, corpus_cells, cells) = match (name, scale) {
            ("shuffle_spill", Scale::Full) => (16_384, 16_384, 4_096),
            ("shuffle_chaos", Scale::Full) => (4_096, 4_096, 4_096),
            (_, Scale::Full) => (16_384, 16_384, 16_384),
            ("shuffle_spill", Scale::Smoke) => (128, 128, 32),
            (_, Scale::Smoke) => (128, 128, 128),
        };
        let spec = CorpusSpec {
            register_cells: corpus_cells,
            ..CorpusSpec::paper_scaled(words * 12, seed)
        };
        let corpus = Corpus::generate(&spec);
        let input_pairs = corpus.total_records() as u64;
        let reference: Vec<Vec<(Key, u32)>> = (0..spec.n_reducers)
            .map(|r| {
                corpus
                    .expected_reduction(r)
                    .iter()
                    .map(|(w, c)| (Key::from_str_key(w).expect("corpus words fit a key"), *c))
                    .collect()
            })
            .collect();
        let mut runner = Runner::new(corpus);
        runner.daiet_config.register_cells = cells;
        runner.seed = seed;
        runner.partitions = 1;
        let mut fault_draws = 1;
        if name == "shuffle_chaos" {
            runner = runner.with_recovery(FaultProfile::chaos(0.02, 0.01, 0.02, 20_000));
            fault_draws = CHAOS_DRAWS;
        }
        let mode = if name == "shuffle_fwd" {
            ShuffleMode::UdpNoAgg
        } else {
            ShuffleMode::DaietAgg
        };
        Shuffle {
            runner,
            mode,
            seed,
            fault_draws,
            input_pairs,
            reference_digest: digest_of(&[reference]),
        }
    }
}

impl Instance for Shuffle {
    fn rep(&mut self) -> Result<Facts, String> {
        let mut facts = Facts {
            input_pairs: self.input_pairs * self.fault_draws,
            sim_done_ns: 0,
            reducer_frames: 0,
            reducer_app_bytes: 0,
            // Each shuffle is verified pair for pair below, so the result's
            // digest is the reference's; the runner does not hand the pairs
            // back.
            digest: self.reference_digest,
        };
        for draw in 0..self.fault_draws {
            self.runner.seed = draw_seed(self.seed, draw);
            let out = self.runner.run(self.mode);
            // `correct` is the runner's own check: the reducer saw every
            // END and its merged pairs equal `Corpus::expected_reduction`.
            if let Some(bad) = out.reducers.iter().find(|r| !r.correct) {
                return Err(format!(
                    "reducer {} differs from the host reference",
                    bad.reducer
                ));
            }
            facts.sim_done_ns += out.data_done_at.as_nanos();
            facts.reducer_frames += out.reducers.iter().map(|r| r.nic_frames_in).sum::<u64>();
            facts.reducer_app_bytes += out.reducers.iter().map(|r| r.app_bytes).sum::<u64>();
        }
        Ok(facts)
    }

    fn job(&self) -> Result<JobData, String> {
        let corpus = &self.runner.corpus;
        let shards = corpus
            .partitions
            .iter()
            .map(|per_reducer| {
                per_reducer
                    .iter()
                    .map(|recs| serialize::to_pairs(recs))
                    .collect()
            })
            .collect();
        Ok(JobData {
            backend: Backend::Simulator,
            config: self.runner.daiet_config,
            mode: match self.mode {
                ShuffleMode::UdpNoAgg => AggregationMode::PassThrough,
                _ => AggregationMode::InNetwork,
            },
            link: self.runner.link,
            pacing: self.runner.pacing,
            seed: self.seed,
            rounds: vec![Round {
                aggs: vec![AggFn::Sum; corpus.spec.n_reducers],
                shards,
            }],
            fault_draws: self.fault_draws,
        })
    }

    fn corpus_spec(&self) -> CorpusSpec {
        self.runner.corpus.spec
    }
}

/// Twelve tenants of three kinds arriving on one shared fabric.
pub struct TenantMix {
    inputs: MixInputs,
    input_pairs: u64,
}

impl TenantMix {
    fn setup(seed: u64, scale: Scale) -> Result<TenantMix, String> {
        let shape = match scale {
            Scale::Full => MixShape::FULL,
            Scale::Smoke => MixShape::SMOKE,
        };
        let mut mix = TenantMix {
            inputs: MixInputs::generate(shape, seed),
            input_pairs: 0,
        };
        // The pair count only exists while the tenants hand out shards:
        // count it once, on an untimed run.
        let tally = SharedTally::default();
        mix.run(Some(&tally))?;
        mix.input_pairs = tally.borrow().pairs;
        Ok(mix)
    }

    fn run(&self, tally: Option<&SharedTally>) -> Result<Facts, String> {
        let (out, sched) = tenants::run(&self.inputs, tally)?;
        if out.jobs.iter().map(|j| j.rejections).sum::<u32>() == 0 {
            return Err("no admission was refused: the mix no longer fills the fabric".into());
        }
        let (reducer_frames, reducer_app_bytes) = tenants::reducer_intake(&out, &sched);
        Ok(Facts {
            input_pairs: self.input_pairs,
            sim_done_ns: out.makespan.as_nanos(),
            reducer_frames,
            reducer_app_bytes,
            digest: tenants::mix_digest(&out),
        })
    }
}

impl Instance for TenantMix {
    fn rep(&mut self) -> Result<Facts, String> {
        self.run(None)
    }

    fn rep_traced(&mut self, tally: &SharedTally) -> Result<Facts, String> {
        self.run(Some(tally))
    }

    /// A mix's shards only exist while it runs: one more mix, with the
    /// decorator keeping every round the scheduler asks for.
    fn job(&self) -> Result<JobData, String> {
        let capture = SharedTally::default();
        capture.borrow_mut().capture = true;
        self.run(Some(&capture))?;
        let rounds = std::mem::take(&mut capture.borrow_mut().rounds);
        let spec = tenants::fabric(&self.inputs.shape, self.inputs.seed);
        Ok(JobData {
            backend: Backend::Scheduler,
            config: spec.config,
            mode: AggregationMode::InNetwork,
            link: spec.plan.links()[0].2,
            pacing: spec.pacing,
            seed: spec.seed,
            rounds,
            fault_draws: 1,
        })
    }

    fn corpus_spec(&self) -> CorpusSpec {
        tenants::wordcount_spec(&self.inputs.shape, self.inputs.seed)
    }

    fn in_situ(&self, _job: &JobData, _pool: &FramePool) -> Result<(InSitu, u64), String> {
        let (out, sched) = tenants::run(&self.inputs, None)?;
        Ok((tenants::in_situ(&out, &sched), tenants::mix_digest(&out)))
    }
}

/// A loadgen-shaped job over real loopback sockets: many small flows of
/// pairs whose keys come from a collision-free dictionary.
pub struct UdpShuffle {
    config: daiet::DaietConfig,
    dictionary: CorpusSpec,
    pairs: Vec<Pair>,
    reference: Vec<(Key, u32)>,
    sim_done_ns: u64,
    seed: u64,
}

/// splitmix64: the flow generator's only randomness, seeded from `--seed`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl UdpShuffle {
    fn job_data(&self) -> JobData {
        JobData {
            backend: Backend::Sockets,
            config: self.config,
            mode: AggregationMode::InNetwork,
            link: LinkSpec::fast(),
            pacing: udp::PACING,
            seed: self.seed,
            rounds: vec![Round {
                aggs: vec![AggFn::Sum],
                shards: vec![vec![self.pairs.clone()]],
            }],
            fault_draws: 1,
        }
    }

    fn setup(seed: u64, scale: Scale) -> Result<UdpShuffle, String> {
        // The key space is small against the flows drawing from it, as in
        // `daiet-loadgen`: every key is hit, and the switch's END-time
        // flush (keys / 10 frames in one burst) stays far inside a
        // loopback socket's receive buffer.
        let (flows, pairs_per_flow, keys, cells) = match scale {
            Scale::Full => (600, 16, 512, 4096),
            Scale::Smoke => (20, 8, 32, 256),
        };
        // One mapper, one reducer, every word held once: the corpus
        // generator as a source of `keys` words that do not collide in
        // `cells` registers.
        let dictionary = CorpusSpec {
            n_mappers: 1,
            n_reducers: 1,
            mean_multiplicity: 1.0,
            sd_multiplicity: 0.0,
            register_cells: cells,
            ..CorpusSpec::paper_scaled(keys, seed)
        };
        let words: Vec<Key> = serialize::to_pairs(&Corpus::generate(&dictionary).partitions[0][0])
            .iter()
            .map(|p| p.key)
            .collect();
        // Flows share the key space, so the switch aggregates across them;
        // each flow is one pair shorter or longer than the next, so the
        // job's length follows the seed.
        let mut rng = seed;
        let mut pairs = Vec::with_capacity(flows * (pairs_per_flow + 1));
        for _ in 0..flows {
            for _ in 0..pairs_per_flow - 1 + (splitmix(&mut rng) % 3) as usize {
                let key = words[(splitmix(&mut rng) % words.len() as u64) as usize];
                pairs.push(Pair::new(key, (splitmix(&mut rng) % 97) as u32 + 1));
            }
        }
        let config = udp::config(cells);
        let round = Round {
            aggs: vec![AggFn::Sum],
            shards: vec![vec![pairs.clone()]],
        };
        let reference = round.reference().remove(0);

        // The simulator's account of the same job: the same nodes, the same
        // 50 µs pacing, virtual time. It gives the job its simulated
        // completion time and cross-checks the reference across backends.
        let mut shuffle = UdpShuffle {
            config,
            dictionary,
            pairs,
            reference,
            sim_done_ns: 0,
            seed,
        };
        let job = shuffle.job_data();
        let twin = simrun::run_star(&job, &job.rounds[0], seed, &FramePool::new());
        if !twin.complete || twin.results[0] != shuffle.reference {
            return Err("the simulated twin differs from the host reference".into());
        }
        shuffle.sim_done_ns = twin.sim_done_ns;
        Ok(shuffle)
    }
}

impl Instance for UdpShuffle {
    fn rep(&mut self) -> Result<Facts, String> {
        let run = udp::run_job(self.config, &self.pairs)?;
        if run.result != self.reference {
            return Err("the reducer's pairs differ from the host reference".into());
        }
        if run.total.send_errors + run.total.unknown_peer > 0 {
            return Err(format!(
                "{} send errors, {} datagrams from unknown peers",
                run.total.send_errors, run.total.unknown_peer
            ));
        }
        Ok(Facts {
            input_pairs: self.pairs.len() as u64,
            sim_done_ns: self.sim_done_ns,
            reducer_frames: run.reducer.frames_in,
            reducer_app_bytes: run.reducer_app_bytes,
            digest: digest_of(&[vec![run.result]]),
        })
    }

    fn job(&self) -> Result<JobData, String> {
        Ok(self.job_data())
    }

    fn corpus_spec(&self) -> CorpusSpec {
        self.dictionary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_fixed_sequence() {
        let mut s = 42;
        let a = [splitmix(&mut s), splitmix(&mut s)];
        let mut s = 42;
        assert_eq!(a, [splitmix(&mut s), splitmix(&mut s)]);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(setup("shuffle_tcp", 1, Scale::Smoke).is_err());
    }

    #[test]
    fn shuffles_pair_mechanism_with_bypass() {
        let mut agg = setup("shuffle_agg", 3, Scale::Smoke).unwrap();
        let mut fwd = setup("shuffle_fwd", 3, Scale::Smoke).unwrap();
        let mut spill = setup("shuffle_spill", 3, Scale::Smoke).unwrap();
        let (a, f, s) = (agg.rep().unwrap(), fwd.rep().unwrap(), spill.rep().unwrap());
        assert_eq!(a.input_pairs, f.input_pairs);
        assert_eq!(a.digest, f.digest, "same corpus, same reduction");
        assert_eq!(
            a.digest, s.digest,
            "spilling changes the path, not the result"
        );
        assert!(a.reducer_frames < s.reducer_frames && s.reducer_frames < f.reducer_frames);
        assert!(a.reducer_app_bytes < f.reducer_app_bytes);
        assert_eq!(
            agg.rep().unwrap(),
            a,
            "a second job repeats the first exactly"
        );
        assert_eq!(agg.job().unwrap().pairs(), a.input_pairs);
        let chaos = setup("shuffle_chaos", 3, Scale::Smoke)
            .unwrap()
            .job()
            .unwrap();
        assert_eq!(
            (chaos.fault_draws, chaos.pairs()),
            (CHAOS_DRAWS, CHAOS_DRAWS * a.input_pairs)
        );
        assert_eq!(fwd.job().unwrap().mode, AggregationMode::PassThrough);
    }

    #[test]
    fn chaos_recovers_exactly_and_repeats_per_seed() {
        let mut chaos = setup("shuffle_chaos", 3, Scale::Smoke).unwrap();
        let first = chaos.rep().unwrap();
        assert_eq!(chaos.rep().unwrap(), first);
        let mut again = setup("shuffle_chaos", 3, Scale::Smoke).unwrap();
        assert_eq!(
            again.rep().unwrap(),
            first,
            "same seed, same faults, same counts"
        );
        let mut other = setup("shuffle_chaos", 4, Scale::Smoke).unwrap();
        assert_ne!(other.rep().unwrap().digest, first.digest);
    }
}
