//! A Pregel-style BSP engine with message combiners and a traffic census.
//!
//! Vertices run a [`VertexProgram`] per superstep over their inbox,
//! emitting messages along out-edges; a commutative/associative combiner
//! merges messages addressed to the same vertex. The engine records, per
//! superstep, how many messages were produced (what the wire would carry
//! without in-network combining) and how many distinct destinations were
//! addressed (the floor in-network aggregation can reach) — exactly the
//! two quantities behind Figure 1(c).

use crate::graph::Graph;

/// Per-superstep message census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageCensus {
    /// Messages emitted by vertex programs.
    pub produced: u64,
    /// Distinct destination vertices addressed.
    pub distinct_destinations: u64,
    /// Vertices active this superstep.
    pub active_vertices: u64,
}

impl MessageCensus {
    /// The Figure-1(c) quantity: fraction of messages removable by
    /// combining per destination (0 when no messages flowed).
    pub fn reduction_ratio(&self) -> f64 {
        if self.produced == 0 {
            0.0
        } else {
            1.0 - self.distinct_destinations as f64 / self.produced as f64
        }
    }
}

/// The interface a vertex program implements.
pub trait VertexProgram {
    /// Per-vertex state.
    type State: Clone;
    /// Message value (merged by the combiner).
    type Msg: Copy;

    /// The combiner (must be commutative and associative, §1).
    fn combine(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// Initial state of vertex `v`.
    fn init(&self, v: u32, graph: &Graph) -> Self::State;

    /// Messages every vertex sends in superstep 0 (before any inbox).
    fn first_messages(&self, v: u32, state: &Self::State, graph: &Graph) -> Vec<(u32, Self::Msg)>;

    /// Processes the combined inbox of `v`; returns outgoing messages.
    /// Returning no messages (and not mutating state) lets the vertex go
    /// inactive; it reactivates when messaged.
    fn step(
        &self,
        v: u32,
        state: &mut Self::State,
        inbox: Self::Msg,
        graph: &Graph,
    ) -> Vec<(u32, Self::Msg)>;
}

/// Runs `program` for up to `max_supersteps`, returning final states and
/// the per-superstep census (entry 0 covers the initial broadcast).
pub fn run<P: VertexProgram>(
    program: &P,
    graph: &Graph,
    max_supersteps: usize,
) -> (Vec<P::State>, Vec<MessageCensus>) {
    let n = graph.vertices();
    let mut states: Vec<P::State> = (0..n as u32).map(|v| program.init(v, graph)).collect();
    let mut census = Vec::new();

    // Superstep 0: initial messages.
    let mut inbox: Vec<Option<P::Msg>> = vec![None; n];
    let mut c = MessageCensus::default();
    for v in 0..n as u32 {
        let out = program.first_messages(v, &states[v as usize], graph);
        if !out.is_empty() {
            c.active_vertices += 1;
        }
        for (dst, msg) in out {
            c.produced += 1;
            let slot = &mut inbox[dst as usize];
            *slot = Some(match slot.take() {
                Some(prev) => program.combine(prev, msg),
                None => msg,
            });
        }
    }
    c.distinct_destinations = inbox.iter().filter(|m| m.is_some()).count() as u64;
    census.push(c);

    for _ in 1..=max_supersteps {
        let mut next: Vec<Option<P::Msg>> = vec![None; n];
        let mut c = MessageCensus::default();
        let mut any = false;
        for v in 0..n as u32 {
            if let Some(msg) = inbox[v as usize].take() {
                any = true;
                c.active_vertices += 1;
                for (dst, out) in program.step(v, &mut states[v as usize], msg, graph) {
                    c.produced += 1;
                    let slot = &mut next[dst as usize];
                    *slot = Some(match slot.take() {
                        Some(prev) => program.combine(prev, out),
                        None => out,
                    });
                }
            }
        }
        if !any {
            break;
        }
        c.distinct_destinations = next.iter().filter(|m| m.is_some()).count() as u64;
        census.push(c);
        inbox = next;
        if c.produced == 0 {
            break;
        }
    }
    (states, census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{fan, path};

    /// Floods a token along a path: each vertex forwards once.
    struct Flood;
    impl VertexProgram for Flood {
        type State = bool; // reached?
        type Msg = u32;

        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn init(&self, v: u32, _g: &Graph) -> bool {
            v == 0
        }
        fn first_messages(&self, v: u32, state: &bool, g: &Graph) -> Vec<(u32, u32)> {
            if *state {
                g.out(v).iter().map(|&t| (t, 1)).collect()
            } else {
                vec![]
            }
        }
        fn step(&self, v: u32, state: &mut bool, _m: u32, g: &Graph) -> Vec<(u32, u32)> {
            if *state {
                return vec![];
            }
            *state = true;
            g.out(v).iter().map(|&t| (t, 1)).collect()
        }
    }

    #[test]
    fn flood_reaches_whole_path() {
        let g = path(6);
        let (states, census) = run(&Flood, &g, 20);
        assert!(states.iter().skip(1).all(|&b| b), "{states:?}");
        // One message per superstep along a path: no combining possible.
        for c in &census {
            assert_eq!(c.produced, c.distinct_destinations);
            assert_eq!(c.reduction_ratio(), 0.0);
        }
        // 5 hops of messages (supersteps 0..=4 emit).
        assert_eq!(census.len(), 6);
    }

    #[test]
    fn fan_in_messages_combine() {
        // 10 sources all message 2 sinks: 20 produced, 2 destinations.
        let g = fan(10, 2);
        struct Blast;
        impl VertexProgram for Blast {
            type State = ();
            type Msg = u32;
            fn combine(&self, a: u32, b: u32) -> u32 {
                a + b
            }
            fn init(&self, _v: u32, _g: &Graph) {}
            fn first_messages(&self, v: u32, _s: &(), g: &Graph) -> Vec<(u32, u32)> {
                g.out(v).iter().map(|&t| (t, 1)).collect()
            }
            fn step(&self, _v: u32, _s: &mut (), _m: u32, _g: &Graph) -> Vec<(u32, u32)> {
                vec![]
            }
        }
        let (_, census) = run(&Blast, &g, 5);
        assert_eq!(census[0].produced, 20);
        assert_eq!(census[0].distinct_destinations, 2);
        assert!((census[0].reduction_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn combiner_semantics_respected() {
        // Min-combining the fan: every sink sees min = its combined inbox.
        let g = fan(3, 1);
        struct MinBlast;
        impl VertexProgram for MinBlast {
            type State = u32;
            type Msg = u32;
            fn combine(&self, a: u32, b: u32) -> u32 {
                a.min(b)
            }
            fn init(&self, _v: u32, _g: &Graph) -> u32 {
                u32::MAX
            }
            fn first_messages(&self, v: u32, _s: &u32, g: &Graph) -> Vec<(u32, u32)> {
                g.out(v).iter().map(|&t| (t, 10 + v)).collect()
            }
            fn step(&self, _v: u32, s: &mut u32, m: u32, _g: &Graph) -> Vec<(u32, u32)> {
                *s = m;
                vec![]
            }
        }
        let (states, _) = run(&MinBlast, &g, 3);
        assert_eq!(states[3], 10); // min(10, 11, 12)
    }

    #[test]
    fn engine_terminates_when_quiet() {
        let g = path(3);
        let (_, census) = run(&Flood, &g, 1000);
        assert!(census.len() <= 4);
    }
}
