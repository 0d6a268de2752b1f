//! Seeded random schedule generation for the randomized certification
//! pass.

use crate::schedule::{Schedule, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the randomized pass.
#[derive(Clone, Debug)]
pub struct RandomConfig {
    /// Steps per generated schedule.
    pub steps: usize,
    /// Maximum number of branches (root included).
    pub max_branches: usize,
    /// Probability that a step creates a branch (while under the budget).
    pub create_probability: f64,
    /// Probability that a step merges two branches.
    pub merge_probability: f64,
    /// RNG seed — identical seeds generate identical schedules, so every
    /// reported counterexample is replayable.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            steps: 200,
            max_branches: 4,
            create_probability: 0.05,
            merge_probability: 0.15,
            seed: 0xBADC0FFE,
        }
    }
}

/// Generates well-formed random schedules; data-type operations are drawn
/// from a caller-supplied closure.
#[derive(Debug)]
pub struct ScheduleGenerator {
    config: RandomConfig,
    rng: StdRng,
}

impl ScheduleGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: RandomConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        ScheduleGenerator { config, rng }
    }

    /// Generates one schedule, drawing operations from `op_of(rng)`.
    pub fn generate<Op>(&mut self, mut op_of: impl FnMut(&mut StdRng) -> Op) -> Schedule<Op> {
        let mut steps = Vec::with_capacity(self.config.steps);
        let mut branches = 1usize;
        for _ in 0..self.config.steps {
            let roll: f64 = self.rng.gen();
            if branches < self.config.max_branches && roll < self.config.create_probability {
                let from = self.rng.gen_range(0..branches);
                steps.push(Step::CreateBranch { node: 0, from });
                branches += 1;
            } else if branches >= 2
                && roll < self.config.create_probability + self.config.merge_probability
            {
                let into = self.rng.gen_range(0..branches);
                let mut from = self.rng.gen_range(0..branches - 1);
                if from >= into {
                    from += 1; // uniform over branches ≠ into
                }
                steps.push(Step::Merge {
                    node: 0,
                    into,
                    from,
                });
            } else {
                let branch = self.rng.gen_range(0..branches);
                steps.push(Step::Do {
                    node: 0,
                    branch,
                    op: op_of(&mut self.rng),
                });
            }
        }
        Schedule { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schedules_are_well_formed() {
        let mut gen = ScheduleGenerator::new(RandomConfig {
            steps: 500,
            max_branches: 5,
            ..RandomConfig::default()
        });
        for _ in 0..10 {
            let s = gen.generate(|rng| rng.gen_range(0..10u32));
            assert_eq!(s.len(), 500);
            assert!(s.is_well_formed(1));
            let forks = s
                .steps
                .iter()
                .filter(|x| matches!(x, Step::CreateBranch { .. }));
            assert!(forks.count() < 5);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            ScheduleGenerator::new(RandomConfig {
                steps: 100,
                seed: 42,
                ..RandomConfig::default()
            })
            .generate(|rng| rng.gen_range(0..10u32))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn merges_and_creates_both_occur() {
        let mut gen = ScheduleGenerator::new(RandomConfig {
            steps: 1000,
            max_branches: 4,
            create_probability: 0.1,
            merge_probability: 0.2,
            seed: 7,
        });
        let s = gen.generate(|rng| rng.gen_range(0..3u32));
        let merges = s
            .steps
            .iter()
            .filter(|x| matches!(x, Step::Merge { .. }))
            .count();
        let creates = s
            .steps
            .iter()
            .filter(|x| matches!(x, Step::CreateBranch { .. }))
            .count();
        assert!(merges > 50, "merges = {merges}");
        assert_eq!(creates, 3);
        // Self-merges are never generated.
        assert!(s.steps.iter().all(|x| match x {
            Step::Merge { into, from, .. } => into != from,
            _ => true,
        }));
    }
}
