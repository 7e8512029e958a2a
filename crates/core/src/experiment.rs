//! The one-stop experiment handle: topology + population + simulator.

use crate::scenario::Scenario;
use mercurial_fleet::sim::SimSummary;
use mercurial_fleet::topology::FleetTopology;
use mercurial_fleet::{FleetSim, Population, SignalLog};
use mercurial_fuzz::{run_campaign, CampaignConfig};
use mercurial_screening::EraSchedule;

/// A materialized experiment: everything derived from a [`Scenario`].
pub struct FleetExperiment {
    scenario: Scenario,
    /// The one simulator over the experiment's topology and population;
    /// every driver borrows it.
    sim: FleetSim,
}

impl FleetExperiment {
    /// Builds the topology and seeds the ground-truth population.
    pub fn build(scenario: &Scenario) -> FleetExperiment {
        FleetExperiment::build_shard(scenario, 0, scenario.fleet.machines)
    }

    /// [`FleetExperiment::build`] for a shard of machines `[lo, hi)`: the
    /// whole topology, but ground truth seeded only on the range
    /// ([`Population::seed_range`]), so the population holds exactly the
    /// full build's cores in the range. A [`FleetShard`] over the same
    /// range steps bit for bit as it does on the full build. Everything
    /// that reads the whole population — the aggregator, ground-truth
    /// scoring, [`FleetExperiment::incidence_per_kmachine`] — needs the
    /// full build.
    ///
    /// [`FleetShard`]: crate::shardloop::FleetShard
    pub fn build_shard(scenario: &Scenario, lo: u32, hi: u32) -> FleetExperiment {
        let topo = FleetTopology::build(scenario.fleet.clone());
        let pop = Population::seed_range(&topo, lo, hi);
        FleetExperiment::from_parts(scenario, topo, pop)
    }

    /// Builds many experiments (topology construction plus ground-truth
    /// population seeding) fanned out across worker threads, in input
    /// order. Each build depends only on its scenario's seed, so results
    /// match serial construction exactly.
    pub fn build_many(scenarios: &[Scenario], parallelism: usize) -> Vec<FleetExperiment> {
        mercurial_fleet::par::map_parallel(scenarios, parallelism, FleetExperiment::build)
    }

    /// Wraps a topology built from `scenario.fleet` and a population in
    /// the scenario's simulator: [`FleetExperiment::build`] without its
    /// two draws, for explicitly placed populations (case studies) and
    /// for timing the draws apart.
    ///
    /// When the scenario's `workloads` block is enabled, each class in
    /// the default mix gets its diurnal traffic shape
    /// ([`WorkloadsConfig::shape_for`](crate::scenario::WorkloadsConfig::shape_for));
    /// the class weights are untouched, so machine→class assignment (a
    /// pure function of seed and weights) is identical either way.
    pub fn from_parts(
        scenario: &Scenario,
        topo: FleetTopology,
        pop: Population,
    ) -> FleetExperiment {
        let wk = &scenario.workloads;
        let mut mix = mercurial_fleet::WorkloadClass::default_mix();
        if wk.enabled && wk.traffic_amplitude != 0.0 {
            mix = mix
                .into_iter()
                .enumerate()
                .map(|(ix, (class, weight))| (class.with_traffic(wk.shape_for(ix)), weight))
                .collect();
        }
        FleetExperiment {
            scenario: scenario.clone(),
            sim: FleetSim::with_workloads(topo, pop, scenario.sim.clone(), mix),
        }
    }

    /// The scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The materialized topology.
    pub fn topology(&self) -> &FleetTopology {
        self.sim.topology()
    }

    /// The ground-truth population.
    pub fn population(&self) -> &Population {
        self.sim.population()
    }

    /// Ground-truth incidence per thousand machines.
    pub fn incidence_per_kmachine(&self) -> f64 {
        self.population().count() as f64 / (self.scenario.fleet.machines as f64 / 1000.0)
    }

    /// The era schedule the screeners should run: the default coverage
    /// history, augmented with fuzz-distilled content when the scenario's
    /// [`fuzz_corpus`](crate::scenario::FuzzCorpusConfig) knob opts in.
    ///
    /// The augmentation runs a full `mercurial-fuzz` campaign (a pure
    /// function of the knob's seed and budget), then folds the distilled
    /// corpus's covered units, operand patterns, and healthy instruction
    /// mix into every era. The campaign runs serially on the calling
    /// thread, like the rest of a run.
    pub fn screening_schedule(&self) -> EraSchedule {
        let base = EraSchedule::default_history();
        let knob = &self.scenario.fuzz_corpus;
        if !knob.enabled {
            return base;
        }
        let cfg = CampaignConfig {
            seed: knob.seed,
            budget: knob.budget as usize,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg);
        let distilled = &out.report.distilled;
        // The corpus's healthy instruction mix becomes extra per-unit op
        // budget on top of each era's hand-written content.
        let extra_ops = distilled.unit_ops.iter().sum::<u64>();
        base.with_fuzz_content(&distilled.covered_units(), &distilled.operands, extra_ops)
    }

    /// The experiment's simulator over its topology and population —
    /// the closed-loop driver and every shard step it epoch by epoch;
    /// [`run_signals`] runs it to completion. Built once with the
    /// experiment, so borrowing it costs nothing.
    ///
    /// [`run_signals`]: FleetExperiment::run_signals
    pub fn sim(&self) -> &FleetSim {
        &self.sim
    }

    /// Runs the workload signal simulation (no screening) and returns the
    /// time-sorted log plus summary counters.
    pub fn run_signals(&self) -> (SignalLog, SimSummary) {
        self.sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_in_the_scenario() {
        let s = Scenario::small(5);
        let a = FleetExperiment::build(&s);
        let b = FleetExperiment::build(&s);
        assert_eq!(a.population().count(), b.population().count());
    }

    #[test]
    fn shard_build_holds_the_full_build_ground_truth_in_its_range() {
        let s = Scenario::demo(5);
        let full = FleetExperiment::build(&s);
        let n = s.fleet.machines;
        let (lo, hi) = (n / 3, 2 * n / 3);
        let shard = FleetExperiment::build_shard(&s, lo, hi);
        let in_range: Vec<_> = full
            .population()
            .mercurial_cores()
            .filter(|c| (lo..hi).contains(&c.uid.machine))
            .collect();
        assert!(!in_range.is_empty(), "the middle third must hold defects");
        assert!(in_range.len() < full.population().count());
        assert!(shard.population().mercurial_cores().eq(in_range));
        assert_eq!(shard.topology().machines(), full.topology().machines());
    }

    #[test]
    fn incidence_matches_paper_scale() {
        let s = Scenario::small(6);
        let e = FleetExperiment::build(&s);
        let per_k = e.incidence_per_kmachine();
        assert!(
            (0.0..=8.0).contains(&per_k),
            "incidence {per_k} per 1000 machines is implausible"
        );
    }

    #[test]
    fn fuzz_corpus_knob_augments_the_screening_schedule() {
        let mut s = Scenario::small(8);
        let base = FleetExperiment::build(&s).screening_schedule();
        s.fuzz_corpus.enabled = true;
        s.fuzz_corpus.budget = 16;
        let augmented = FleetExperiment::build(&s).screening_schedule();
        for (b, a) in base.eras().iter().zip(augmented.eras()) {
            assert!(a.units.len() >= b.units.len());
            assert!(a.operands.len() >= b.operands.len());
            assert!(a.ops_per_unit > b.ops_per_unit);
        }
        // The month-0 era only covers four units by hand; fuzz content
        // closes gaps from day one.
        assert!(augmented.era_at(0).units.len() > base.era_at(0).units.len());
    }

    #[test]
    fn signals_run_end_to_end() {
        let s = Scenario::small(7);
        let e = FleetExperiment::build(&s);
        let (log, summary) = e.run_signals();
        // There is always at least background noise in 18 fleet-months.
        assert!(!log.is_empty());
        assert!(summary.signals_emitted as usize == log.len());
    }
}
