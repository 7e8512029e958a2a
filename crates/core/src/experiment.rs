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
    topo: FleetTopology,
    pop: Population,
}

impl FleetExperiment {
    /// Builds the topology and seeds the ground-truth population.
    pub fn build(scenario: &Scenario) -> FleetExperiment {
        let topo = FleetTopology::build(scenario.fleet.clone());
        let pop = Population::seed_from(&topo);
        FleetExperiment {
            scenario: scenario.clone(),
            topo,
            pop,
        }
    }

    /// Builds many experiments (topology construction plus ground-truth
    /// population seeding) fanned out across worker threads, in input
    /// order. Each build depends only on its scenario's seed, so results
    /// match serial construction exactly.
    pub fn build_many(scenarios: &[Scenario], parallelism: usize) -> Vec<FleetExperiment> {
        mercurial_fleet::par::map_parallel(scenarios, parallelism, FleetExperiment::build)
    }

    /// Builds with an explicitly placed population (case studies).
    pub fn with_population(scenario: &Scenario, pop: Population) -> FleetExperiment {
        let topo = FleetTopology::build(scenario.fleet.clone());
        FleetExperiment {
            scenario: scenario.clone(),
            topo,
            pop,
        }
    }

    /// The scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The materialized topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topo
    }

    /// The ground-truth population.
    pub fn population(&self) -> &Population {
        &self.pop
    }

    /// Ground-truth incidence per thousand machines.
    pub fn incidence_per_kmachine(&self) -> f64 {
        self.pop.count() as f64 / (self.scenario.fleet.machines as f64 / 1000.0)
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

    /// A fresh simulator over this experiment's topology and population —
    /// the closed-loop driver steps it epoch by epoch; [`run_signals`]
    /// runs it to completion.
    ///
    /// When the scenario's `workloads` block is enabled, each class in
    /// the default mix gets its diurnal traffic shape
    /// ([`WorkloadsConfig::shape_for`](crate::scenario::WorkloadsConfig::shape_for));
    /// the class weights are untouched, so machine→class assignment (a
    /// pure function of seed and weights) is identical either way.
    ///
    /// [`run_signals`]: FleetExperiment::run_signals
    pub fn sim(&self) -> FleetSim {
        let sim = FleetSim::new(
            self.topo.clone(),
            self.pop.clone(),
            self.scenario.sim.clone(),
        );
        let wk = &self.scenario.workloads;
        if !wk.enabled || wk.traffic_amplitude == 0.0 {
            return sim;
        }
        let mix = mercurial_fleet::WorkloadClass::default_mix()
            .into_iter()
            .enumerate()
            .map(|(ix, (class, weight))| (class.with_traffic(wk.shape_for(ix)), weight))
            .collect();
        sim.with_workloads(mix)
    }

    /// Runs the workload signal simulation (no screening) and returns the
    /// time-sorted log plus summary counters.
    pub fn run_signals(&self) -> (SignalLog, SimSummary) {
        self.sim().run()
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
