//! Workload classes: what the fleet's machines actually run.
//!
//! §2: corruption rates are "highly dependent on workload"; §1's
//! motivating incident was a library change that shifted the instruction
//! mix onto a defective unit. A [`WorkloadClass`] is an instruction-mix
//! vector — *consequential* operations per core-hour per functional unit —
//! plus the fraction of corruptions the application's own checks catch
//! (§6: "many of our applications already checked for SDCs"), plus a
//! deterministic time-varying [`TrafficShape`] (diurnal/rush-hour
//! inter-arrival scaling — real fleets do not run flat).

use mercurial_fault::FunctionalUnit;
use serde::{Deserialize, Serialize};

/// A deterministic, periodic scaling of a class's traffic over simulated
/// time: `intensity(hour) = 1 + amplitude · sin(2π(hour + phase)/period)`,
/// clamped strictly positive. The shape is a pure function of the hour —
/// no random draws — so it is bit-for-bit reproducible at any stepping
/// granularity or shard partition. The default is
/// flat (`amplitude = 0`), and a flat shape is guaranteed to leave every
/// rate bit-identical to a shapeless build (its intensity is exactly
/// `1.0` and is never even multiplied in).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficShape {
    /// Peak-to-mean swing, `0.0 ≤ amplitude < 1.0`. Zero means flat.
    pub amplitude: f64,
    /// Cycle length in hours (24 = diurnal).
    pub period_hours: f64,
    /// Phase offset in hours (staggers classes' rush hours).
    pub phase_hours: f64,
}

impl Default for TrafficShape {
    fn default() -> TrafficShape {
        TrafficShape {
            amplitude: 0.0,
            period_hours: 24.0,
            phase_hours: 0.0,
        }
    }
}

impl TrafficShape {
    /// A diurnal shape with the given swing and rush-hour offset.
    pub fn diurnal(amplitude: f64, phase_hours: f64) -> TrafficShape {
        TrafficShape {
            amplitude,
            period_hours: 24.0,
            phase_hours,
        }
    }

    /// Whether this shape is exactly flat (intensity ≡ 1).
    pub fn is_flat(&self) -> bool {
        self.amplitude == 0.0
    }

    /// The traffic multiplier at a simulation hour; strictly positive so
    /// a core's Poisson rate is zero exactly when its defect is dormant,
    /// whatever the shape.
    pub fn intensity_at(&self, hour: f64) -> f64 {
        if self.is_flat() {
            return 1.0;
        }
        let cycle = std::f64::consts::TAU * (hour + self.phase_hours) / self.period_hours.max(1e-9);
        (1.0 + self.amplitude * cycle.sin()).max(0.05)
    }
}

/// One workload class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadClass {
    /// Name, e.g. "storage-server".
    pub name: String,
    /// Consequential operations per core-hour per unit (operations whose
    /// corruption would change observable application behavior; the vast
    /// majority of retired instructions are not consequential, which is
    /// why CEE rates are survivable at all).
    pub ops_per_hour: [f64; 9],
    /// Fraction of silent corruptions the application's own end-to-end
    /// checks detect promptly (checksummed write paths, etc.).
    pub app_check_coverage: f64,
    /// Fraction of detected application-level corruptions that escalate to
    /// a human-filed suspect-core report.
    pub user_report_rate: f64,
    /// Fraction of consequential work whose update logic runs at several
    /// replicas in parallel (§6: dual computations detect CEEs as replica
    /// divergence, independent of checksums).
    pub replicated_fraction: f64,
    /// Representative operand values (drives data-pattern-gated defects).
    pub operands: Vec<u64>,
    /// Time-varying traffic shape scaling `ops_per_hour`; flat by default
    /// (legacy scenarios parse unchanged and run bit-identically).
    #[serde(default)]
    pub traffic: TrafficShape,
}

impl WorkloadClass {
    fn ops(pairs: &[(FunctionalUnit, f64)]) -> [f64; 9] {
        let mut v = [0.0f64; 9];
        for &(u, r) in pairs {
            v[u.index()] = r;
        }
        v
    }

    /// A data-analysis pipeline: heavy scalar/vector compute, some crypto,
    /// strong end-to-end checking (the §1 incident's setting).
    pub fn data_pipeline() -> WorkloadClass {
        WorkloadClass {
            name: "data-pipeline".to_string(),
            ops_per_hour: WorkloadClass::ops(&[
                (FunctionalUnit::ScalarAlu, 4e5),
                (FunctionalUnit::MulDiv, 8e4),
                (FunctionalUnit::VectorPipe, 6e5),
                (FunctionalUnit::Fma, 3e5),
                (FunctionalUnit::LoadStore, 5e5),
                (FunctionalUnit::Atomics, 2e3),
                (FunctionalUnit::CryptoUnit, 4e4),
                (FunctionalUnit::BranchUnit, 3e5),
                (FunctionalUnit::AddressGen, 5e5),
            ]),
            app_check_coverage: 0.5,
            user_report_rate: 0.15,
            replicated_fraction: 0.15,
            operands: vec![
                0xdead_beef_cafe_f00d,
                0x0102_0408_1020_4080,
                u64::MAX,
                0x00ff_00ff_00ff_00ff,
            ],
            traffic: TrafficShape::default(),
        }
    }

    /// A storage server: copy- and CRC-dominated, checksummed write path
    /// (the Colossus analogue from §6).
    pub fn storage_server() -> WorkloadClass {
        WorkloadClass {
            name: "storage-server".to_string(),
            ops_per_hour: WorkloadClass::ops(&[
                (FunctionalUnit::ScalarAlu, 5e5),
                (FunctionalUnit::MulDiv, 1e4),
                (FunctionalUnit::VectorPipe, 9e5),
                (FunctionalUnit::Fma, 1e3),
                (FunctionalUnit::LoadStore, 9e5),
                (FunctionalUnit::Atomics, 5e4),
                (FunctionalUnit::CryptoUnit, 1e5),
                (FunctionalUnit::BranchUnit, 2e5),
                (FunctionalUnit::AddressGen, 9e5),
            ]),
            app_check_coverage: 0.8,
            user_report_rate: 0.1,
            replicated_fraction: 0.25,
            operands: vec![0xaaaa_aaaa_aaaa_aaaa, 0x5555_5555_5555_5555, 0, u64::MAX],
            traffic: TrafficShape::default(),
        }
    }

    /// A database: index-heavy scalar work, locking, moderate checking
    /// (the Spanner analogue; §2's "database index corruption" case).
    pub fn database() -> WorkloadClass {
        WorkloadClass {
            name: "database".to_string(),
            ops_per_hour: WorkloadClass::ops(&[
                (FunctionalUnit::ScalarAlu, 8e5),
                (FunctionalUnit::MulDiv, 5e4),
                (FunctionalUnit::VectorPipe, 1e5),
                (FunctionalUnit::Fma, 5e3),
                (FunctionalUnit::LoadStore, 7e5),
                (FunctionalUnit::Atomics, 3e5),
                (FunctionalUnit::CryptoUnit, 2e4),
                (FunctionalUnit::BranchUnit, 6e5),
                (FunctionalUnit::AddressGen, 7e5),
            ]),
            app_check_coverage: 0.6,
            user_report_rate: 0.2,
            replicated_fraction: 0.5,
            operands: vec![0x0000_0000_ffff_ffff, 0x1111_2222_3333_4444, 7, 0],
            traffic: TrafficShape::default(),
        }
    }

    /// A crypto-heavy frontend (TLS-style): AES-round dominated.
    pub fn crypto_frontend() -> WorkloadClass {
        WorkloadClass {
            name: "crypto-frontend".to_string(),
            ops_per_hour: WorkloadClass::ops(&[
                (FunctionalUnit::ScalarAlu, 3e5),
                (FunctionalUnit::MulDiv, 2e4),
                (FunctionalUnit::VectorPipe, 2e5),
                (FunctionalUnit::Fma, 1e3),
                (FunctionalUnit::LoadStore, 3e5),
                (FunctionalUnit::Atomics, 1e4),
                (FunctionalUnit::CryptoUnit, 8e5),
                (FunctionalUnit::BranchUnit, 2e5),
                (FunctionalUnit::AddressGen, 3e5),
            ]),
            app_check_coverage: 0.4,
            user_report_rate: 0.25,
            replicated_fraction: 0.1,
            operands: vec![0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, u64::MAX, 1],
            traffic: TrafficShape::default(),
        }
    }

    /// The default four-class mix with assignment weights.
    pub fn default_mix() -> Vec<(WorkloadClass, f64)> {
        vec![
            (WorkloadClass::data_pipeline(), 0.3),
            (WorkloadClass::storage_server(), 0.3),
            (WorkloadClass::database(), 0.25),
            (WorkloadClass::crypto_frontend(), 0.15),
        ]
    }

    /// Total consequential operations per core-hour.
    pub fn total_ops_per_hour(&self) -> f64 {
        self.ops_per_hour.iter().sum()
    }

    /// The same class with a traffic shape applied.
    pub fn with_traffic(mut self, traffic: TrafficShape) -> WorkloadClass {
        self.traffic = traffic;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_distinct_shapes() {
        let storage = WorkloadClass::storage_server();
        let db = WorkloadClass::database();
        // Storage is copy-heavy; database is atomics-heavy.
        assert!(
            storage.ops_per_hour[FunctionalUnit::VectorPipe.index()]
                > db.ops_per_hour[FunctionalUnit::VectorPipe.index()]
        );
        assert!(
            db.ops_per_hour[FunctionalUnit::Atomics.index()]
                > storage.ops_per_hour[FunctionalUnit::Atomics.index()]
        );
    }

    #[test]
    fn mix_weights_sum_to_one() {
        let total: f64 = WorkloadClass::default_mix().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_shape_is_exactly_identity() {
        let flat = TrafficShape::default();
        assert!(flat.is_flat());
        for hour in [0.0, 1.5, 73.0, 26_280.0] {
            let i = flat.intensity_at(hour);
            assert_eq!(i.to_bits(), 1.0f64.to_bits(), "hour {hour}");
        }
    }

    #[test]
    fn diurnal_shape_oscillates_and_stays_positive() {
        let shape = TrafficShape::diurnal(0.6, 6.0);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for h in 0..48 {
            let i = shape.intensity_at(h as f64);
            assert!(i > 0.0, "intensity must stay strictly positive");
            lo = lo.min(i);
            hi = hi.max(i);
        }
        assert!(hi > 1.3 && lo < 0.7, "swing must be visible: [{lo}, {hi}]");
        // Periodic: one full day apart is the same intensity.
        let a = shape.intensity_at(5.0);
        let b = shape.intensity_at(29.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn legacy_workload_json_without_traffic_parses_flat() {
        let mut wl = WorkloadClass::database();
        wl.traffic = TrafficShape::diurnal(0.5, 0.0);
        let mut v = wl.to_value();
        if let serde::Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k != "traffic");
        } else {
            panic!("workload serializes to an object");
        }
        let back = WorkloadClass::from_value(&v).expect("legacy JSON parses");
        assert!(back.traffic.is_flat());
        assert_eq!(back.ops_per_hour, wl.ops_per_hour);
    }

    #[test]
    fn coverage_and_report_rates_are_probabilities() {
        for (w, _) in WorkloadClass::default_mix() {
            assert!((0.0..=1.0).contains(&w.app_check_coverage), "{}", w.name);
            assert!((0.0..=1.0).contains(&w.user_report_rate), "{}", w.name);
            assert!((0.0..=1.0).contains(&w.replicated_fraction), "{}", w.name);
            assert!(w.total_ops_per_hour() > 0.0);
            assert!(!w.operands.is_empty());
        }
    }
}
