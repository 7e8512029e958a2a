//! Operating points: frequency, voltage, temperature.
//!
//! The paper (§2) notes that operators "partially control operating
//! conditions (frequency, voltage, temperature, or 'f, V, T')", and footnote
//! 1 explains that "modern CPUs tightly couple f and V; these are not
//! normally independently adjustable by users, while T is somewhat
//! controllable". [`DvfsCurve`] models that coupling; screening code sweeps
//! [`OperatingPoint`]s through the reachable envelope.

use serde::{Deserialize, Serialize};

/// A core's operating condition: the paper's "(f, V, T)" triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core clock frequency in MHz.
    pub freq_mhz: u32,
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
    /// Die temperature in degrees Celsius.
    pub temp_c: i32,
}

impl OperatingPoint {
    /// A typical server nominal operating point.
    pub const NOMINAL: OperatingPoint = OperatingPoint {
        freq_mhz: 2600,
        voltage_mv: 950,
        temp_c: 65,
    };

    /// Creates an operating point.
    pub fn new(freq_mhz: u32, voltage_mv: u32, temp_c: i32) -> OperatingPoint {
        OperatingPoint {
            freq_mhz,
            voltage_mv,
            temp_c,
        }
    }
}

impl Default for OperatingPoint {
    fn default() -> OperatingPoint {
        OperatingPoint::NOMINAL
    }
}

impl std::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} MHz / {} mV / {} C",
            self.freq_mhz, self.voltage_mv, self.temp_c
        )
    }
}

/// A dynamic-frequency-and-voltage-scaling curve coupling f and V.
///
/// Users (and our simulated scheduler/screeners) pick a *frequency step*;
/// the hardware then selects the matching voltage. This reproduces the
/// paper's footnote 1: f and V are not independently adjustable, which is
/// "one of several reasons why lower frequency sometimes (surprisingly)
/// increases the failure rate" — at a lower DVFS step the voltage also
/// drops, shrinking timing margin for some defects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DvfsCurve {
    /// `(freq_mhz, voltage_mv)` pairs, sorted by ascending frequency.
    steps: Vec<(u32, u32)>,
}

impl DvfsCurve {
    /// Builds a curve from `(freq_mhz, voltage_mv)` pairs.
    ///
    /// Pairs are sorted by frequency; duplicate frequencies keep the last
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(mut steps: Vec<(u32, u32)>) -> DvfsCurve {
        assert!(!steps.is_empty(), "a DVFS curve needs at least one step");
        steps.sort_by_key(|&(f, _)| f);
        steps.dedup_by_key(|&mut (f, _)| f);
        DvfsCurve { steps }
    }

    /// A representative server DVFS curve (five P-states).
    pub fn typical_server() -> DvfsCurve {
        DvfsCurve::new(vec![
            (1200, 750),
            (1800, 820),
            (2200, 880),
            (2600, 950),
            (3200, 1080),
        ])
    }

    /// Number of frequency steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// All `(freq_mhz, voltage_mv)` steps, ascending by frequency.
    pub fn steps(&self) -> &[(u32, u32)] {
        &self.steps
    }

    /// The operating point at a given step index (clamped to range) with the
    /// provided temperature.
    pub fn point_at_step(&self, step: usize, temp_c: i32) -> OperatingPoint {
        let (f, v) = self.steps[step.min(self.steps.len() - 1)];
        OperatingPoint::new(f, v, temp_c)
    }

    /// The voltage the hardware selects for a requested frequency: the
    /// voltage of the lowest step whose frequency is >= the request, or the
    /// top step's voltage if the request exceeds the curve.
    pub fn voltage_for(&self, freq_mhz: u32) -> u32 {
        for &(f, v) in &self.steps {
            if f >= freq_mhz {
                return v;
            }
        }
        self.steps.last().expect("curve is non-empty").1
    }

    /// The highest-frequency step.
    pub fn max_point(&self, temp_c: i32) -> OperatingPoint {
        self.point_at_step(self.steps.len() - 1, temp_c)
    }

    /// The lowest-frequency step.
    pub fn min_point(&self, temp_c: i32) -> OperatingPoint {
        self.point_at_step(0, temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_sorts_and_dedups() {
        let c = DvfsCurve::new(vec![(2600, 950), (1200, 750), (2600, 940)]);
        assert_eq!(c.step_count(), 2);
        assert_eq!(c.steps()[0], (1200, 750));
    }

    #[test]
    fn voltage_tracks_frequency() {
        let c = DvfsCurve::typical_server();
        assert_eq!(c.voltage_for(1200), 750);
        assert_eq!(c.voltage_for(2000), 880); // next step up
        assert_eq!(c.voltage_for(9000), 1080); // clamped to top
    }

    #[test]
    fn point_at_step_clamps() {
        let c = DvfsCurve::typical_server();
        let top = c.point_at_step(999, 70);
        assert_eq!(top.freq_mhz, 3200);
        assert_eq!(top.temp_c, 70);
    }

    #[test]
    fn lower_step_means_lower_voltage() {
        // The coupling behind the paper's "lower frequency sometimes
        // increases the failure rate": stepping down drops voltage too.
        let c = DvfsCurve::typical_server();
        let lo = c.min_point(65);
        let hi = c.max_point(65);
        assert!(lo.voltage_mv < hi.voltage_mv);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_curve_panics() {
        let _ = DvfsCurve::new(vec![]);
    }

    #[test]
    fn display_formats() {
        let p = OperatingPoint::NOMINAL;
        assert_eq!(p.to_string(), "2600 MHz / 950 mV / 65 C");
    }
}
