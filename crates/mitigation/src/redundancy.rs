//! Redundant execution: DMR and TMR.
//!
//! §3 frames the costs: "Detecting CEEs … naively seems to imply a factor
//! of two of extra work. Automatic correction seems to possibly require
//! triple work (e.g. via triple modular redundancy)." §7 sketches the
//! recovery loop: "one could run a computation on two cores, and if they
//! disagree, restart on a different pair of cores", and warns that TMR
//! "relies on the voting mechanism itself being reliable".
//!
//! Computation sites are modeled as closures indexed by a core id; the
//! caller decides what a "core" is (a simulated core, a thread, a fault
//! closure in tests). [`CostMeter`] counts executions: the work-count
//! form of the ≈2×/≈3× overheads E7 (`e7_overheads`) times.

use serde::{Deserialize, Serialize};

/// Counts redundant-execution work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostMeter {
    /// Individual executions performed.
    pub executions: u64,
    /// Comparison / voting operations performed.
    pub comparisons: u64,
    /// Retries after disagreement.
    pub retries: u64,
}

/// Failure of a redundant execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedundancyError {
    /// Every available core pair disagreed.
    PairsExhausted {
        /// Pairs tried.
        pairs_tried: u32,
    },
    /// No majority existed among the three TMR executions.
    NoMajority,
}

impl std::fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedundancyError::PairsExhausted { pairs_tried } => {
                write!(f, "all {pairs_tried} core pairs disagreed")
            }
            RedundancyError::NoMajority => f.write_str("no two TMR executions agreed"),
        }
    }
}

impl std::error::Error for RedundancyError {}

/// Dual modular redundancy with retry-on-different-pair.
///
/// Runs `compute(core)` on cores `0, 1`; on agreement returns the value,
/// on disagreement moves to cores `2, 3`, and so on, up to `max_pairs`
/// pairs.
///
/// # Errors
///
/// Returns [`RedundancyError::PairsExhausted`] if every pair disagreed.
///
/// # Panics
///
/// Panics if `max_pairs == 0`.
pub fn dmr<T, F>(
    mut compute: F,
    max_pairs: u32,
    meter: &mut CostMeter,
) -> Result<T, RedundancyError>
where
    T: PartialEq,
    F: FnMut(usize) -> T,
{
    assert!(max_pairs > 0, "need at least one pair");
    for pair in 0..max_pairs {
        let a = compute(2 * pair as usize);
        let b = compute(2 * pair as usize + 1);
        meter.executions += 2;
        meter.comparisons += 1;
        if a == b {
            return Ok(a);
        }
        meter.retries += 1;
    }
    Err(RedundancyError::PairsExhausted {
        pairs_tried: max_pairs,
    })
}

/// The outcome of a TMR vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Voted<T> {
    /// The majority value.
    pub value: T,
    /// Whether the vote was unanimous (false means one execution was
    /// outvoted — a CEE was *corrected*).
    pub unanimous: bool,
}

/// Triple modular redundancy: three executions, majority vote.
///
/// # Errors
///
/// Returns [`RedundancyError::NoMajority`] when all three results differ
/// (two simultaneous corruptions, or one corruption of a non-deterministic
/// computation).
pub fn tmr<T, F>(mut compute: F, meter: &mut CostMeter) -> Result<Voted<T>, RedundancyError>
where
    T: PartialEq,
    F: FnMut(usize) -> T,
{
    let a = compute(0);
    let b = compute(1);
    let c = compute(2);
    meter.executions += 3;
    meter.comparisons += 3;
    if a == b {
        let unanimous = a == c;
        return Ok(Voted {
            value: a,
            unanimous,
        });
    }
    if a == c {
        return Ok(Voted {
            value: a,
            unanimous: false,
        });
    }
    if b == c {
        return Ok(Voted {
            value: b,
            unanimous: false,
        });
    }
    Err(RedundancyError::NoMajority)
}

/// TMR with an *unreliable voter*: the vote itself runs through a caller-
/// supplied function that may be corrupted (the §7 caveat). Returns the
/// voter's claim and, for scoring, the honest majority.
pub fn tmr_with_unreliable_voter<T, F, V>(
    mut compute: F,
    mut voter: V,
    meter: &mut CostMeter,
) -> (Option<T>, Option<T>)
where
    T: PartialEq + Clone,
    F: FnMut(usize) -> T,
    V: FnMut(&T, &T, &T) -> Option<T>,
{
    let a = compute(0);
    let b = compute(1);
    let c = compute(2);
    meter.executions += 3;
    meter.comparisons += 3;
    let honest = if a == b || a == c {
        Some(a.clone())
    } else if b == c {
        Some(b.clone())
    } else {
        None
    };
    (voter(&a, &b, &c), honest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compute fleet where the listed cores corrupt by adding 1000.
    fn faulty(bad_cores: &'static [usize]) -> impl FnMut(usize) -> u64 {
        move |core| {
            let correct = 42u64;
            if bad_cores.contains(&core) {
                correct + 1000
            } else {
                correct
            }
        }
    }

    #[test]
    fn dmr_agrees_on_healthy_pair() {
        let mut meter = CostMeter::default();
        let v = dmr(faulty(&[]), 3, &mut meter).unwrap();
        assert_eq!(v, 42);
        assert_eq!(meter.executions, 2);
        assert_eq!(meter.retries, 0);
    }

    #[test]
    fn dmr_retries_past_a_bad_core() {
        // Core 1 is mercurial: pair (0,1) disagrees, pair (2,3) agrees —
        // the paper's "restart on a different pair of cores".
        let mut meter = CostMeter::default();
        let v = dmr(faulty(&[1]), 3, &mut meter).unwrap();
        assert_eq!(v, 42);
        assert_eq!(meter.executions, 4);
        assert_eq!(meter.retries, 1);
    }

    #[test]
    fn dmr_exhausts_when_everything_disagrees() {
        // One core of every pair is bad.
        let err = dmr(faulty(&[1, 3, 5]), 3, &mut CostMeter::default()).unwrap_err();
        assert_eq!(err, RedundancyError::PairsExhausted { pairs_tried: 3 });
    }

    #[test]
    fn dmr_cannot_detect_identical_corruption_on_both_cores() {
        // The known limit of comparison-based detection: two cores with
        // the same deterministic lesion agree on the wrong answer.
        let mut meter = CostMeter::default();
        let v = dmr(faulty(&[0, 1]), 1, &mut meter).unwrap();
        assert_eq!(v, 1042, "DMR happily returns the agreed-upon wrong answer");
    }

    #[test]
    fn tmr_outvotes_one_bad_core() {
        let mut meter = CostMeter::default();
        let voted = tmr(faulty(&[2]), &mut meter).unwrap();
        assert_eq!(voted.value, 42);
        assert!(!voted.unanimous, "the corruption was corrected, not absent");
        assert_eq!(meter.executions, 3);
    }

    #[test]
    fn tmr_unanimous_on_healthy_cores() {
        let voted = tmr(faulty(&[]), &mut CostMeter::default()).unwrap();
        assert!(voted.unanimous);
    }

    #[test]
    fn tmr_no_majority_with_distinct_corruptions() {
        let mut call = 0u64;
        let compute = |_core: usize| {
            call += 1;
            call * 7777 // every execution differs
        };
        let err = tmr(compute, &mut CostMeter::default()).unwrap_err();
        assert_eq!(err, RedundancyError::NoMajority);
    }

    #[test]
    fn unreliable_voter_can_betray_the_majority() {
        // The §7 caveat: three correct executions, but the voter itself is
        // corrupted and reports the wrong value.
        let mut meter = CostMeter::default();
        let (claimed, honest) = tmr_with_unreliable_voter(
            faulty(&[]),
            |_a, _b, _c| Some(31337u64), // a corrupted voter
            &mut meter,
        );
        assert_eq!(honest, Some(42));
        assert_eq!(claimed, Some(31337));
        assert_ne!(claimed, honest, "reliability of the vote matters");
    }

    #[test]
    fn costs_scale_as_the_paper_says() {
        // §3: detection ≈ 2× work, correction ≈ 3×.
        let mut d = CostMeter::default();
        let mut t = CostMeter::default();
        dmr(faulty(&[]), 1, &mut d).unwrap();
        tmr(faulty(&[]), &mut t).unwrap();
        assert_eq!(d.executions, 2);
        assert_eq!(t.executions, 3);
    }
}
