//! The CPU product catalog.
//!
//! §2: "CEEs appear to be an industry-wide problem, not specific to any
//! vendor, but the rate is not uniform across CPU products." §4 asks how to
//! "assess the risks to a large fleet, with various CPU types, from several
//! vendors, and of various ages". Products therefore carry their own
//! incidence rates, latent-fraction parameters, and DVFS curves.

use mercurial_fault::DvfsCurve;
use serde::{Deserialize, Serialize};

/// One CPU product (vendor + generation) deployed in the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CpuProduct {
    /// Product name, e.g. "vendorA-gen3".
    pub name: String,
    /// Cores per socket.
    pub cores_per_socket: u16,
    /// Probability that any given manufactured core is mercurial.
    ///
    /// The paper's observed scale — "a few mercurial cores per several
    /// thousand machines" — works out to roughly `1e-5`-ish per core for
    /// ~100-core machines; products vary around that.
    pub mercurial_rate_per_core: f64,
    /// The DVFS curve screeners sweep (footnote 1: f and V are coupled).
    pub dvfs: DvfsCurve,
    /// Relative share of this product in fleet purchases.
    pub fleet_weight: f64,
}

impl CpuProduct {
    /// A three-product catalog with rates spanning the plausible range —
    /// a newer small-feature-size part is worse, matching §5's argument
    /// that shrinking geometry drives the problem.
    pub fn default_catalog() -> Vec<CpuProduct> {
        vec![
            CpuProduct {
                name: "vendorA-gen2".to_string(),
                cores_per_socket: 24,
                mercurial_rate_per_core: 6e-6,
                dvfs: DvfsCurve::typical_server(),
                fleet_weight: 0.35,
            },
            CpuProduct {
                name: "vendorA-gen3".to_string(),
                cores_per_socket: 32,
                mercurial_rate_per_core: 2.5e-5,
                dvfs: DvfsCurve::typical_server(),
                fleet_weight: 0.40,
            },
            CpuProduct {
                name: "vendorB-gen1".to_string(),
                cores_per_socket: 48,
                mercurial_rate_per_core: 1.2e-5,
                dvfs: DvfsCurve::new(vec![(1500, 780), (2000, 850), (2800, 1000)]),
                fleet_weight: 0.25,
            },
        ]
    }

    /// Expected mercurial cores per thousand machines for this product,
    /// given `sockets` sockets per machine.
    pub fn expected_mercurial_per_kmachine(&self, sockets: u8) -> f64 {
        self.mercurial_rate_per_core * self.cores_per_socket as f64 * sockets as f64 * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_rates_differ_across_products() {
        let cat = CpuProduct::default_catalog();
        assert_eq!(cat.len(), 3);
        let mut rates: Vec<f64> = cat.iter().map(|p| p.mercurial_rate_per_core).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            rates[2] / rates[0] > 2.0,
            "products should differ meaningfully"
        );
    }

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = CpuProduct::default_catalog()
            .iter()
            .map(|p| p.fleet_weight)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_incidence_is_a_few_per_several_thousand_machines() {
        // §1's headline scale must fall out of the default catalog.
        let cat = CpuProduct::default_catalog();
        let weighted: f64 = cat
            .iter()
            .map(|p| p.fleet_weight * p.expected_mercurial_per_kmachine(2))
            .sum();
        // "a few per several thousand" → per thousand machines the count
        // should land somewhere around 0.3–3.
        assert!(
            (0.3..=3.0).contains(&weighted),
            "expected per-1000-machines = {weighted}"
        );
    }
}
