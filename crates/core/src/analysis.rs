//! Route-level statistics, matching the numbers quoted in section 4.7 of
//! the paper (fraction of minimal paths, average distance, average number
//! of in-transit buffers per route).

use regnet_topology::{DistanceMatrix, Topology};

use crate::table::RouteDb;

/// Summary statistics of a [`RouteDb`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteStats {
    /// Fraction of ordered distinct switch pairs whose (first-alternative)
    /// route is minimal. The paper reports 80% for up\*/down\* on the 2-D
    /// torus, 94% with express channels and 100% on CPLANT.
    pub minimal_fraction: f64,
    /// Average route length in links over ordered distinct switch pairs,
    /// averaged across alternatives. Paper: 4.57 (up\*/down\*) vs 4.06
    /// (minimal) on the torus.
    pub avg_distance: f64,
    /// Average in-transit buffers per route, over all alternatives of all
    /// ordered distinct pairs. Paper: 0.43 per message with ITB-SP and 0.54
    /// with ITB-RR on the torus under uniform traffic.
    pub avg_itbs: f64,
    /// Largest number of ITBs on any single route.
    pub max_itbs: usize,
    /// Mean number of alternative routes per pair.
    pub avg_alternatives: f64,
}

impl RouteStats {
    /// Compute statistics over every ordered distinct switch pair of `db`.
    pub fn compute(topo: &Topology, db: &RouteDb) -> RouteStats {
        let dm = DistanceMatrix::compute(topo);
        let mut pairs = 0usize;
        let mut minimal_first = 0usize;
        let mut dist_sum = 0.0f64;
        let mut itb_sum = 0.0f64;
        let mut itb_max = 0usize;
        let mut alt_sum = 0usize;
        for (s, d, alts) in db.iter_pairs() {
            if s == d {
                continue;
            }
            pairs += 1;
            alt_sum += alts.len();
            if alts.get(0).total_links() == dm.get(s, d) as usize {
                minimal_first += 1;
            }
            // Per-pair averages across alternatives, so pairs with many
            // alternatives do not dominate (the round-robin policy gives
            // each alternative of a pair equal weight, and every pair the
            // same traffic).
            let mut pair_dist = 0usize;
            let mut pair_itbs = 0usize;
            for t in alts {
                pair_dist += t.total_links();
                pair_itbs += t.num_itbs();
                itb_max = itb_max.max(t.num_itbs());
            }
            dist_sum += pair_dist as f64 / alts.len() as f64;
            itb_sum += pair_itbs as f64 / alts.len() as f64;
        }
        RouteStats {
            minimal_fraction: minimal_first as f64 / pairs.max(1) as f64,
            avg_distance: dist_sum / pairs.max(1) as f64,
            avg_itbs: itb_sum / pairs.max(1) as f64,
            max_itbs: itb_max,
            avg_alternatives: alt_sum as f64 / pairs.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{RouteDbConfig, RoutingScheme};
    use regnet_topology::{gen, PortTarget};

    #[test]
    fn paper_torus_updown_stats() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            (0.72..=0.88).contains(&stats.minimal_fraction),
            "torus UP/DOWN minimal fraction {}, paper ~0.80",
            stats.minimal_fraction
        );
        assert!(
            (4.3..=4.9).contains(&stats.avg_distance),
            "torus UP/DOWN avg distance {}, paper 4.57",
            stats.avg_distance
        );
        assert_eq!(stats.avg_itbs, 0.0);
        assert_eq!(stats.max_itbs, 0);
        assert_eq!(stats.avg_alternatives, 1.0);
    }

    #[test]
    fn paper_torus_itb_stats() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        // ITB routing always uses minimal paths.
        assert_eq!(stats.minimal_fraction, 1.0);
        assert!(
            (stats.avg_distance - 4.06).abs() < 0.1,
            "ITB avg distance {}, paper 4.06",
            stats.avg_distance
        );
        // Paper: ~0.43-0.54 ITBs per message under uniform traffic.
        assert!(
            (0.2..=0.9).contains(&stats.avg_itbs),
            "avg ITBs {} out of band",
            stats.avg_itbs
        );
        assert!(stats.avg_alternatives > 1.5);
    }

    #[test]
    fn paper_express_minimal_fraction() {
        // Paper: "the percentage of minimal paths is 94%" for UP/DOWN on
        // the torus with express channels.
        let topo = gen::torus_2d_express(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            stats.minimal_fraction > 0.85,
            "express UP/DOWN minimal fraction {}, paper 0.94",
            stats.minimal_fraction
        );
    }

    #[test]
    fn paper_cplant_minimal_fraction() {
        // Paper: "UP/DOWN always uses minimal paths in this topology".
        let topo = gen::cplant().unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            stats.minimal_fraction > 0.9,
            "cplant UP/DOWN minimal fraction {}",
            stats.minimal_fraction
        );
    }

    #[test]
    fn itb_load_is_spread() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        // How many routes use each host as an in-transit buffer.
        let mut load = vec![0usize; topo.num_hosts()];
        for (_, _, alts) in db.iter_pairs() {
            for t in alts {
                for hop in t.walk(&topo) {
                    if let PortTarget::Host { host, .. } = hop.to {
                        load[host.idx()] += 1;
                    }
                }
            }
        }
        let total: usize = load.iter().sum();
        assert!(total > 0);
        let max = *load.iter().max().unwrap();
        // With the Spread picker no single host should carry more than a
        // few percent of all in-transit duty.
        assert!(
            (max as f64) < total as f64 * 0.05,
            "one host carries {max} of {total} ITB routes"
        );
    }
}
