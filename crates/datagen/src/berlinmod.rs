//! A BerlinMOD-like synthetic moving-object snapshot generator.
//!
//! The paper's evaluation uses snapshots of the BerlinMOD benchmark: about
//! two thousand cars reporting their movement over Berlin for 28 days, with
//! the time dimension removed ("to deal with snapshots of points"). The
//! benchmark data itself is not available offline, so this module simulates
//! the same *kind* of data:
//!
//! * a city extent with a synthetic street network (a Manhattan-style grid of
//!   arterial streets with small jitter, denser towards the city center),
//! * a fleet of vehicles, each assigned a *home* and a *work* node biased
//!   towards the center (population density),
//! * vehicle positions sampled along rectilinear home↔work routes, plus a
//!   fraction of "parked" positions exactly at home/work.
//!
//! The resulting point set is strongly non-uniform: most index blocks are
//! nearly empty while blocks on arterials and near the center hold thousands
//! of points — the property that drives the pruning behaviour of the paper's
//! algorithms.

use twoknn_geometry::{Point, Rect};

use crate::rng::StdRng;

/// Configuration of the synthetic BerlinMOD-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerlinModConfig {
    /// Number of snapshot points to generate.
    pub num_points: usize,
    /// Number of vehicles in the fleet (BerlinMOD scale factor 1.0 ≈ 2,000).
    pub num_vehicles: usize,
    /// Spacing between arterial streets, in the same unit as the extent.
    pub street_spacing: f64,
    /// Standard deviation of the jitter of positions around street lines.
    pub street_jitter: f64,
    /// Fraction of points that are parked exactly at home/work locations.
    pub parked_fraction: f64,
    /// City extent.
    pub extent: Rect,
    /// RNG seed.
    pub seed: u64,
}

impl BerlinModConfig {
    /// A configuration comparable to BerlinMOD scale factor 1.0 with the
    /// requested number of snapshot points.
    pub fn with_points(num_points: usize, seed: u64) -> Self {
        Self {
            num_points,
            num_vehicles: 2_000,
            street_spacing: 2_500.0,
            street_jitter: 60.0,
            parked_fraction: 0.25,
            extent: crate::default_extent(),
            seed,
        }
    }
}

/// Generates a snapshot point set per `config`. See the module docs.
pub fn berlinmod(config: &BerlinModConfig) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let extent = config.extent;
    let center = extent.center();
    // Scale of the central-density bias: positions are pulled towards the
    // center with a Gaussian whose std-dev is a quarter of the extent.
    let sigma = extent.width().min(extent.height()) / 4.0;

    // Sample a node: a street intersection near a center-biased location.
    let sample_node = |rng: &mut StdRng| -> (f64, f64) {
        let gx: f64 = center.x + sigma * sample_standard_normal(rng);
        let gy: f64 = center.y + sigma * sample_standard_normal(rng);
        let snap = |v: f64, lo: f64, hi: f64| {
            let v = v.clamp(lo, hi);
            let k = ((v - lo) / config.street_spacing).round();
            (lo + k * config.street_spacing).clamp(lo, hi)
        };
        (
            snap(gx, extent.min_x, extent.max_x),
            snap(gy, extent.min_y, extent.max_y),
        )
    };

    // Fleet of vehicles with home and work nodes.
    let fleet: Vec<((f64, f64), (f64, f64))> = (0..config.num_vehicles.max(1))
        .map(|_| (sample_node(&mut rng), sample_node(&mut rng)))
        .collect();

    let mut points = Vec::with_capacity(config.num_points);
    for id in 0..config.num_points {
        let (home, work) = fleet[rng.gen_range(0..fleet.len())];
        let (x, y) = if rng.gen_bool(config.parked_fraction.clamp(0.0, 1.0)) {
            // Parked at home or work.
            if rng.gen_bool(0.5) {
                home
            } else {
                work
            }
        } else {
            // En route on the rectilinear (L-shaped) path home -> work.
            // First travel along x on the home street, then along y on the
            // work street (or the other way round, picked at random).
            let t: f64 = rng.gen_range(0.0..1.0);
            let x_first = rng.gen_bool(0.5);
            let leg_x = (work.0 - home.0).abs();
            let leg_y = (work.1 - home.1).abs();
            let total = (leg_x + leg_y).max(1e-9);
            let travelled = t * total;
            if x_first {
                if travelled <= leg_x {
                    (home.0 + (work.0 - home.0).signum() * travelled, home.1)
                } else {
                    (
                        work.0,
                        home.1 + (work.1 - home.1).signum() * (travelled - leg_x),
                    )
                }
            } else if travelled <= leg_y {
                (home.0, home.1 + (work.1 - home.1).signum() * travelled)
            } else {
                (
                    home.0 + (work.0 - home.0).signum() * (travelled - leg_y),
                    work.1,
                )
            }
        };
        // GPS-like jitter around the street.
        let jx = config.street_jitter * sample_standard_normal(&mut rng);
        let jy = config.street_jitter * sample_standard_normal(&mut rng);
        points.push(Point::new(
            id as u64,
            (x + jx).clamp(extent.min_x, extent.max_x),
            (y + jy).clamp(extent.min_y, extent.max_y),
        ));
    }
    points
}

/// Standard normal sample via Box–Muller (avoids a dependency on
/// `rand_distr`, which is not in the allowed crate list).
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_inside_extent() {
        let cfg = BerlinModConfig::with_points(5_000, 17);
        let pts = berlinmod(&cfg);
        assert_eq!(pts.len(), 5_000);
        for p in &pts {
            assert!(cfg.extent.contains(p));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = BerlinModConfig::with_points(1_000, 3);
        assert_eq!(berlinmod(&cfg), berlinmod(&cfg));
        let other = BerlinModConfig::with_points(1_000, 4);
        assert_ne!(berlinmod(&cfg), berlinmod(&other));
    }

    #[test]
    fn density_is_skewed_compared_to_uniform() {
        // Partition the extent into a 10x10 grid and compare the max cell
        // count to the mean: the BerlinMOD-like data must be far more skewed
        // than a uniform sample of the same size.
        let cfg = BerlinModConfig::with_points(20_000, 23);
        let pts = berlinmod(&cfg);
        let skew = |pts: &[Point]| {
            let mut counts = vec![0usize; 100];
            for p in pts {
                let ix = ((p.x - cfg.extent.min_x) / cfg.extent.width() * 10.0)
                    .min(9.0)
                    .floor() as usize;
                let iy = ((p.y - cfg.extent.min_y) / cfg.extent.height() * 10.0)
                    .min(9.0)
                    .floor() as usize;
                counts[iy * 10 + ix] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            max / (pts.len() as f64 / 100.0)
        };
        let uniform_pts = crate::uniform(20_000, cfg.extent, 23);
        assert!(skew(&pts) > 2.0 * skew(&uniform_pts));
    }

    #[test]
    fn points_concentrate_towards_the_center() {
        let cfg = BerlinModConfig::with_points(10_000, 29);
        let pts = berlinmod(&cfg);
        let c = cfg.extent.center();
        let half = cfg.extent.width() / 4.0;
        let central = pts
            .iter()
            .filter(|p| (p.x - c.x).abs() <= half && (p.y - c.y).abs() <= half)
            .count();
        // The central quarter of the area should hold well over a quarter of
        // the points.
        assert!(central as f64 > 0.4 * pts.len() as f64);
    }

    #[test]
    fn ids_are_sequential() {
        let cfg = BerlinModConfig::with_points(100, 5);
        for (i, p) in berlinmod(&cfg).iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
    }
}
