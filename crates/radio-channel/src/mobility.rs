//! UE mobility models: stationary, walking, driving (paper §2, §7).
//!
//! * Stationary — experiments "placing the phones on flat surfaces";
//! * Walking — random-waypoint wander inside the study area at ~1.4 m/s;
//! * Driving — along a fixed route at urban speeds ("attaching them to
//!   car phone holders during driving experiments");
//! * Route — deterministic path walks for the Fig. 7 RSRQ maps.

use crate::geometry::Position;
use crate::rng::SeedTree;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Declarative description of a mobility pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MobilityModel {
    /// No movement.
    Stationary {
        /// Fixed position.
        position: Position,
    },
    /// Random waypoint inside a disc: pick a point, walk to it at `speed`,
    /// repeat.
    RandomWaypoint {
        /// Centre of the wander area.
        center: Position,
        /// Radius of the wander area, metres.
        radius_m: f64,
        /// Speed, m/s (walking ≈ 1.4).
        speed_mps: f64,
    },
    /// Follow a polyline of waypoints at constant speed, looping back to
    /// the start (driving routes, scouting walks).
    Route {
        /// Waypoints, at least two.
        waypoints: Vec<Position>,
        /// Speed, m/s (urban driving ≈ 8–14).
        speed_mps: f64,
    },
}

impl MobilityModel {
    /// Typical walking pattern in a study area.
    pub fn walking(center: Position, radius_m: f64) -> Self {
        MobilityModel::RandomWaypoint { center, radius_m, speed_mps: 1.4 }
    }

    /// Typical urban driving loop around the study area.
    pub fn driving_loop(center: Position, half_extent_m: f64) -> Self {
        let e = half_extent_m;
        MobilityModel::Route {
            waypoints: vec![
                Position::new(center.x - e, center.y - e),
                Position::new(center.x + e, center.y - e),
                Position::new(center.x + e, center.y + e),
                Position::new(center.x - e, center.y + e),
            ],
            speed_mps: 11.0,
        }
    }

    /// Nominal speed of the pattern, m/s.
    pub fn speed_mps(&self) -> f64 {
        match self {
            MobilityModel::Stationary { .. } => 0.0,
            MobilityModel::RandomWaypoint { speed_mps, .. }
            | MobilityModel::Route { speed_mps, .. } => *speed_mps,
        }
    }

    /// Where the pattern starts.
    pub fn start(&self) -> Position {
        match self {
            MobilityModel::Stationary { position } => *position,
            MobilityModel::RandomWaypoint { center, .. } => *center,
            MobilityModel::Route { waypoints, .. } => {
                assert!(waypoints.len() >= 2, "a route needs at least two waypoints");
                waypoints[0]
            }
        }
    }

    /// Instantiate the stateful walker.
    pub fn into_state(self, seeds: &SeedTree) -> MobilityState {
        let rng = seeds.stream("mobility");
        let position = self.start();
        MobilityState { model: self, position, target: None, route_leg: 0, rng }
    }
}

/// The evolving position of one UE.
#[derive(Debug, Clone)]
pub struct MobilityState {
    model: MobilityModel,
    position: Position,
    target: Option<Position>,
    route_leg: usize,
    rng: ChaCha12Rng,
}

impl MobilityState {
    /// Current position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Current speed (0 for stationary).
    pub fn speed_mps(&self) -> f64 {
        self.model.speed_mps()
    }

    /// Advance by `dt_s` seconds; returns the distance moved in metres.
    pub fn advance(&mut self, dt_s: f64) -> f64 {
        // Destructure into disjoint borrows: the match borrows `model`
        // while the loop bodies mutate position/target/route_leg/rng, and
        // the Route arm in particular must not have to clone its waypoint
        // vector every slot to appease the borrow checker (a per-slot
        // heap allocation on the driving hot path).
        let MobilityState { model, position, target, route_leg, rng } = self;
        match model {
            MobilityModel::Stationary { .. } => 0.0,
            MobilityModel::RandomWaypoint { center, radius_m, speed_mps } => {
                let (center, radius, speed) = (*center, *radius_m, *speed_mps);
                let mut remaining = speed * dt_s;
                let mut moved = 0.0;
                while remaining > 1e-12 {
                    let tgt = match *target {
                        Some(t) => t,
                        None => {
                            // Uniform point in the disc via rejection-free polar
                            // sampling (sqrt for area uniformity).
                            let r = radius * rng.gen::<f64>().sqrt();
                            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                            let t = Position::new(
                                center.x + r * theta.cos(),
                                center.y + r * theta.sin(),
                            );
                            *target = Some(t);
                            t
                        }
                    };
                    let dist = position.distance_to(&tgt);
                    if dist <= remaining {
                        *position = tgt;
                        moved += dist;
                        remaining -= dist;
                        *target = None;
                    } else {
                        let t = remaining / dist;
                        *position = position.lerp(&tgt, t);
                        moved += remaining;
                        remaining = 0.0;
                    }
                }
                moved
            }
            MobilityModel::Route { waypoints, speed_mps } => {
                let speed = *speed_mps;
                let mut remaining = speed * dt_s;
                let mut moved = 0.0;
                while remaining > 1e-12 {
                    let next = waypoints[(*route_leg + 1) % waypoints.len()];
                    let dist = position.distance_to(&next);
                    if dist <= remaining {
                        *position = next;
                        moved += dist;
                        remaining -= dist;
                        *route_leg = (*route_leg + 1) % waypoints.len();
                    } else {
                        let t = remaining / dist;
                        *position = position.lerp(&next, t);
                        moved += remaining;
                        remaining = 0.0;
                    }
                }
                moved
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_never_moves() {
        let m = MobilityModel::Stationary { position: Position::new(3.0, 4.0) };
        let mut s = m.into_state(&SeedTree::new(1));
        for _ in 0..100 {
            assert_eq!(s.advance(1.0), 0.0);
        }
        assert_eq!(s.position().x, 3.0);
    }

    #[test]
    fn walking_stays_in_disc_and_moves_at_speed() {
        let center = Position::new(10.0, -5.0);
        let m = MobilityModel::walking(center, 50.0);
        let mut s = m.into_state(&SeedTree::new(2));
        let mut total = 0.0;
        for _ in 0..1000 {
            total += s.advance(0.5);
            let d = s.position().distance_to(&center);
            assert!(d <= 50.0 + 1e-9, "escaped the disc: {d}");
        }
        // 1000 steps of 0.5 s at 1.4 m/s = 700 m.
        assert!((total - 700.0).abs() < 1e-6);
    }

    #[test]
    fn route_loops() {
        let m = MobilityModel::driving_loop(Position::ORIGIN, 100.0);
        let mut s = m.into_state(&SeedTree::new(3));
        // Perimeter = 800 m; at 11 m/s a full loop takes ≈ 72.7 s.
        let start = s.position();
        let mut total = 0.0;
        for _ in 0..728 {
            total += s.advance(0.1);
        }
        assert!((total - 800.8).abs() < 1.0);
        assert!(s.position().distance_to(&start) < 2.0, "should be back near start");
    }

    #[test]
    fn driving_covers_more_ground_than_walking() {
        let mut walk = MobilityModel::walking(Position::ORIGIN, 200.0).into_state(&SeedTree::new(4));
        let mut drive =
            MobilityModel::driving_loop(Position::ORIGIN, 200.0).into_state(&SeedTree::new(4));
        let mut dw = 0.0;
        let mut dd = 0.0;
        for _ in 0..100 {
            dw += walk.advance(1.0);
            dd += drive.advance(1.0);
        }
        assert!(dd > dw * 5.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || MobilityModel::walking(Position::ORIGIN, 80.0).into_state(&SeedTree::new(9));
        let mut a = mk();
        let mut b = mk();
        for _ in 0..200 {
            a.advance(0.3);
            b.advance(0.3);
            assert_eq!(a.position().x, b.position().x);
            assert_eq!(a.position().y, b.position().y);
        }
    }
}
