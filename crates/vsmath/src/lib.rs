//! # vsmath — geometry and math substrate
//!
//! Foundation crate for the `vscreen` virtual-screening stack. Provides the
//! small, allocation-free geometric types the rest of the system is built
//! on: 3-vectors, unit quaternions, rigid-body transforms, axis-aligned
//! bounding boxes, a spatial hash grid for neighbor queries, deterministic
//! seeded RNG streams, and streaming statistics.
//!
//! Everything here is deterministic and `f64`-based; the scoring kernels in
//! `vsscore` convert to `f32`-friendly layouts where profitable.
#![forbid(unsafe_code)]

pub mod aabb;
pub mod grid;
pub mod hash;
pub mod histogram;
pub mod mat3;
pub mod quat;
pub mod rng;
pub mod stats;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use grid::SpatialGrid;
pub use hash::fnv1a;
pub use histogram::Histogram;
pub use mat3::Mat3;
pub use quat::Quat;
pub use rng::RngStream;
pub use stats::OnlineStats;
pub use transform::RigidTransform;
pub use vec3::Vec3;

/// Relative-tolerance float comparison used across the workspace's tests.
///
/// Returns `true` when `a` and `b` agree to within `rel` of the larger
/// magnitude, or within `rel` absolutely when both are near zero.
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= rel * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0, 1e-12));
    }

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-9, 1e-8));
        assert!(!approx_eq(1.0, 1.1, 1e-8));
    }

    #[test]
    fn approx_eq_near_zero() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }
}
