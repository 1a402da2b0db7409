//! Code transformations and schedules.
//!
//! The model of §4 covers loop fusion, interchange, tiling, and unrolling,
//! with parallelization and vectorization applied through Halide-style
//! heuristics. A [`Schedule`] is an ordered list of [`Transform`]s in the
//! canonical order the paper's search tree explores them (Figure 3):
//! fusion first, then interchange, then tiling, then the unroll /
//! parallelize / vectorize tags.

use serde::{Deserialize, Serialize};

use crate::program::CompId;

/// A single code transformation.
///
/// Loop levels are indices into the *original* loop nest of the target
/// computation ([`crate::program::Computation::iters`]), outermost first —
/// the same convention the paper uses to tag its computation vectors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transform {
    /// Fuses the loop nest of `comp` into the nest of `with` for the first
    /// `depth` loop levels. `with` must be textually earlier.
    Fuse {
        /// Computation whose nest is moved.
        comp: CompId,
        /// Host computation.
        with: CompId,
        /// Number of outer loops shared after fusion.
        depth: usize,
    },
    /// Swaps two loop levels of a computation's nest.
    Interchange {
        /// Target computation.
        comp: CompId,
        /// First original level.
        level_a: usize,
        /// Second original level.
        level_b: usize,
    },
    /// 2-D loop tiling of two currently-adjacent levels.
    Tile {
        /// Target computation.
        comp: CompId,
        /// Outer original level of the tiled band.
        level_a: usize,
        /// Inner original level of the tiled band.
        level_b: usize,
        /// Tile size along `level_a`.
        size_a: i64,
        /// Tile size along `level_b`.
        size_b: i64,
    },
    /// Unrolls the innermost loop of the computation by `factor`.
    Unroll {
        /// Target computation.
        comp: CompId,
        /// Unroll factor (≥ 2).
        factor: i64,
    },
    /// Marks a loop level for multicore parallel execution.
    Parallelize {
        /// Target computation.
        comp: CompId,
        /// Original level to parallelize.
        level: usize,
    },
    /// Marks the innermost loop for SIMD execution with `factor` lanes.
    Vectorize {
        /// Target computation.
        comp: CompId,
        /// Vector width in elements (e.g. 8 for AVX2 f32).
        factor: i64,
    },
}

impl Transform {
    /// The computation this transform targets.
    pub fn comp(&self) -> CompId {
        match *self {
            Transform::Fuse { comp, .. }
            | Transform::Interchange { comp, .. }
            | Transform::Tile { comp, .. }
            | Transform::Unroll { comp, .. }
            | Transform::Parallelize { comp, .. }
            | Transform::Vectorize { comp, .. } => comp,
        }
    }

    /// Canonical application phase (lower phases must come first in a
    /// schedule): fuse = 0, interchange = 1, tile = 2, tags = 3.
    pub fn phase(&self) -> u8 {
        match self {
            Transform::Fuse { .. } => 0,
            Transform::Interchange { .. } => 1,
            Transform::Tile { .. } => 2,
            Transform::Unroll { .. }
            | Transform::Parallelize { .. }
            | Transform::Vectorize { .. } => 3,
        }
    }

    /// Short human-readable rendering, e.g. `tile(c0, L1, L2, 32, 32)`.
    pub fn describe(&self) -> String {
        match *self {
            Transform::Fuse { comp, with, depth } => {
                format!("fuse(c{}, into c{}, depth {})", comp.0, with.0, depth)
            }
            Transform::Interchange {
                comp,
                level_a,
                level_b,
            } => {
                format!("interchange(c{}, L{level_a}, L{level_b})", comp.0)
            }
            Transform::Tile {
                comp,
                level_a,
                level_b,
                size_a,
                size_b,
            } => {
                format!(
                    "tile(c{}, L{level_a}, L{level_b}, {size_a}, {size_b})",
                    comp.0
                )
            }
            Transform::Unroll { comp, factor } => format!("unroll(c{}, {factor})", comp.0),
            Transform::Parallelize { comp, level } => {
                format!("parallelize(c{}, L{level})", comp.0)
            }
            Transform::Vectorize { comp, factor } => {
                format!("vectorize(c{}, {factor})", comp.0)
            }
        }
    }
}

/// An ordered sequence of transformations applied to a program.
///
/// # Examples
///
/// ```
/// use dlcm_ir::{CompId, Schedule, Transform};
/// let s = Schedule::new(vec![
///     Transform::Interchange { comp: CompId(0), level_a: 0, level_b: 1 },
///     Transform::Tile { comp: CompId(0), level_a: 0, level_b: 1, size_a: 32, size_b: 32 },
///     Transform::Unroll { comp: CompId(0), factor: 4 },
/// ]);
/// assert!(s.is_canonical());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Transforms in application order.
    pub transforms: Vec<Transform>,
}

impl Schedule {
    /// Creates a schedule from a transform list.
    pub fn new(transforms: Vec<Transform>) -> Self {
        Self { transforms }
    }

    /// The empty (baseline) schedule.
    pub fn empty() -> Self {
        Self::default()
    }

    /// `true` when no transforms are present.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Number of transforms.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// Appends a transform, returning `self` for chaining.
    pub fn with(mut self, t: Transform) -> Self {
        self.transforms.push(t);
        self
    }

    /// `true` when transforms appear in non-decreasing
    /// [`Transform::phase`] order (fuse → interchange → tile → tags),
    /// the order the paper's search tree explores.
    pub fn is_canonical(&self) -> bool {
        self.transforms
            .windows(2)
            .all(|w| w[0].phase() <= w[1].phase())
    }

    /// Canonical form for content-keyed caching.
    ///
    /// Within the tag phase (unroll / parallelize / vectorize) transforms
    /// set independent fields of the loop headers, so any two tag orders
    /// produce equal [`crate::ScheduledProgram`]s; they
    /// are sorted into a fixed order here so all equivalent spellings share
    /// one cache entry. The structural phases (fuse, interchange, tile) are
    /// order-sensitive and keep their relative order (the sort is stable
    /// and compares them by phase only).
    ///
    /// Non-canonical schedules are returned unchanged: `apply_schedule`
    /// rejects them (they evaluate to 0.0), so reordering one into phase
    /// order would alias its cache entry with a *legal* schedule's.
    #[must_use]
    pub fn normalized(&self) -> Schedule {
        if !self.is_canonical() {
            return self.clone();
        }
        fn tag_key(t: &Transform) -> (usize, u8, i64) {
            match *t {
                Transform::Unroll { comp, factor } => (comp.0, 0, factor),
                Transform::Parallelize { comp, level } => (comp.0, 1, level as i64),
                Transform::Vectorize { comp, factor } => (comp.0, 2, factor),
                _ => unreachable!("tag_key is only called on phase-3 transforms"),
            }
        }
        let mut transforms = self.transforms.clone();
        transforms.sort_by(|a, b| match (a.phase(), b.phase()) {
            (3, 3) => tag_key(a).cmp(&tag_key(b)),
            (pa, pb) => pa.cmp(&pb),
        });
        Schedule::new(transforms)
    }

    /// In-memory key of the [`Schedule::normalized`] form
    /// ([`crate::fingerprint::structural_key`]), the schedule half of a
    /// `(program, schedule)` cache key. Never persisted: what is stored
    /// on disk keys a schedule by
    /// [`crate::fingerprint::stable_fingerprint`].
    pub fn cache_key(&self) -> u64 {
        crate::fingerprint::structural_key(&self.normalized().transforms)
    }

    /// One-line rendering of the whole schedule.
    pub fn describe(&self) -> String {
        if self.transforms.is_empty() {
            return "<baseline>".to_string();
        }
        self.transforms
            .iter()
            .map(Transform::describe)
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered() {
        let f = Transform::Fuse {
            comp: CompId(1),
            with: CompId(0),
            depth: 1,
        };
        let i = Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
        };
        let t = Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: 4,
            size_b: 4,
        };
        let u = Transform::Unroll {
            comp: CompId(0),
            factor: 2,
        };
        assert!(f.phase() < i.phase());
        assert!(i.phase() < t.phase());
        assert!(t.phase() < u.phase());
    }

    #[test]
    fn canonical_detection() {
        let good = Schedule::new(vec![
            Transform::Interchange {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
            },
            Transform::Unroll {
                comp: CompId(0),
                factor: 2,
            },
        ]);
        assert!(good.is_canonical());
        let bad = Schedule::new(vec![
            Transform::Unroll {
                comp: CompId(0),
                factor: 2,
            },
            Transform::Interchange {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
            },
        ]);
        assert!(!bad.is_canonical());
    }

    #[test]
    fn describe_is_informative() {
        let s = Schedule::new(vec![Transform::Tile {
            comp: CompId(2),
            level_a: 1,
            level_b: 2,
            size_a: 16,
            size_b: 8,
        }]);
        assert_eq!(s.describe(), "tile(c2, L1, L2, 16, 8)");
        assert_eq!(Schedule::empty().describe(), "<baseline>");
    }

    #[test]
    fn normalization_orders_tags_and_keeps_structural_order() {
        let tile = Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: 32,
            size_b: 32,
        };
        let par = Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        };
        let vec = Transform::Vectorize {
            comp: CompId(0),
            factor: 8,
        };
        let a = Schedule::new(vec![tile.clone(), par.clone(), vec.clone()]);
        let b = Schedule::new(vec![tile.clone(), vec, par]);
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.cache_key(), b.cache_key());
        // Structural transforms are order-sensitive and must not move.
        let i01 = Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
        };
        let i12 = Transform::Interchange {
            comp: CompId(0),
            level_a: 1,
            level_b: 2,
        };
        let s1 = Schedule::new(vec![i01.clone(), i12.clone()]);
        let s2 = Schedule::new(vec![i12, i01]);
        assert_ne!(s1.cache_key(), s2.cache_key());
        assert_eq!(s1.normalized().transforms, s1.transforms);
    }

    #[test]
    fn non_canonical_schedules_keep_their_own_cache_key() {
        // [Unroll, Interchange] is rejected by apply_schedule (phase
        // order), so it must NOT share a cache entry with the legal
        // [Interchange, Unroll] spelling.
        let unroll = Transform::Unroll {
            comp: CompId(0),
            factor: 2,
        };
        let inter = Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
        };
        let illegal = Schedule::new(vec![unroll.clone(), inter.clone()]);
        let legal = Schedule::new(vec![inter, unroll]);
        assert!(!illegal.is_canonical());
        assert_eq!(illegal.normalized().transforms, illegal.transforms);
        assert_ne!(illegal.cache_key(), legal.cache_key());
    }
}
