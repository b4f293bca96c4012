//! Exhaustive fault-sweep driver for crash-recovery suites.
//!
//! The crash-consistency property a durable store must satisfy is not
//! "survives a crash" but "survives a crash at *every* I/O boundary": a
//! store that fsyncs in the wrong order only loses data when the crash
//! lands between the two steps, so sampling a few crash points proves
//! nothing. The driver here makes the exhaustive form cheap to express:
//!
//! 1. The caller first runs the workload once with a counting hook to
//!    learn how many fault points the op sequence crosses.
//! 2. [`sweep`] then replays the workload once per `(point index, kind)`
//!    pair — each run injecting exactly one fault — and hands each pair to
//!    the caller's check, which is expected to run the workload, crash at
//!    the injected point, reopen the store, and verify the recovered state
//!    (typically against an in-memory oracle, prefix-consistency style).
//!
//! The driver is deliberately generic over the fault-kind type: the
//! concrete hook machinery (`FaultHook`, `FireAt`, …) lives with the
//! backends in `nexus-storage`, and the testkit stays dependency-free.

use std::fmt::Debug;

/// Statistics from a completed sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Fault points the workload crosses (as counted by the caller).
    pub points: u64,
    /// Injected runs executed (`points x kinds`).
    pub runs: u64,
}

/// A failing `(point, kind)` cell of the sweep.
#[derive(Debug)]
pub struct SweepFailure<K> {
    /// 0-based index of the fault point that was injected.
    pub point: u64,
    /// The failure shape injected there.
    pub kind: K,
    /// The check's error message.
    pub message: String,
}

/// Runs `check` for every `(point index, kind)` combination, panicking
/// with a reproduction report on the first failing cell.
///
/// `points` is the total number of fault points the op sequence crosses —
/// measure it by running the workload once under a counting hook. `check`
/// receives the point index to inject at and the kind to inject, and
/// returns `Err` if recovery after that crash violates the property.
pub fn sweep<K: Copy + Debug>(
    name: &str,
    points: u64,
    kinds: &[K],
    check: impl FnMut(u64, K) -> Result<(), String>,
) -> SweepStats {
    match sweep_result(points, kinds, check) {
        Ok(stats) => stats,
        Err(f) => panic!(
            "fault sweep `{name}` failed: crash injected at point {} ({:?}) \
             broke recovery\nerror: {}",
            f.point, f.kind, f.message
        ),
    }
}

/// Like [`sweep`] but returns the failing cell instead of panicking —
/// used by the harness's own tests.
pub fn sweep_result<K: Copy + Debug>(
    points: u64,
    kinds: &[K],
    mut check: impl FnMut(u64, K) -> Result<(), String>,
) -> Result<SweepStats, SweepFailure<K>> {
    let mut runs = 0;
    for point in 0..points {
        for &kind in kinds {
            runs += 1;
            if let Err(message) = check(point, kind) {
                return Err(SweepFailure { point, kind, message });
            }
        }
    }
    Ok(SweepStats { points, runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_point_kind_cell() {
        let mut cells = Vec::new();
        let stats = sweep_result(3, &['t', 'd'], |p, k| {
            cells.push((p, k));
            Ok(())
        })
        .unwrap();
        assert_eq!(stats, SweepStats { points: 3, runs: 6 });
        assert_eq!(
            cells,
            vec![(0, 't'), (0, 'd'), (1, 't'), (1, 'd'), (2, 't'), (2, 'd')]
        );
    }

    #[test]
    fn reports_the_failing_cell() {
        let failure = sweep_result(4, &['x'], |p, _| {
            if p == 2 {
                Err("recovered world diverged".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(failure.point, 2);
        assert_eq!(failure.kind, 'x');
        assert!(failure.message.contains("diverged"));
    }

    #[test]
    fn zero_points_is_an_empty_sweep() {
        let stats = sweep_result(0, &['x'], |_, _| Err("never called".into())).unwrap();
        assert_eq!(stats.runs, 0);
    }
}
