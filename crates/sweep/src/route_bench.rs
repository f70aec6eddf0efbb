//! Route-throughput micro-benchmark with a committed baseline.
//!
//! The routing hot path — A* over the wafer's waveguide grid — sits under
//! every circuit the control plane programs: ring redirection (§4.1),
//! non-overlapping repair splices (Fig 7), and the sweep grids' churn
//! scenarios. This harness measures two steady-state rates on a loaded
//! 4×8 wafer:
//!
//! * **paths/sec** — load-aware searches over a fixed endpoint pool with a
//!   reusable [`route::Searcher`] scratch (the zero-allocation hot path);
//! * **batches/sec** — full ring-plan programming cycles
//!   (plan → atomic edge-disjoint batch → teardown) through
//!   [`fabricd::plan`];
//! * **stamped plans/sec** — the same cycles through a warm
//!   [`fabricd::PlanEngine`]: after one capture cycle, every circuit is
//!   admitted by translating a precompiled template and stamping it
//!   (occupancy AND + pre-budgeted establish), never by a fresh search.
//!
//! Like the sweep baseline, the *outcome* is deterministic and the *rate*
//! is tolerant: `BENCH_route.json` commits an FNV-1a fingerprint of every
//! path found (exact-match gated — a routing change that moves a single
//! hop trips it) plus the measured rates (floor-gated at
//! [`MIN_PERF_RATIO`](desim::bench::MIN_PERF_RATIO)); see [`ROUTE`]. The
//! stamped phase
//! keeps its own fingerprint stream (the legacy fingerprint's bytes are
//! untouched) which also folds in the plan-library hit/fallback counters
//! and a stamp-vs-scratch divergence marker, so a stamp that stops
//! matching fresh routing byte-for-byte trips the exact gate, not just
//! the rate floor.

use crate::fingerprint::Fnv;
use desim::bench::{BenchRecord, Family, Gate::*, Kind::*, Value};
use desim::SimRng;
use fabricd::{program_planned, program_with, ring_plan, PlanEngine};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use resilience::PhotonicRack;
use route::{SearchOptions, Searcher};
use topo::{Coord3, Shape3, Slice};

/// Searches the default report performs (sized to finish in ~a second).
pub const DEFAULT_SEARCHES: u64 = 200_000;
/// Ring-programming cycles the default report performs.
pub const DEFAULT_BATCHES: u64 = 2_000;
/// Load weight of the benchmark searches (matches the churn scenarios).
const LOAD_WEIGHT: f64 = 8.0;
/// Distinct endpoint pairs probed round-robin.
const PAIR_POOL: usize = 64;
/// Establish attempts that pre-load the wafer's buses.
const PRELOAD_ATTEMPTS: usize = 48;
/// Seed fixing the preload circuits and the endpoint pool.
const SEED: u64 = 0x5eed_0042;
/// The stamped plan-library phase must beat the scratch batch rate by at
/// least this factor in release builds (the whole point of admission by
/// stamp: no A*, no link-budget re-evaluation on the hot path).
pub const MIN_STAMPED_SPEEDUP: f64 = 10.0;

/// The route baseline family: workload sizes and both fingerprints are
/// exact, the three rates floor-gated, and the same run must show the
/// plan library's speedup ([`stamped_speedup_holds`]).
pub static ROUTE: Family = Family {
    name: "route",
    keys: &[
        ("searches", U64, Exact),
        ("batches", U64, Exact),
        ("fingerprint", Str, Exact),
        ("wall_s", F64, Info),
        ("paths_per_sec", F64, Floor),
        ("batches_per_sec", F64, Floor),
        ("stamped_batches", U64, Exact),
        ("stamped_fingerprint", Str, Exact),
        ("stamped_plans_per_sec", F64, Floor),
    ],
    same_run: Some(stamped_speedup_holds),
};

/// The same-run speedup gate: stamped plans/sec against the scratch batch
/// rate from the same process on the same machine, so it is immune to
/// host-speed skew. Debug builds re-verify stamped == fresh link budgets
/// inside `establish_prebudgeted` debug_asserts, which erases the speedup
/// by design — the gate is a release-build property.
fn stamped_speedup_holds(r: &BenchRecord) -> Option<String> {
    let (stamped, scratch) = (r.num("stamped_plans_per_sec"), r.num("batches_per_sec"));
    (!cfg!(debug_assertions) && stamped < MIN_STAMPED_SPEEDUP * scratch).then(|| {
        format!(
            "stamped plans/sec {stamped:.0} is below {MIN_STAMPED_SPEEDUP}x the scratch batch \
             rate {scratch:.0} — the plan library is no longer skipping the search/link-budget \
             hot path"
        )
    })
}

/// A deterministically loaded 4×8 wafer: `PRELOAD_ATTEMPTS` seeded
/// establish attempts (some fail on SerDes exhaustion, deterministically)
/// leave a mixed bus occupancy for the load-aware searches to react to.
fn loaded_wafer() -> Wafer {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    for _ in 0..PRELOAD_ATTEMPTS {
        let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        if src != dst {
            let _ = wafer.establish(CircuitRequest::new(src, dst, 1));
        }
    }
    wafer
}

/// The fixed endpoint pool the search loop cycles through.
fn endpoint_pool() -> Vec<(TileCoord, TileCoord)> {
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xffff);
    let mut pool = Vec::with_capacity(PAIR_POOL);
    while pool.len() < PAIR_POOL {
        let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        if src != dst {
            pool.push((src, dst));
        }
    }
    pool
}

/// Run the benchmark: `searches` A* probes over the loaded wafer, then
/// `batches` ring-programming cycles. The fingerprint covers every path
/// and every programmed batch, so it is a pure function of the routing
/// code — independent of clock speed or how long the loops take.
pub fn run_route_bench(searches: u64, batches: u64) -> BenchRecord {
    let mut f = Fnv::new();
    f.write_str("route-bench").write_u64(SEED);

    // --- paths/sec: steady-state searches with one reused scratch --------
    let wafer = loaded_wafer();
    let pool = endpoint_pool();
    let opts = SearchOptions {
        load_weight: LOAD_WEIGHT,
        ..SearchOptions::default()
    };
    let mut searcher = Searcher::new();
    // detlint: allow(DET002) — wall-clock feeds paths/sec telemetry only;
    // the path fingerprint is a pure function of the workload.
    let t0 = std::time::Instant::now();
    for i in 0..searches {
        let (src, dst) = pool[(i % PAIR_POOL as u64) as usize];
        match searcher.find(&wafer, src, dst, &opts) {
            Some(p) => {
                f.write_u64(p.hops() as u64);
            }
            None => {
                f.write_u64(u64::MAX);
            }
        }
    }
    let search_wall = t0.elapsed().as_secs_f64();

    // --- batches/sec: ring plan → program → teardown ---------------------
    let mut rack = PhotonicRack::new(1);
    let slice = Slice::new(0, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let plan = ring_plan(&rack.cluster, &slice, 2);
    // detlint: allow(DET002) — wall-clock feeds batches/sec telemetry only.
    let t1 = std::time::Instant::now();
    for _ in 0..batches {
        match program_with(&mut rack.fabric, &plan, &mut searcher) {
            Ok(handles) => {
                f.write_u64(handles.len() as u64);
                for h in handles.into_iter().rev() {
                    let _ = rack.fabric.teardown_handle(h);
                }
            }
            Err(_) => {
                f.write_u64(u64::MAX);
            }
        }
    }
    let batch_wall = t1.elapsed().as_secs_f64();

    // --- stamped plans/sec: the same cycles through a warm plan library --
    // A separate FNV stream: the legacy fingerprint above must stay
    // byte-identical whether or not this phase exists.
    let mut sf = Fnv::new();
    sf.write_str("route-bench-stamped").write_u64(SEED);
    let mut scratch = PhotonicRack::new(1);
    let mut stamped = PhotonicRack::new(1);
    let mut engine = PlanEngine::new();
    // Two untimed oracle cycles on fresh racks: cycle 1 exercises the
    // capture path, cycle 2 the stamp path, and after each the stamped
    // fabric must be byte-identical to the scratch fabric that ran the
    // identical plan. A divergence is folded into the stamped
    // fingerprint, so the committed exact gate — not a panic — reports it.
    let mut diverged = false;
    for _ in 0..2 {
        let a = program_with(&mut scratch.fabric, &plan, &mut searcher);
        let b = program_planned(&mut stamped.fabric, &plan, &mut engine);
        match (a, b) {
            (Ok(ha), Ok(hb)) => {
                if snap(&scratch) != snap(&stamped) || ha.len() != hb.len() {
                    diverged = true;
                }
                for h in ha.into_iter().rev() {
                    let _ = scratch.fabric.teardown_handle(h);
                }
                for h in hb.into_iter().rev() {
                    let _ = stamped.fabric.teardown_handle(h);
                }
            }
            (Err(_), Err(_)) => {}
            _ => diverged = true,
        }
    }
    sf.write_u64(u64::from(diverged));
    // detlint: allow(DET002) — wall-clock feeds plans/sec telemetry only.
    let t2 = std::time::Instant::now();
    for _ in 0..batches {
        match program_planned(&mut stamped.fabric, &plan, &mut engine) {
            Ok(handles) => {
                sf.write_u64(handles.len() as u64);
                for h in handles.into_iter().rev() {
                    let _ = stamped.fabric.teardown_handle(h);
                }
            }
            Err(_) => {
                sf.write_u64(u64::MAX);
            }
        }
    }
    let stamp_wall = t2.elapsed().as_secs_f64();
    // Fold the library verdicts in: if admission quietly regressed to
    // fresh routing (fallbacks) the counter shift trips the exact gate.
    let ps = engine.plan_stats();
    let cs = engine.cross_stats();
    sf.write_u64(ps.hits)
        .write_u64(ps.misses)
        .write_u64(ps.fallbacks)
        .write_u64(ps.stamped_circuits)
        .write_u64(cs.hits)
        .write_u64(cs.misses)
        .write_u64(cs.fallbacks);

    let rate = |n: u64, wall: f64| if wall > 0.0 { n as f64 / wall } else { 0.0 };
    BenchRecord::new(
        &ROUTE,
        vec![
            ("searches", Value::U64(searches)),
            ("batches", Value::U64(batches)),
            ("fingerprint", Value::Str(format!("{:#018x}", f.finish()))),
            ("wall_s", Value::F64(search_wall + batch_wall + stamp_wall)),
            ("paths_per_sec", Value::F64(rate(searches, search_wall))),
            ("batches_per_sec", Value::F64(rate(batches, batch_wall))),
            ("stamped_batches", Value::U64(batches)),
            (
                "stamped_fingerprint",
                Value::Str(format!("{:#018x}", sf.finish())),
            ),
            (
                "stamped_plans_per_sec",
                Value::F64(rate(batches, stamp_wall)),
            ),
        ],
    )
}

/// Byte-exact state snapshot of a rack's fabric (the stamp-vs-scratch
/// oracle: identical programs must leave identical fabrics).
fn snap(rack: &PhotonicRack) -> String {
    let mut w = desim::SnapWriter::new();
    rack.fabric.write_snap(&mut w);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_rate_independent() {
        let a = run_route_bench(200, 5);
        let b = run_route_bench(200, 5);
        assert_eq!(a.text("fingerprint"), b.text("fingerprint"));
        assert_eq!(a.text("stamped_fingerprint"), b.text("stamped_fingerprint"));
        assert_eq!(a.num("searches"), 200.0);
        assert_eq!(a.num("batches"), 5.0);
        assert_eq!(a.num("stamped_batches"), 5.0);
        assert!(a.num("paths_per_sec") > 0.0);
        assert!(a.num("batches_per_sec") > 0.0);
        assert!(a.num("stamped_plans_per_sec") > 0.0);
        assert_eq!(BenchRecord::parse(&ROUTE, &a.to_json()), Ok(a));
    }

    #[test]
    fn stamped_phase_matches_scratch_and_stays_on_the_stamp_path() {
        let batches = 4u64;
        let r = run_route_bench(10, batches);

        // Reconstruct the stamped digest from the scratch oracle: marker 0
        // (no divergence), then per-cycle handle counts taken from
        // *program_with* on a fresh rack — if the stamp path programmed a
        // different circuit count anywhere, the digests split. The library
        // counters are read from an engine driven identically, and the
        // drive asserts it never fell back to fresh routing.
        let mut searcher = Searcher::new();
        let mut scratch = PhotonicRack::new(1);
        let slice = Slice::new(0, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        let plan = ring_plan(&scratch.cluster, &slice, 2);
        let mut stamped = PhotonicRack::new(1);
        let mut engine = PlanEngine::new();
        let mut expect = Fnv::new();
        expect
            .write_str("route-bench-stamped")
            .write_u64(SEED)
            .write_u64(0);
        for cycle in 0..batches + 2 {
            let ha = program_with(&mut scratch.fabric, &plan, &mut searcher).unwrap();
            let hb = program_planned(&mut stamped.fabric, &plan, &mut engine).unwrap();
            assert_eq!(
                ha.len(),
                hb.len(),
                "cycle {cycle} programmed a different set"
            );
            if cycle >= 2 {
                expect.write_u64(ha.len() as u64);
            }
            for h in ha.into_iter().rev() {
                let _ = scratch.fabric.teardown_handle(h);
            }
            for h in hb.into_iter().rev() {
                let _ = stamped.fabric.teardown_handle(h);
            }
        }
        let ps = engine.plan_stats();
        let cs = engine.cross_stats();
        assert_eq!(ps.fallbacks, 0, "plan library fell back to fresh routing");
        assert_eq!(
            cs.fallbacks, 0,
            "cross-plan cache fell back to fresh routing"
        );
        assert!(ps.hits > 0 && cs.hits > 0, "warm cycles never stamped");
        expect
            .write_u64(ps.hits)
            .write_u64(ps.misses)
            .write_u64(ps.fallbacks)
            .write_u64(ps.stamped_circuits)
            .write_u64(cs.hits)
            .write_u64(cs.misses)
            .write_u64(cs.fallbacks);
        assert_eq!(
            r.text("stamped_fingerprint"),
            format!("{:#018x}", expect.finish()),
            "stamped digest no longer matches the scratch-predicted stream"
        );
    }
}
