//! `spsim` — drive the server-photonics simulator from the command line.
//!
//! ```text
//! spsim wafer [--rows 4] [--cols 8]
//! spsim collective [--slice 4x2x1] [--bytes 8e9] [--mode electrical|optical-split|optical-steer] [--algo ring|bucket|alltoall]
//! spsim repair [--spare 3,3,3] [--bytes 1e9]
//! spsim placement [--jobs 500] [--seed 7]
//! spsim hoststack [--messages 2000] [--bytes 4096] [--peers 8]
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use server_photonics::collectives::{
    all_to_all, bucket_reduce_scatter, execute, ring_reduce_scatter, snake_order, CostParams, Mode,
};
use server_photonics::desim::bench::BenchRecord;
use server_photonics::desim::{SimDuration, SimRng, SimTime};
use server_photonics::fabricd::{self, CampaignOptions, CtrlConfig, CtrlSnapshot};
use server_photonics::hostnet::{self, CircuitPolicy, HostParams, Message, PeerId};
use server_photonics::lightpath::{CircuitRequest, FabricError, TileCoord, Wafer, WaferConfig};
use server_photonics::pod::{self, PodConfig, PodOptions, PodSnapshot};
use server_photonics::resilience::{
    analyze, fig6a, measure_interference, optical_repair, PhotonicRack,
};
use server_photonics::sweep::{
    self, outcome_to_json, route_bench, run_route_bench, run_sweep, GridSpec,
};
use server_photonics::topo::{Coord3, Shape3, Slice, Torus};
use server_photonics::workloads::{generate, simulate as simulate_placement, ArrivalParams};

/// Minimal `--key value` parser: everything after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{k}'"));
            };
            let Some(v) = it.next() else {
                return Err(format!("--{key} needs a value"));
            };
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.0.get(key).cloned().unwrap_or_else(|| default.into())
    }
}

fn parse_shape(s: &str) -> Result<Shape3, String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("shape '{s}' must look like 4x2x1"));
    }
    let dims: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse()).collect();
    let dims = dims.map_err(|_| format!("shape '{s}' has non-numeric extents"))?;
    match dims.as_slice() {
        [x, y, z] => Ok(Shape3::new(*x, *y, *z)),
        _ => Err(format!("shape '{s}' must look like 4x2x1")),
    }
}

fn parse_coord(s: &str) -> Result<Coord3, String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("coordinate '{s}' must look like 3,3,3"));
    }
    let v: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse()).collect();
    let v = v.map_err(|_| format!("coordinate '{s}' has non-numeric parts"))?;
    match v.as_slice() {
        [x, y, z] => Ok(Coord3::new(*x, *y, *z)),
        _ => Err(format!("coordinate '{s}' must look like 3,3,3")),
    }
}

fn cmd_wafer(args: &Args) -> Result<(), String> {
    let rows: u8 = args.get("rows", 4)?;
    let cols: u8 = args.get("cols", 8)?;
    let mut wafer = Wafer::new(WaferConfig {
        rows,
        cols,
        ..WaferConfig::default()
    });
    println!(
        "fabricated {rows}x{cols} wafer: {} tiles, {} waveguides/bus, 16λ × 224 Gb/s per tile",
        wafer.config().tiles(),
        wafer.edge_capacity()
    );
    // Light up a demo circuit between opposite corners.
    let src = TileCoord::new(0, 0);
    let dst = TileCoord::new(rows - 1, cols - 1);
    let rep = wafer
        .establish(CircuitRequest::new(src, dst, 16))
        .map_err(|e| e.to_string())?;
    let ckt = wafer
        .circuit(rep.id)
        .ok_or_else(|| "circuit vanished right after establish".to_string())?;
    println!("corner circuit {src}->{dst}: {}", ckt.path);
    println!(
        "  bandwidth {}  setup {}  margin {}  BER {:.1e}",
        ckt.bandwidth, rep.setup, rep.link.margin, rep.link.ber
    );
    let t = wafer.telemetry();
    println!(
        "telemetry: {} circuits, {:.1} Gb/s aggregate, tx lanes {:.1}%, mean bus occupancy {:.3}",
        t.circuits,
        t.aggregate_gbps,
        t.tx_lane_utilization * 100.0,
        t.mean_edge_occupancy
    );
    Ok(())
}

fn cmd_collective(args: &Args) -> Result<(), String> {
    let shape = parse_shape(&args.get_str("slice", "4x2x1"))?;
    let bytes: f64 = args.get("bytes", 8e9)?;
    let mode = match args.get_str("mode", "optical-steer").as_str() {
        "electrical" => Mode::Electrical,
        "optical-split" => Mode::OpticalStaticSplit,
        "optical-steer" => Mode::OpticalFullSteer,
        other => return Err(format!("unknown mode '{other}'")),
    };
    let algo = args.get_str("algo", "ring");
    let rack = Shape3::rack_4x4x4();
    let params = CostParams::default();
    let torus = Torus::new(rack);
    let slice = Slice::new(1, Coord3::new(0, 0, 0), shape);
    if !slice.fits(rack) {
        return Err(format!("slice {shape} does not fit the 4x4x4 rack"));
    }
    let schedule = match algo.as_str() {
        "ring" => ring_reduce_scatter(&snake_order(&slice), bytes, mode, rack, &torus, &params),
        "bucket" => {
            let dims = slice.active_dims();
            if dims.is_empty() {
                return Err("slice has no dimension with extent > 1".into());
            }
            bucket_reduce_scatter(&slice, &dims, bytes, mode, rack, &torus, &params)
        }
        "alltoall" => all_to_all(&snake_order(&slice), bytes, mode, rack, &torus, &params),
        other => return Err(format!("unknown algo '{other}'")),
    };
    let sym = schedule.symbolic_cost(&params);
    let report = execute(&schedule, &params);
    println!(
        "{algo} on slice {shape} ({} chips), N = {bytes:.3e} B, {mode:?}",
        slice.chips()
    );
    println!("  symbolic : {sym}");
    println!(
        "  measured : {}  ({} rounds, {} congested, max link load {})",
        report.total, report.rounds, report.congested_rounds, report.max_link_load
    );
    Ok(())
}

fn cmd_repair(args: &Args) -> Result<(), String> {
    let spare = parse_coord(&args.get_str("spare", "3,3,3"))?;
    let bytes: f64 = args.get("bytes", 1e9)?;
    let scenario = fig6a();
    println!(
        "Fig 6a scenario: {} failed in {}, {} spares free",
        scenario.failed,
        scenario.victim,
        scenario.free.len()
    );
    let a = analyze(&scenario.occ, &scenario.victim, scenario.failed);
    println!(
        "electrical in-place repair: {} / {} candidates congestion-free",
        a.clean_options,
        a.attempts.len()
    );
    let i = measure_interference(&scenario, spare, bytes, bytes);
    println!(
        "surviving-ring slowdown if forced electrically: {:.2}x (optical: {:.2}x)",
        i.electrical_slowdown, i.optical_slowdown
    );
    let mut rack = PhotonicRack::new(1);
    let r = optical_repair(&mut rack, &scenario.victim, scenario.failed, spare)
        .map_err(|e| e.to_string())?;
    println!(
        "optical repair: {} circuits to {} neighbours, ready in {}",
        r.circuits,
        r.neighbours.len(),
        r.setup
    );
    Ok(())
}

fn cmd_placement(args: &Args) -> Result<(), String> {
    let jobs: usize = args.get("jobs", 500)?;
    let seed: u64 = args.get("seed", 7)?;
    let stream = generate(jobs, &ArrivalParams::default(), seed);
    let r = simulate_placement(Shape3::rack_4x4x4(), &stream);
    println!("placement of {jobs} jobs (seed {seed}) over {}", r.horizon);
    println!("  accepted {} / rejected {}", r.accepted, r.rejected);
    println!(
        "  mean occupancy          : {:.0}%",
        r.mean_occupancy * 100.0
    );
    println!(
        "  electrical utilization  : {:.0}%",
        r.mean_electrical_utilization * 100.0
    );
    println!(
        "  optical utilization     : {:.0}%",
        r.mean_optical_utilization * 100.0
    );
    Ok(())
}

/// Render a [`FabricError`] chain for operators: one line per layer hop
/// with the registered reason code and the entities that hop touches, so
/// a nonzero exit carries a machine-greppable fault trace, not prose.
fn render_fault(e: &FabricError) -> String {
    let mut out = String::from("fault chain (outermost first):");
    let mut cur = Some(e);
    while let Some(err) = cur {
        let hop = FabricError {
            kind: err.kind.clone(),
            source: None,
        };
        out.push_str(&format!(
            "\n  [{:?}] {}: {}",
            hop.layer(),
            hop.code(),
            hop.kind
        ));
        let entities = hop.entities();
        if !entities.is_empty() {
            let list: Vec<String> = entities.iter().map(|en| en.to_string()).collect();
            out.push_str(&format!("\n        entities: {}", list.join(", ")));
        }
        cur = err.source.as_deref();
    }
    out.push_str(&format!("\n  root code: {}", e.root_code()));
    out
}

fn ctrl_config(args: &Args) -> Result<CtrlConfig, String> {
    Ok(CtrlConfig {
        racks: args.get("racks", 1)?,
        lanes: args.get("lanes", 2)?,
        jobs: args.get("jobs", 12)?,
        seed: args.get("seed", 7)?,
        failures: args.get("failures", 1)?,
        queue_timeout: SimDuration::from_secs(args.get("timeout-s", 1_800)?),
        program_retries: args.get("retries", 0)?,
        retry_backoff: SimDuration::from_us(args.get("backoff-us", 100_000)?),
        infeasible_every: args.get("infeasible-every", 0)?,
        ..CtrlConfig::default()
    })
}

/// `spsim ctrl --campaign`: the snapshotted campaign driver. Runs (or
/// `--restart-from` resumes) a campaign with periodic [`CtrlSnapshot`]s,
/// optionally compacting the journal to each snapshot watermark, then
/// proves delta replay from the last snapshot reproduces the live
/// fingerprint. `--crash-after N` kills the run after N events so the
/// written `--snapshot-out` artifact exercises a real restart.
fn cmd_ctrl_campaign(args: &Args) -> Result<(), String> {
    if let Some(path) = args.0.get("write-baseline") {
        let (cfg, every) = fabricd::bench_config();
        let report = fabricd::run_ctrl_bench(&cfg, every)?;
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "ctrl bench: {} admissions at {:.0}/s, delta replay {} of {} records in {:.3} ms",
            report.text("admissions"),
            report.num("admissions_per_sec"),
            report.text("replay_tail_records"),
            report.text("replay_full_records"),
            report.num("replay_tail_ms")
        );
        println!("  baseline written to {path}");
        return Ok(());
    }

    let every_s: u64 = args.get("snapshot-every", 600)?;
    let crash_after: u64 = args.get("crash-after", 0)?;
    let opts = CampaignOptions {
        snapshot_every: (every_s > 0).then(|| SimDuration::from_secs(every_s)),
        compact: args.get_str("compact", "false") == "true",
        crash_after_events: (crash_after > 0).then_some(crash_after),
    };

    let out = if let Some(path) = args.0.get("restart-from") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let snap = CtrlSnapshot::parse(&text)?;
        println!(
            "restarting from snapshot at {} (journal seq {})",
            snap.fabric.at, snap.fabric.seq
        );
        fabricd::resume_campaign(&snap, &opts)?
    } else {
        fabricd::run_campaign(&ctrl_config(args)?, &opts)?
    };

    let journal = out.state.journal();
    println!(
        "campaign: {} events to {}, {} snapshot(s) every {every_s}s{}",
        out.events_executed,
        out.horizon,
        out.snapshots.len(),
        if out.crashed { " — CRASHED" } else { "" }
    );
    println!(
        "  journal: {} logical records ({} retained, base seq {}), hash {:#018x}",
        journal.len(),
        journal.records().len(),
        journal.base_seq(),
        journal.hash()
    );
    println!("  state fingerprint: {:#018x}", out.state.fingerprint());

    if let Some(path) = args.0.get("snapshot-out") {
        let snap = out
            .snapshots
            .last()
            .ok_or_else(|| "no snapshot captured; set --snapshot-every".to_string())?;
        std::fs::write(path, snap.to_text()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  snapshot (seq {}) written to {path}", snap.fabric.seq);
    }

    // Prove the restart path on every invocation: delta replay from the
    // last snapshot must land on the live fingerprint.
    if let Some(snap) = out.snapshots.last() {
        let tail = fabricd::replay_from(&snap.fabric, journal).map_err(|e| render_fault(&e))?;
        let identical = tail.fingerprint() == out.state.fingerprint();
        println!(
            "  delta replay from seq {}: {}",
            snap.fabric.seq,
            if identical {
                "IDENTICAL (bit-for-bit)"
            } else {
                "DIVERGED"
            }
        );
        if !identical {
            return Err("delta replay diverged from live state".into());
        }
    }
    print!("{}", out.metrics.summary());
    print!("{}", fabricd::RouteTelemetry::of(&out.state).summary());
    Ok(())
}

fn cmd_ctrl(args: &Args) -> Result<(), String> {
    if args.get_str("campaign", "false") == "true"
        || args.0.contains_key("restart-from")
        || args.0.contains_key("write-baseline")
    {
        return cmd_ctrl_campaign(args);
    }
    let cfg = ctrl_config(args)?;
    let out = fabricd::run_scenario(&cfg);
    let journal = out.state.journal();
    println!(
        "fabricd: {} jobs (seed {}) on {} rack(s), {} lanes/circuit, {} failure(s) injected",
        cfg.jobs, cfg.seed, cfg.racks, cfg.lanes, cfg.failures
    );
    println!(
        "journal: {} records, hash {:#018x}, horizon {}",
        journal.len(),
        journal.hash(),
        out.horizon
    );
    for inc in out.state.incidents() {
        match (&inc.repair, &inc.repair_error) {
            (Some(rep), _) => println!(
                "incident {}: chip {} failed (tenant {:?}, {} circuits spliced) — repaired \
                 optically with {} circuits in {}, blast radius {} server(s)",
                inc.incident,
                inc.chip,
                inc.victim,
                inc.spliced,
                rep.circuits,
                rep.setup,
                rep.blast_servers
            ),
            (None, Some(e)) => println!(
                "incident {}: chip {} failed — repair FAILED: {e}",
                inc.incident, inc.chip
            ),
            (None, None) => println!(
                "incident {}: chip {} failed — no repair attempted (no victim or no spare)",
                inc.incident, inc.chip
            ),
        }
    }
    print!("{}", out.metrics.summary());
    let route = fabricd::RouteTelemetry::of(&out.state);
    print!("{}", route.summary());
    if let Some(path) = args.0.get("report") {
        // Splice the route-telemetry object into the rejection report so
        // `--report` stays one JSON artifact: drop the closing brace,
        // append `"route"`, close again. Rejection keys are untouched
        // (CI greps the artifact for specific fault codes).
        let mut report = out.metrics.rejection_report_json();
        let trimmed = report.trim_end().to_string();
        if let Some(body) = trimmed.strip_suffix('}') {
            report = format!("{},\n  \"route\": {}\n}}\n", body.trim_end(), route.json(2));
        }
        std::fs::write(path, report).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("rejection report written to {path}");
    }
    // Replay the journal against a fresh rack and prove determinism. A
    // divergence exits nonzero with the structured fault chain rendered.
    let replayed = fabricd::replay(journal).map_err(|e| render_fault(&e))?;
    let identical = replayed.telemetry() == out.state.telemetry();
    println!(
        "replay: {} records -> telemetry {}",
        journal.len(),
        if identical {
            "IDENTICAL (bit-for-bit)"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        return Err("replay diverged from live telemetry".into());
    }
    if let Some(path) = args.0.get("dump-journal") {
        std::fs::write(path, journal.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("journal dumped to {path}");
    }
    Ok(())
}

fn cmd_hoststack(args: &Args) -> Result<(), String> {
    let messages: usize = args.get("messages", 2000)?;
    let bytes: u64 = args.get("bytes", 4096)?;
    let peers: u32 = args.get("peers", 8)?;
    let mut rng = SimRng::seed_from_u64(args.get("seed", 7)?);
    let mut workload: Vec<Message> = (0..messages)
        .map(|i| Message {
            dst: PeerId(rng.gen_range_u64(peers as u64) as u32),
            bytes,
            enqueued: SimTime::ZERO + SimDuration::from_ns(200) * i as u64,
        })
        .collect();
    workload.sort_by_key(|m| m.enqueued);
    println!("{messages} x {bytes} B to {peers} peers:");
    for (label, policy) in [
        ("per-message", CircuitPolicy::PerMessage),
        ("hold-open", CircuitPolicy::HoldOpen),
        (
            "batch-256k/50us",
            CircuitPolicy::Batch {
                threshold_bytes: 256 * 1024,
                max_delay: SimDuration::from_us(50),
            },
        ),
    ] {
        let r = hostnet::simulate(policy, HostParams::default(), &workload);
        println!(
            "  {label:<16} mean {:>9.1}us  p99 {:>9.1}us  reconfigs {:>6}  goodput {:>8.1} Gbps",
            r.latency.mean() * 1e6,
            r.p99_latency_s * 1e6,
            r.reconfigs,
            r.goodput_gbps
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let grid_name = args.get_str("grid", "smoke");
    let workers: usize = args.get("workers", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    let grid = GridSpec::by_name(&grid_name, seed)
        .ok_or_else(|| format!("unknown grid '{grid_name}' (try smoke or full)"))?;
    println!(
        "sweep: grid '{grid_name}' ({} scenarios, base seed {seed}), {workers} worker(s)",
        grid.len()
    );

    // Sequential reference first, then the parallel run under test.
    let sequential = run_sweep(&grid, 1);
    let parallel = run_sweep(&grid, workers);
    println!(
        "  sequential: {:#018x} in {:.3}s ({:.0} events/s)",
        sequential.fingerprint,
        sequential.wall.as_secs_f64(),
        sequential.events_per_sec()
    );
    println!(
        "  parallel  : {:#018x} in {:.3}s ({:.0} events/s, {} workers)",
        parallel.fingerprint,
        parallel.wall.as_secs_f64(),
        parallel.events_per_sec(),
        parallel.workers
    );
    if parallel.fingerprint != sequential.fingerprint {
        return Err(format!(
            "DETERMINISM VIOLATION: {}-worker fingerprint {:#018x} != sequential {:#018x}",
            parallel.workers, parallel.fingerprint, sequential.fingerprint
        ));
    }
    println!("  fingerprints IDENTICAL (parallel == sequential, bit for bit)");
    let m = &parallel.merged;
    println!(
        "  merged: {} stitch samples (mean {:.3} dB), {} admission waits, \
         {} collectives (mean {:.1} us), {} churn probes (mean {:.2} hops)",
        m.stitch_loss_db.count(),
        m.stitch_loss_db.stats().mean(),
        m.admission_wait_s.count(),
        m.collective_us.count(),
        m.collective_us.mean(),
        m.churn_hops.count(),
        m.churn_hops.mean()
    );
    let seq_wall = sequential.wall.as_secs_f64();
    let bench = sweep::bench_record(&parallel, seq_wall);
    println!("  speedup vs 1 worker: {:.2}x", bench.num("speedup_vs_1"));
    if let Some(path) = args.0.get("json") {
        let artifact = outcome_to_json(&parallel, seq_wall);
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  report written to {path}");
    }
    if let Some(path) = args.0.get("write-baseline") {
        std::fs::write(path, bench.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  baseline written to {path}");
    }
    Ok(())
}

/// `spsim pod` — the sharded 4096-chip pod simulation. Always runs the
/// 1-shard reference first, then the requested shard count, and exits
/// nonzero if their fingerprints or journals differ: the worker-count
/// invariance the pod crate promises is asserted on every invocation,
/// not just in tests.
fn cmd_pod(args: &Args) -> Result<(), String> {
    let policy_name = args.get_str("policy", "greedy");
    let policy = pod::PolicyKind::parse(&policy_name).ok_or_else(|| {
        format!("unknown placement policy '{policy_name}' (try greedy, frag, or stitch)")
    })?;
    let cfg = PodConfig {
        chips: args.get("chips", pod::POD_CHIPS)?,
        lanes: args.get("lanes", 2)?,
        seed: args.get("seed", 7)?,
        jobs: args.get("jobs", 256)?,
        failures: args.get("failures", 8)?,
        epoch: SimDuration::from_secs(args.get("epoch-s", 600)?),
        max_epochs: args.get("epochs", 0)?,
        queue_timeout: SimDuration::from_secs(args.get("timeout-s", 1_800)?),
        policy,
        ..PodConfig::default()
    };
    let shards: usize = args.get("shards", 4)?;
    let crash_after: u64 = args.get("crash-after", 0)?;
    let opts = PodOptions {
        snapshot_every: args.get("snapshot-every", 0)?,
        compact: args.get_str("compact", "false") == "true",
        crash_after_epochs: (crash_after > 0).then_some(crash_after),
    };

    // `--restart-from` resumes a crashed campaign from its snapshot
    // artifact; there is no 1-shard reference to compare against (the
    // resume IS the other half of the equivalence, asserted in tests and
    // by the `ctrl-restart-smoke` CI job against the uninterrupted run).
    if let Some(path) = args.0.get("restart-from") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let snap = PodSnapshot::parse(&text)?;
        println!(
            "restarting pod from snapshot at epoch {} (journal seq {})",
            snap.epoch, snap.journal_next_seq
        );
        let run = pod::resume_pod(
            &snap,
            shards,
            &PodOptions {
                crash_after_epochs: None,
                ..opts
            },
        )?;
        println!(
            "  resumed to epoch {} ({} events): fingerprint {:#018x}, journal {:#018x} \
             ({} logical records)",
            run.epochs,
            run.events,
            run.fingerprint,
            run.journal.hash(),
            run.journal.len()
        );
        print!("{}", run.metrics.summary());
        print!("{}", run.route.summary());
        if let Some(out) = args.0.get("json") {
            let bench = pod::bench_record(&run, snap.config.jobs);
            std::fs::write(out, bench.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("  report written to {out}");
        }
        return Ok(());
    }

    let reference = pod::run_pod_with(&cfg, 1, &opts)?;
    let run = pod::run_pod_with(&cfg, shards, &opts)?;
    println!(
        "pod: {} chips in {} rack-group domain(s), {} jobs, {} failure(s), seed {}, policy {}",
        cfg.chips,
        run.groups,
        cfg.jobs,
        cfg.failures,
        cfg.seed,
        run.policy.name()
    );
    println!(
        "  1 shard  : {:#018x} in {:.3}s ({:.0} events/s)",
        reference.fingerprint, reference.wall_s, reference.events_per_sec
    );
    println!(
        "  {} shards : {:#018x} in {:.3}s ({:.0} events/s)",
        run.shards, run.fingerprint, run.wall_s, run.events_per_sec
    );
    if run.fingerprint != reference.fingerprint || run.journal.hash() != reference.journal.hash() {
        return Err(format!(
            "DETERMINISM VIOLATION: {}-shard run (fingerprint {:#018x}, journal {:#018x}) \
             != 1-shard reference (fingerprint {:#018x}, journal {:#018x})",
            run.shards,
            run.fingerprint,
            run.journal.hash(),
            reference.fingerprint,
            reference.journal.hash()
        ));
    }
    println!("  fingerprints IDENTICAL (sharded == sequential, bit for bit)");
    if run.snapshots != reference.snapshots {
        return Err(format!(
            "DETERMINISM VIOLATION: {}-shard snapshot stream != 1-shard reference",
            run.shards
        ));
    }
    if opts.snapshot_every > 0 {
        println!(
            "  snapshots: {} captured every {} epoch(s){}{}",
            run.snapshots.len(),
            opts.snapshot_every,
            if opts.compact {
                ", journal compacted to each watermark"
            } else {
                ""
            },
            if run.crashed { " — CRASHED" } else { "" }
        );
    }
    if let Some(path) = args.0.get("snapshot-out") {
        let snap = run
            .snapshots
            .last()
            .ok_or_else(|| "no snapshot captured; set --snapshot-every".to_string())?;
        std::fs::write(path, snap.to_text()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  snapshot (epoch {}) written to {path}", snap.epoch);
    }
    println!(
        "  journal: {} records, hash {:#018x}, {} epochs to {}, {} delegations",
        run.journal.len(),
        run.journal.hash(),
        run.epochs,
        run.horizon,
        run.delegations
    );
    println!(
        "  placement: mean occupancy {:.1}%, mean fragmentation {:.3}, \
         {} stitched job(s) ({} legs, {} rollbacks)",
        run.occ_mean * 100.0,
        run.frag_mean,
        run.metrics.counter("jobs.stitched"),
        run.metrics.counter("stitch.legs"),
        run.metrics.counter("stitch.rollbacks")
    );
    print!("{}", run.metrics.summary());
    print!("{}", run.route.summary());
    let bench = pod::bench_record(&run, cfg.jobs);
    if let Some(path) = args.0.get("json") {
        std::fs::write(path, bench.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  report written to {path}");
    }
    if let Some(path) = args.0.get("write-baseline") {
        std::fs::write(path, bench.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  baseline written to {path}");
    }
    if let Some(path) = args.0.get("dump-journal") {
        std::fs::write(path, run.journal.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  journal dumped to {path}");
    }
    Ok(())
}

/// `spsim routebench` — the routing micro-benchmark. `--stamped` gates the
/// fresh run against the committed `BENCH_route.json` (exact fingerprints,
/// rate floors, and the release-build requirement that warm plan-library
/// stamping beats scratch programming by ≥10×), exiting nonzero on any
/// violated gate — the CI `plan-smoke` entry point.
fn cmd_routebench(args: &Args) -> Result<(), String> {
    let searches: u64 = args.get("searches", route_bench::DEFAULT_SEARCHES)?;
    let batches: u64 = args.get("batches", route_bench::DEFAULT_BATCHES)?;
    let report = run_route_bench(searches, batches);
    let (stamped, scratch) = (
        report.num("stamped_plans_per_sec"),
        report.num("batches_per_sec"),
    );
    println!(
        "routebench: {searches} searches + {batches} ring batches (scratch, then stamped) on a \
         loaded 4x8 wafer"
    );
    println!("  fingerprint : {}", report.text("fingerprint"));
    println!(
        "  paths/sec   : {:.0}   batches/sec: {scratch:.0}   ({:.3}s wall)",
        report.num("paths_per_sec"),
        report.num("wall_s")
    );
    println!(
        "  stamped     : {stamped:.0} plans/sec ({:.1}x scratch), fingerprint {}",
        if scratch > 0.0 {
            stamped / scratch
        } else {
            0.0
        },
        report.text("stamped_fingerprint")
    );
    if args.get_str("stamped", "false") == "true" {
        let path = args.get_str("baseline", "BENCH_route.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = BenchRecord::parse(&sweep::ROUTE, &text)?;
        let failures = report.compare(&baseline);
        for f in &failures {
            eprintln!("  GATE {f}");
        }
        if !failures.is_empty() {
            return Err(format!(
                "routebench: {} baseline gate(s) violated against {path}",
                failures.len()
            ));
        }
        println!("  baseline {path} holds (fingerprints exact, rates above floor)");
    }
    if let Some(path) = args.0.get("write-baseline") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  baseline written to {path}");
    }
    Ok(())
}

/// `spsim detlint` — run the workspace determinism/panic-freedom analyzer
/// from the main binary (same engine as `cargo xtask detlint`). `--paths`
/// takes comma-separated substring filters; `--check-file` lints a single
/// file as production code; `--json true` prints the machine-readable
/// report instead of text.
fn cmd_detlint(args: &Args) -> Result<(), String> {
    let root = std::path::PathBuf::from(args.get_str("root", "."));
    let json = args.get_str("json", "false") == "true";
    let cfg = detlint::load_config(&root)?;
    if let Some(file) = args.0.get("check-file") {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let findings = detlint::lint_source("adhoc", file, &text, &cfg, false);
        for f in &findings {
            println!("{f}");
        }
        let active = findings
            .iter()
            .filter(|f| f.status == detlint::Status::Active)
            .count();
        if active > 0 {
            return Err(format!("detlint: {active} active finding(s) in {file}"));
        }
        return Ok(());
    }
    let filters: Vec<String> = args
        .0
        .get("paths")
        .map(|p| p.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let report = detlint::lint_workspace(&root, &cfg, &filters);
    if json {
        print!("{}", report.to_json());
    } else {
        println!(
            "detlint: {} crates, {} files, {} finding(s)",
            report.crates,
            report.files,
            report.findings.len()
        );
        for f in &report.findings {
            println!("  {f}");
        }
        for b in &report.baselines {
            println!(
                "  baseline {}: {} {} site(s), ceiling {}",
                b.krate,
                b.count,
                b.rule.code(),
                b.ceiling
            );
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        if !json {
            for f in &report.failures {
                eprintln!("  FAIL {f}");
            }
        }
        Err(format!("detlint: {} failure(s)", report.failures.len()))
    }
}

const USAGE: &str = "spsim — server-scale photonics simulator

USAGE:
  spsim wafer      [--rows 4] [--cols 8]
  spsim collective [--slice 4x2x1] [--bytes 8e9] [--mode electrical|optical-split|optical-steer] [--algo ring|bucket|alltoall]
  spsim repair     [--spare 3,3,3] [--bytes 1e9]
  spsim placement  [--jobs 500] [--seed 7]
  spsim hoststack  [--messages 2000] [--bytes 4096] [--peers 8] [--seed 7]
  spsim ctrl       [--jobs 12] [--seed 7] [--racks 1] [--lanes 2] [--failures 1] [--timeout-s 1800]
                   [--retries 0] [--backoff-us 100000] [--infeasible-every 0] [--report rejections.json]
                   [--dump-journal out.json]
  spsim ctrl --campaign
                   [--snapshot-every 600] [--compact] [--crash-after N] [--snapshot-out snap.txt]
                   [--restart-from snap.txt] [--write-baseline BENCH_ctrl.json]
  spsim sweep      [--grid smoke|full|churn|placement] [--workers 4] [--seed 42] [--json out.json] [--write-baseline BENCH_sweep.json]
                   (--smoke expands to --grid smoke --workers 2;
                    --grid placement compares greedy|frag|stitch per arrival trace)
  spsim pod        [--chips 4096] [--shards 4] [--seed 7] [--jobs 256] [--failures 8] [--epochs 0]
                   [--policy greedy|frag|stitch] [--epoch-s 600] [--lanes 2] [--timeout-s 1800] [--json out.json]
                   [--snapshot-every E] [--compact] [--crash-after N] [--snapshot-out snap.txt]
                   [--restart-from snap.txt]
                   [--write-baseline BENCH_pod.json] [--dump-journal out.json]
                   (--smoke expands to --chips 4096 --epochs 2 --shards 4)
  spsim routebench [--searches 200000] [--batches 2000] [--write-baseline BENCH_route.json]
                   [--stamped [--baseline BENCH_route.json]]
                   (--stamped gates the run against the committed baseline, incl. the
                    >=10x stamped-vs-scratch speedup in release builds)
  spsim detlint    [--paths crates/route,rwa.rs] [--check-file some.rs] [--json true] [--root .]
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    // `sweep --smoke` is CI sugar for the small-grid 2-worker run, and
    // `--campaign`/`--compact` are bare switches; expand both before the
    // generic --key value parser sees them.
    let raw = argv.get(1..).unwrap_or_default();
    let mut rest: Vec<String> = Vec::with_capacity(raw.len() + 4);
    let mut it = raw.iter().peekable();
    while let Some(a) = it.next() {
        if cmd == "sweep" && a == "--smoke" {
            rest.extend(
                ["--grid", "smoke", "--workers", "2"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        } else if cmd == "pod" && a == "--smoke" {
            // The CI gate: the full 4096-chip pod, two epoch windows,
            // shards=1 vs shards=4 fingerprint equality.
            rest.extend(
                ["--chips", "4096", "--epochs", "2", "--shards", "4"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        } else if (cmd == "ctrl" || cmd == "pod" || cmd == "routebench")
            && (a == "--campaign" || a == "--compact" || a == "--stamped")
            && it.peek().is_none_or(|n| n.starts_with("--"))
        {
            rest.push(a.clone());
            rest.push("true".to_string());
        } else {
            rest.push(a.clone());
        }
    }
    let result = Args::parse(&rest).and_then(|args| match cmd.as_str() {
        "wafer" => cmd_wafer(&args),
        "collective" => cmd_collective(&args),
        "repair" => cmd_repair(&args),
        "placement" => cmd_placement(&args),
        "hoststack" => cmd_hoststack(&args),
        "ctrl" => cmd_ctrl(&args),
        "sweep" => cmd_sweep(&args),
        "pod" => cmd_pod(&args),
        "routebench" => cmd_routebench(&args),
        "detlint" => cmd_detlint(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_key_values() {
        let raw: Vec<String> = ["--rows", "4", "--cols", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&raw).unwrap();
        assert_eq!(a.get::<u8>("rows", 0).unwrap(), 4);
        assert_eq!(a.get::<u8>("cols", 0).unwrap(), 8);
        assert_eq!(a.get::<u8>("missing", 7).unwrap(), 7);
        assert_eq!(a.get_str("mode", "ring"), "ring");
    }

    #[test]
    fn args_reject_malformed() {
        let raw: Vec<String> = ["rows", "4"].iter().map(|s| s.to_string()).collect();
        assert!(Args::parse(&raw).is_err());
        let raw: Vec<String> = ["--rows"].iter().map(|s| s.to_string()).collect();
        assert!(Args::parse(&raw).is_err());
        let raw: Vec<String> = ["--rows", "x"].iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&raw).unwrap();
        assert!(a.get::<u8>("rows", 0).is_err());
    }

    #[test]
    fn render_fault_shows_codes_and_entities() {
        use server_photonics::lightpath::{CircuitFault, CtrlFault};
        let root = FabricError::new(CircuitFault::InsufficientTxLanes {
            tile: TileCoord::new(1, 2),
            requested: 8,
            free: 3,
        });
        let top = FabricError::caused_by(CtrlFault::ProgramBatch { wafer: 0 }, root);
        let text = render_fault(&top);
        assert!(text.contains("ctrl/program-batch"));
        assert!(text.contains("circuit/insufficient-tx-lanes"));
        assert!(text.contains("tile (1,2)") || text.contains("tile "));
        assert!(text.ends_with("root code: circuit/insufficient-tx-lanes"));
    }

    #[test]
    fn shapes_and_coords_parse() {
        assert_eq!(parse_shape("4x2x1").unwrap(), Shape3::new(4, 2, 1));
        assert!(parse_shape("4x2").is_err());
        assert!(parse_shape("axbxc").is_err());
        assert_eq!(parse_coord("3,3,3").unwrap(), Coord3::new(3, 3, 3));
        assert!(parse_coord("3,3").is_err());
    }
}
