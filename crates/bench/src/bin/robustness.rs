//! Robustness bench: Monte Carlo sweep throughput, the skew distribution
//! trajectory, and the fault-injection survival gate.
//!
//! Sweeps seeded perturbations of one nominal n=250 intermingled instance
//! (`astdme_core::robustness`) and emits `BENCH_robustness.json` at the
//! repo root:
//!
//! * `sweeps` — one entry per trajectory point (increasing variant
//!   counts): wall-clock, `variants_per_sec`, and the skew/wirelength
//!   distribution (`p99_skew` is the headline field). Variants are
//!   index-seeded, so each sweep is a bit-exact prefix of the next —
//!   the trajectory shows how the distribution tail converges as the
//!   sample grows, not re-rolled noise.
//! * `fault_injection` — a sweep with a forced panic, a deadline
//!   overrun (injected stall), and a corrupted output on three chosen
//!   variants. The section records that exactly those variants failed
//!   (`injected_fault_survival`), that every survivor's tree was
//!   bit-identical to the fault-free run (`survivors_bit_identical`,
//!   asserted — the run aborts on a mismatch), and that the batch as a
//!   whole never failed (`batch_failed": false` — the CI gate).
//!
//! The document opens with a `host` object (logical cores,
//! `ASTDME_THREADS`, effective threads, git revision). After writing it,
//! the binary re-parses the file and exits 1 if a field the CI gate
//! relies on is missing or one of the three guarantees reads wrong.
//!
//! Usage: `robustness [--quick] [--out PATH] [--variants N]`
//!
//! * `--quick`    — 64 variants, one trajectory point (the CI smoke run);
//! * `--out`      — output path (default `BENCH_robustness.json`);
//! * `--variants` — override the largest trajectory point.

use std::time::Instant;

use astdme_bench::{check_written, host_json, json, PAPER_BOUND};
use astdme_core::robustness::{sweep, PerturbationSpec, RobustnessReport, SweepConfig};
use astdme_core::{
    AstDme, BatchPlan, BatchPolicy, EngineConfig, Fault, FaultKind, FaultPlan, Instance, StageId,
};
use astdme_instances::{partition, synthetic_instance};

const N: usize = 250;
const GROUPS: usize = 4;
const SEED: u64 = 2006;

fn nominal() -> Instance {
    let p = synthetic_instance(N, SEED, "robust");
    let inst = partition::intermingled(&p, GROUPS, SEED ^ 0xBEEF).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(PAPER_BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

fn spec() -> PerturbationSpec {
    PerturbationSpec::new(SEED)
        .with_position_jitter(500.0)
        .with_load_jitter(0.2)
        .with_rc_jitter(0.1)
        .with_drop_rate(0.1)
        .with_survival_floor(0.7)
}

struct SweepMeasurement {
    variants: usize,
    seconds: f64,
    report: RobustnessReport,
}

fn measure_sweep(inst: &Instance, variants: usize) -> SweepMeasurement {
    let router = AstDme::new().with_engine(EngineConfig::fast());
    let config = SweepConfig::new(variants).with_chunk(64);
    let t0 = Instant::now();
    let report = sweep(inst, &spec(), &config, &router).expect("sweep runs");
    let seconds = t0.elapsed().as_secs_f64();
    assert!(
        report.failures.is_empty(),
        "fault-free sweep must not fail variants: {:?}",
        report.failures
    );
    eprintln!(
        "sweep {variants:>5} variants  {seconds:>7.3}s  {:>8.1} variants/s  p99 skew {:.3e}",
        variants as f64 / seconds,
        report.global_skew.p99
    );
    SweepMeasurement {
        variants,
        seconds,
        report,
    }
}

struct FaultMeasurement {
    variants: usize,
    injected: Vec<(usize, &'static str)>,
    failure_kinds: Vec<(&'static str, usize)>,
    survival: bool,
    survivors_bit_identical: bool,
}

/// Injects a panic, a deadline overrun and a corrupted output into 3 of
/// `variants` variants, and verifies the fleet's isolation guarantee at
/// bench scale: exactly those variants fail (with the right kinds), and
/// every survivor's tree is bit-identical to the fault-free run.
fn measure_faults(inst: &Instance, variants: usize) -> FaultMeasurement {
    let router = AstDme::new().with_engine(EngineConfig::fast());
    let s = spec();
    // Deadline generous against an n=250 fast-preset route; the stall
    // alone overruns it.
    let budget = 2.0;
    let injected = [
        (3usize, "panicked"),
        (11, "deadline_exceeded"),
        (17, "malformed_output"),
    ];
    let faults = FaultPlan::new()
        .inject(
            3,
            Fault {
                stage: StageId::Merge,
                kind: FaultKind::Panic,
            },
        )
        .inject(
            11,
            Fault {
                stage: StageId::Embed,
                kind: FaultKind::Stall {
                    seconds: budget + 0.5,
                },
            },
        )
        .inject(
            17,
            Fault {
                stage: StageId::Repair,
                kind: FaultKind::Corrupt,
            },
        );
    let instances: Vec<Instance> = (0..variants)
        .map(|i| s.variant(inst, i).expect("variant builds"))
        .collect();
    let plan = BatchPlan::new(&instances);
    let clean = plan.route(&instances, &router);
    let policy = BatchPolicy::new()
        .with_deadline(budget)
        .with_faults(faults.clone());
    // The injected panic is caught by the fleet layer, but std's default
    // hook would still splat a backtrace across the bench output; silence
    // it for the deliberately-failing section.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (faulted, _) = plan.route_with_policy(&instances, &router, &policy);

    let failed: Vec<usize> = (0..variants).filter(|&i| faulted[i].is_err()).collect();
    let expected: Vec<usize> = injected.iter().map(|&(i, _)| i).collect();
    let survival = failed == expected
        && injected
            .iter()
            .all(|&(i, kind)| faulted[i].as_ref().err().is_some_and(|e| e.kind() == kind));
    let mut survivors_bit_identical = true;
    for i in (0..variants).filter(|i| !expected.contains(i)) {
        let want = clean[i].as_ref().expect("clean run routes");
        let got = faulted[i].as_ref().expect("survivor routes");
        assert_eq!(got.tree, want.tree, "survivor {i} diverged under faults");
        survivors_bit_identical &= got.tree == want.tree && got.report == want.report;
    }

    // The same schedule through the sweep API: failure accounting only,
    // never a sweep-level error.
    let report = sweep(
        inst,
        &s,
        &SweepConfig::new(variants)
            .with_chunk(64)
            .with_deadline(budget)
            .with_faults(faults),
        &router,
    )
    .expect("a faulted sweep still returns a report");
    std::panic::set_hook(hook);
    let failure_kinds = report.failure_counts();
    eprintln!(
        "faults: {}/{} variants failed ({:?}), survival {}  survivors bit-identical {}",
        report.failures.len(),
        variants,
        failure_kinds,
        survival,
        survivors_bit_identical
    );
    FaultMeasurement {
        variants,
        injected: injected.to_vec(),
        failure_kinds,
        survival,
        survivors_bit_identical,
    }
}

fn to_json(sweeps: &[SweepMeasurement], faults: &FaultMeasurement) -> String {
    let sweep_items: Vec<String> = sweeps
        .iter()
        .map(|m| {
            let r = &m.report;
            json::object(
                &[
                    json::field("variants", format!("{}", m.variants)),
                    json::field("succeeded", format!("{}", r.succeeded)),
                    json::field("seconds", json::number(m.seconds)),
                    json::field(
                        "variants_per_sec",
                        json::number(m.variants as f64 / m.seconds),
                    ),
                    json::field("global_skew_mean", json::number(r.global_skew.mean)),
                    json::field("global_skew_p50", json::number(r.global_skew.p50)),
                    json::field("global_skew_p90", json::number(r.global_skew.p90)),
                    json::field("p99_skew", json::number(r.global_skew.p99)),
                    json::field("global_skew_max", json::number(r.global_skew.max)),
                    json::field("intra_group_skew_p99", json::number(r.intra_group_skew.p99)),
                    json::field("wirelength_p50", json::number(r.wirelength.p50)),
                    json::field("wirelength_p99", json::number(r.wirelength.p99)),
                ],
                4,
            )
        })
        .collect();
    let injected_items: Vec<String> = faults
        .injected
        .iter()
        .map(|&(i, kind)| {
            json::object(
                &[
                    json::field("variant", format!("{i}")),
                    json::field("kind", json::quote(kind)),
                ],
                4,
            )
        })
        .collect();
    let kind_items: Vec<String> = faults
        .failure_kinds
        .iter()
        .map(|&(kind, count)| {
            json::object(
                &[
                    json::field("kind", json::quote(kind)),
                    json::field("count", format!("{count}")),
                ],
                4,
            )
        })
        .collect();
    let fault_obj = json::object(
        &[
            json::field("variants", format!("{}", faults.variants)),
            json::field("injected", json::array(&injected_items, 2)),
            json::field("failure_counts", json::array(&kind_items, 2)),
            json::field(
                "injected_fault_survival",
                if faults.survival { "true" } else { "false" },
            ),
            json::field(
                "survivors_bit_identical",
                if faults.survivors_bit_identical {
                    "true"
                } else {
                    "false"
                },
            ),
            // The sweep returned a report (asserted above): injected
            // faults consume their own slots, never the batch.
            json::field("batch_failed", "false"),
        ],
        2,
    );
    format!(
        "{{\n  \"bench\": \"robustness\",\n  \"host\": {},\n  \"n\": {N},\n  \"groups\": {GROUPS},\n  \"seed\": {SEED},\n  \"router\": \"AST-DME\",\n  \"engine\": \"fast\",\n  \"sweeps\": {},\n  \"fault_injection\": {}\n}}\n",
        host_json(2).trim_start(),
        json::array(&sweep_items, 2),
        fault_obj
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_robustness.json".to_string());
    let top: Option<usize> = args.iter().position(|a| a == "--variants").map(|i| {
        args.get(i + 1)
            .expect("--variants needs a number")
            .parse()
            .expect("variant count must be an integer")
    });
    // Trajectory points: each is a bit-exact prefix of the next (variants
    // are index-seeded), so the table shows tail convergence, not
    // re-rolled noise.
    let points: Vec<usize> = match (quick, top) {
        (_, Some(v)) => vec![v],
        (true, None) => vec![64],
        (false, None) => vec![64, 256, 1000],
    };

    let inst = nominal();
    let sweeps: Vec<SweepMeasurement> = points
        .iter()
        .map(|&v| measure_sweep(&inst, v.max(1)))
        .collect();
    let faults = measure_faults(&inst, points.iter().copied().max().unwrap_or(64).min(64));
    let doc = to_json(&sweeps, &faults);
    std::fs::write(&out_path, &doc).expect("write BENCH_robustness.json");
    eprintln!("wrote {out_path}");
    let sections: &[(&str, &[&str])] = &[
        ("host", &["logical_cores", "effective_threads", "git_rev"]),
        ("sweeps", &["p99_skew", "variants_per_sec"]),
    ];
    let guarantees = [
        ("injected_fault_survival", true),
        ("survivors_bit_identical", true),
        ("batch_failed", false),
    ];
    check_written(&out_path, sections, &guarantees);
    eprintln!("{out_path}: output check ok");

    println!("| variants | seconds | variants/s | p50 skew | p99 skew | p99 wirelength |");
    println!("|----------|---------|------------|----------|----------|----------------|");
    for m in &sweeps {
        println!(
            "| {} | {:.3} | {:.1} | {:.3e} | {:.3e} | {:.0} |",
            m.variants,
            m.seconds,
            m.variants as f64 / m.seconds,
            m.report.global_skew.p50,
            m.report.global_skew.p99,
            m.report.wirelength.p99
        );
    }
    println!();
    println!(
        "fault injection: {} injected, survival {}, survivors bit-identical {}",
        faults.injected.len(),
        faults.survival,
        faults.survivors_bit_identical
    );
    assert!(
        faults.survival,
        "injected faults must fail exactly their own variants"
    );
}
