//! `perfbench` — the astdme workspace's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run ... -- --manifest        # prints BENCHMARK.json
//! ```
//!
//! Each run builds its inputs from `--seed`, measures one workload for
//! `--seconds` seconds in a closed loop, checks every output, prints the
//! figures by name with units, and ends with one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run and writes its spans
//! as JSON lines. A failed correctness check exits with code 1. See
//! `perfbench/README.md` for the metric catalogue.

#![forbid(unsafe_code)]

mod common;
mod eco_edits;
mod large_intermingled;
mod paper_tables;
mod replica;
mod replicated_stream;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;

use astdme_json::{field, number, quote};

use crate::report::Report;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n       perfbench --manifest",
        report::WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", report::manifest());
        return;
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").unwrap_or_else(|| usage());
    let seed: u64 = value("--seed")
        .map_or(Some(1), |s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = value("--seconds")
        .map_or(Some(report::RUN_SECONDS as f64), |s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    let spans_dir = value("--spans-dir").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    );

    // Fleet workloads fan out on the library's own pool, sized by
    // `ASTDME_THREADS`; default it to the logical core count.
    if std::env::var_os("ASTDME_THREADS").is_none() {
        std::env::set_var("ASTDME_THREADS", logical_cores().to_string());
    }

    let names: Vec<&'static str> = if workload == "all" {
        report::WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        match report::WORKLOADS.iter().find(|w| w.0 == workload) {
            Some(w) => vec![w.0],
            None => usage(),
        }
    };
    let mut all_ok = true;
    for name in names {
        let ctx = Ctx {
            workload: name,
            seed,
            seconds,
            trace,
            spans_dir: spans_dir.clone(),
        };
        println!("{}", meta_line(&ctx));
        let mut r = run(&ctx);
        if !trace {
            r.set("peak_rss_mb", stats::peak_rss_mb());
        }
        print_report(&ctx, &r);
        for w in &r.wrong {
            eprintln!("perfbench: {name}: check failed: {w}");
        }
        all_ok &= r.wrong.is_empty();
        println!("{}", r.result_json(trace));
    }
    if !all_ok {
        std::process::exit(1);
    }
}

fn run(ctx: &Ctx) -> Report {
    match ctx.workload {
        "large_intermingled" => large_intermingled::run(ctx),
        "paper_tables" => paper_tables::run(ctx),
        "eco_edits" => eco_edits::run(ctx),
        "replicated_stream" => replicated_stream::run(ctx),
        other => unreachable!("unknown workload {other}"),
    }
}

fn print_report(ctx: &Ctx, r: &Report) {
    println!(
        "{} ({} run, seed {}):",
        ctx.workload,
        if ctx.trace { "traced" } else { "untraced" },
        ctx.seed
    );
    for l in &r.lines {
        println!("{l}");
    }
    let set = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("  metrics:");
    for m in set {
        if let Some(v) = r.get(m.name) {
            println!(
                "    {:<30} {:>16.6} {:<6} ({} is better)",
                m.name, v, m.unit, m.better
            );
        }
    }
    println!(
        "  error_rate = {} ({} failed of {} attempted)",
        if r.attempted == 0 {
            0.0
        } else {
            r.failed as f64 / r.attempted as f64
        },
        r.failed,
        r.attempted
    );
}

fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and run metadata, printed with every result.
fn meta_line(ctx: &Ctx) -> String {
    format!(
        "meta {{{}}}",
        [
            field("workload", quote(ctx.workload)),
            field("seed", ctx.seed.to_string()),
            field("seconds", number(ctx.seconds)),
            field("trace", if ctx.trace { "1" } else { "0" }),
            field("logical_cores", logical_cores().to_string()),
            field(
                "astdme_threads",
                quote(&std::env::var("ASTDME_THREADS").unwrap_or_default())
            ),
            field("features", quote("default")),
            field("git_rev", quote(&git_rev())),
        ]
        .join(", ")
    )
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout (no `git` process is started); `unknown` otherwise.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}
