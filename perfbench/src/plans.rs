//! The benchmark workloads: each is a list of [`SweepSpec`]s built from
//! the seed, run as one scenario list on a fixed number of workers.
//! `README.md` says why each was chosen.

use harness::prelude::SweepSpec;
use simkit::time::SimDuration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-figs", "channel-grid", "seed-fanout"];

/// One workload: the sweeps of one pass and the runner's worker count.
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Runner worker threads for the measured passes.
    pub threads: usize,
    /// The sweeps one pass runs, in order.
    pub specs: Vec<SweepSpec>,
}

impl Plan {
    /// The worker count of the determinism cross-check pass: the other
    /// one of 1 and 2.
    pub fn other_threads(&self) -> usize {
        if self.threads == 1 {
            2
        } else {
            1
        }
    }
}

/// Scenario seeds of a benchmark seed: disjoint blocks of 1000, so two
/// benchmark seeds never share a scenario seed.
fn seed_base(seed: u64) -> u64 {
    seed * 1000 + 1
}

/// Largest `--seed` whose scenario seeds fit in a `u64`.
pub const MAX_SEED: u64 = (u64::MAX - 1000) / 1000;

/// The plan of `workload` at `seed`.
///
/// # Errors
///
/// Names the valid workloads when `workload` is not one of them.
pub fn plan(workload: &str, seed: u64) -> Result<Plan, String> {
    let base = seed_base(seed);
    match workload {
        "paper-figs" => Ok(Plan {
            name: "paper-figs",
            threads: 1,
            specs: paper_figs(base),
        }),
        "channel-grid" => Ok(Plan {
            name: "channel-grid",
            threads: 1,
            specs: vec![channel_grid(base)],
        }),
        "seed-fanout" => Ok(Plan {
            name: "seed-fanout",
            threads: 2,
            specs: vec![seed_fanout(base)],
        }),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
    kv.iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn spec(
    mut s: SweepSpec,
    params: &[(&str, &str)],
    overrides: &[(&str, &str)],
    duration_s: u64,
) -> SweepSpec {
    s.base_params = pairs(params);
    s.base_overrides = pairs(overrides);
    s.duration = SimDuration::from_secs(duration_s);
    s
}

/// The `experiments all` job through the harness: Figs 4, 5, 6 and 7,
/// each under baseline and StopWatch. The 10 MB Fig 5 point runs one
/// seed: its UDP-NAK StopWatch cell alone is most of the pass.
fn paper_figs(base: u64) -> Vec<SweepSpec> {
    let fig4 = SweepSpec::new("fig4", "attack")
        .axis("cfg.defense", &["stopwatch", "baseline"])
        .axis("victim", &["false", "true"])
        .seed_shards(base, 3);
    let fig5 = |name: &str, sizes: &[u64], seeds: usize| {
        let s = SweepSpec::new(name, "web-http")
            .axis("workload", &["web-http", "web-udp"])
            .axis("cfg.defense", &["baseline", "stopwatch"])
            .axis("bytes", sizes)
            .seed_shards(base, seeds);
        spec(s, &[("downloads", "3")], &[], 600)
    };
    let fig6 = SweepSpec::new("fig6", "nfs")
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .axis("rate", &[25u64, 50, 100, 200, 400])
        .seed_shards(base, 2);
    let fig7 = SweepSpec::new("fig7", "parsec:ferret")
        .axis(
            "workload",
            &[
                "parsec:ferret",
                "parsec:blackscholes",
                "parsec:canneal",
                "parsec:dedup",
                "parsec:streamcluster",
            ],
        )
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .seed_shards(base, 2);
    vec![
        spec(
            fig4,
            &[("probes", "400")],
            &[("broadcast_band", "off"), ("client_tick_ms", "4")],
            600,
        ),
        fig5("fig5", &[1_000, 10_000, 100_000, 1_000_000], 4),
        fig5("fig5-10mb", &[10_000_000], 1),
        // 400 ops finish well inside a minute even at 25 ops/s; a client
        // that stalls times out after 60 s instead of 600.
        spec(fig6, &[("ops", "400")], &[], 60),
        spec(fig7, &[], &[("broadcast_band", "off")], 120),
    ]
}

/// The defense-shootout shape: every arm against the cache, disk and
/// timer channels at 3 and 5 replicas, victim off and on. Each victim
/// cell is judged against the clean cell of its own arm.
fn channel_grid(base: u64) -> SweepSpec {
    let s = SweepSpec::new("channel-grid", "cache-channel")
        .axis(
            "workload",
            &["cache-channel", "disk-channel", "timer-channel"],
        )
        .axis(
            "cfg.defense",
            &["baseline", "bucketed", "deterland", "stopwatch"],
        )
        .axis("cfg.replicas", &[3u64, 5])
        .axis("victim", &["false", "true"])
        .seed_shards(base, 3);
    spec(
        s,
        &[("rounds", "60")],
        &[
            ("broadcast_band", "off"),
            ("disk", "rotating"),
            ("delta_d_ms", "25"),
            ("image_blocks", "16000000"),
        ],
        120,
    )
}

/// A calibration-shaped web-http sweep: short transfers over a Δn × Δd ×
/// host-jitter grid with many seed shards.
fn seed_fanout(base: u64) -> SweepSpec {
    let s = SweepSpec::new("seed-fanout", "web-http")
        .axis("cfg.delta_n_ms", &[5u64, 10, 15])
        .axis("cfg.delta_d_ms", &[2u64, 5, 10])
        .axis("cfg.ips_jitter", &["0.0", "0.02", "0.05"])
        .seed_shards(base, 60);
    spec(
        s,
        &[("bytes", "30000"), ("downloads", "2")],
        &[("broadcast_band", "off"), ("disk", "ssd")],
        60,
    )
}

/// Stable family of a workload registry key, for per-family engine
/// figures.
pub fn family(workload: &str) -> &'static str {
    match workload {
        "web-http" | "web-udp" => "web",
        "attack" => "attack",
        "nfs" => "nfs",
        "cache-channel" => "cache",
        "disk-channel" => "disk",
        "timer-channel" => "timer",
        w if w.starts_with("parsec:") => "parsec",
        _ => "other",
    }
}

/// Families reported per family, in output order.
pub const FAMILIES: [&str; 7] = ["web", "attack", "nfs", "parsec", "cache", "disk", "timer"];
