//! Named sweep presets: one per simulated paper figure plus the scaling
//! grids the roadmap tracks, each a ready-to-run [`SweepSpec`].
//!
//! `swbench run <name>` starts one; `swbench list` prints this registry.
//! The `quick` flag shrinks workload sizes and seed counts so a laptop
//! smoke-run finishes in seconds; the full shapes reproduce the paper's
//! parameter ranges.

use crate::sweep::SweepSpec;
use simkit::time::SimDuration;

/// A named preset with a one-line description.
pub struct Preset {
    /// Registry key.
    pub name: &'static str,
    /// What the sweep measures.
    pub about: &'static str,
    build: fn(quick: bool) -> SweepSpec,
}

impl Preset {
    /// Materializes the spec.
    pub fn spec(&self, quick: bool) -> SweepSpec {
        (self.build)(quick)
    }
}

/// Every named preset.
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "delta-n",
        about: "web latency vs Δn padding, 8-point grid x 8 seeds (Sec. VII-A calibration at scale)",
        build: |quick| {
            let spec = SweepSpec::new("delta-n", "web-http")
                .axis("cfg.delta_n_ms", &[1u64, 2, 4, 6, 8, 10, 12, 15])
                .seed_shards(42, if quick { 2 } else { 8 });
            with_params(
                spec,
                &[("bytes", if quick { "20000" } else { "100000" }), ("downloads", "2")],
                &[("broadcast_band", "off"), ("disk", "ssd")],
            )
        },
    },
    Preset {
        name: "delta-d",
        about: "web latency vs Δd padding grid x seeds (disk-completion release times)",
        build: |quick| {
            let spec = SweepSpec::new("delta-d", "web-http")
                .axis("cfg.delta_d_ms", &[2u64, 4, 8, 12, 15])
                .seed_shards(42, if quick { 2 } else { 8 });
            with_params(
                spec,
                &[("bytes", if quick { "20000" } else { "100000" }), ("downloads", "2")],
                &[("broadcast_band", "off")],
            )
        },
    },
    Preset {
        name: "fig5",
        about: "file retrieval latency vs size, HTTP and UDP-NAK, baseline vs StopWatch (Fig. 5)",
        build: |quick| {
            let sizes: &[u64] = if quick {
                &[10_000, 100_000]
            } else {
                &[1_000, 10_000, 100_000, 1_000_000]
            };
            let spec = SweepSpec::new("fig5", "web-http")
                .axis("workload", &["web-http", "web-udp"])
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .axis("bytes", sizes)
                .seed_shards(42, if quick { 1 } else { 3 });
            let mut spec = with_params(spec, &[("downloads", "2")], &[]);
            spec.duration = SimDuration::from_secs(600);
            spec
        },
    },
    Preset {
        name: "fig6",
        about: "NFS op latency vs offered load, baseline vs StopWatch (Fig. 6)",
        build: |quick| {
            let rates: &[u64] = if quick { &[100, 400] } else { &[25, 50, 100, 200, 400] };
            let spec = SweepSpec::new("fig6", "nfs")
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .axis("rate", rates)
                .seed_shards(42, if quick { 1 } else { 3 });
            let mut spec =
                with_params(spec, &[("ops", if quick { "100" } else { "400" })], &[]);
            spec.duration = SimDuration::from_secs(600);
            spec
        },
    },
    Preset {
        name: "attack",
        about: "attacker-observed probe deltas with/without a coresident victim, both defense arms (Fig. 4)",
        build: |quick| {
            let spec = SweepSpec::new("attack", "attack")
                .axis("cfg.defense", &["stopwatch", "baseline"])
                .axis("victim", &["false", "true"])
                .seed_shards(42, if quick { 2 } else { 6 });
            let mut spec = with_params(
                spec,
                &[("probes", if quick { "100" } else { "400" })],
                &[("broadcast_band", "off"), ("client_tick_ms", "4")],
            );
            spec.duration = SimDuration::from_secs(600);
            spec
        },
    },
    Preset {
        name: "collab",
        about: "collaborating attacker: a load VM on one replica's host vs 3 and 5 replicas, StopWatch (Sec. IX)",
        build: |quick| {
            // The victim always coresides with the attacker's first
            // replica (what the attacker wants to sense); the collaborator
            // loads the same host to push that replica out of the median.
            // A load=true cell's mean against its load=false sibling is
            // the shift the collaborator achieved.
            let spec = SweepSpec::new("collab", "attack")
                .axis("cfg.replicas", &[3u64, 5])
                .axis("load", &["false", "true"]);
            let mut spec = with_params(
                spec,
                &[("victim", "true"), ("probes", if quick { "150" } else { "600" })],
                &[
                    ("defense", "stopwatch"),
                    ("broadcast_band", "off"),
                    ("disk", "ssd"),
                    ("client_tick_ms", "2"),
                ],
            );
            spec.duration = SimDuration::from_secs(600);
            spec
        },
    },
    Preset {
        name: "cache-channel",
        about: "PRIME+PROBE set-recovery accuracy vs replica count (1/3/5), with and without the victim (Sec. III)",
        build: |quick| {
            // Replicas go 1 (baseline arm) -> 3 -> 5; the clean
            // baseline cell comes first so it anchors the leakage
            // verdicts (clean probes read identical flat hit latencies
            // in every arm). The replicas knob is a no-op under the
            // baseline arm, so the defense=baseline cells repeat at each
            // replicas grid point — kept deliberately: the grid stays
            // rectangular and the duplicated baseline rows double as a
            // determinism cross-check (their verdicts must read ks=0).
            let spec = SweepSpec::new("cache-channel", "cache-channel")
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .axis("cfg.replicas", &[3u64, 5])
                .axis("victim", &["false", "true"])
                .seed_shards(42, if quick { 2 } else { 6 });
            let mut spec = with_params(
                spec,
                &[
                    ("rounds", if quick { "12" } else { "40" }),
                    ("sets", "8"),
                    ("ways", "2"),
                ],
                &[("broadcast_band", "off"), ("disk", "ssd")],
            );
            spec.duration = SimDuration::from_secs(120);
            spec
        },
    },
    Preset {
        name: "disk-channel",
        about: "seek-timing secret recovery vs replica count (1/3/5), with and without the victim (Sec. V-A)",
        build: |quick| {
            // Same grid shape as cache-channel: the clean baseline cell
            // anchors the leakage verdicts, defense=baseline rows repeat
            // per replicas grid point (kept for rectangularity + as a
            // determinism cross-check), and the per-arm latency totals
            // feed the KS pipeline. The overrides are the channel's
            // physics: a rotating disk (the head-position signal), a Δd
            // above its worst-case access time, and a large image so the
            // probe arms sit far apart on the platter.
            let spec = SweepSpec::new("disk-channel", "disk-channel")
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .axis("cfg.replicas", &[3u64, 5])
                .axis("victim", &["false", "true"])
                .seed_shards(42, if quick { 2 } else { 6 });
            let mut spec = with_params(
                spec,
                &[("rounds", if quick { "8" } else { "24" })],
                &[
                    ("broadcast_band", "off"),
                    ("disk", "rotating"),
                    ("delta_d_ms", "25"),
                    ("image_blocks", "16000000"),
                ],
            );
            spec.duration = SimDuration::from_secs(120);
            spec
        },
    },
    Preset {
        name: "timer-channel",
        about: "scheduler-beat burst recovery vs replica count (1/3/5), with and without the victim (Sec. V-C)",
        build: |quick| {
            // Same grid shape as cache-channel / disk-channel: the clean
            // baseline cell anchors the leakage verdicts and the
            // defense=baseline rows repeat per replicas grid point. The
            // attacker arms one virtual timer per scheduling window and
            // reads its own dispatch jitter; under StopWatch every fire
            // lands at the programmed deadline plus Δt, so the victim's
            // timeslice beat disappears from the samples.
            let spec = SweepSpec::new("timer-channel", "timer-channel")
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .axis("cfg.replicas", &[3u64, 5])
                .axis("victim", &["false", "true"])
                .seed_shards(42, if quick { 2 } else { 6 });
            let mut spec = with_params(
                spec,
                &[("rounds", if quick { "8" } else { "24" })],
                &[("broadcast_band", "off"), ("disk", "ssd")],
            );
            spec.duration = SimDuration::from_secs(120);
            spec
        },
    },
    Preset {
        name: "defense-shootout",
        about: "every registered defense arm vs every timing-channel workload: leakage verdict + overhead per (defense, channel, replicas) cell",
        build: |quick| {
            // One rectangular grid over the whole defense registry: arm x
            // channel workload x replica count x victim presence. The
            // Baseline arm comes first so every defended cell has an
            // undefended sibling to be priced against (the `overhead`
            // block), and the victim axis gives every arm its own clean
            // reference cell — a victim cell's verdict is judged against
            // the clean cell of the *same* arm, so "TIGHT" means the arm
            // closed the channel, not that it merely reshaped timings.
            // Single-host arms ignore cfg.replicas (their rows repeat per
            // grid point, same convention as the channel presets). The
            // overrides are the superset of the channels' physics: the
            // rotating disk + large image that the disk channel needs are
            // inert for the cache and timer attacks, which never touch
            // the disk after boot.
            let replicas: &[u64] = if quick { &[3] } else { &[3, 5] };
            let spec = SweepSpec::new("defense-shootout", "cache-channel")
                .axis("workload", &["cache-channel", "disk-channel", "timer-channel"])
                .axis("cfg.defense", &["baseline", "bucketed", "deterland", "stopwatch"])
                .axis("cfg.replicas", replicas)
                .axis("victim", &["false", "true"])
                .seed_shards(42, if quick { 1 } else { 4 });
            let mut spec = with_params(
                spec,
                &[("rounds", if quick { "6" } else { "20" })],
                &[
                    ("broadcast_band", "off"),
                    ("disk", "rotating"),
                    ("delta_d_ms", "25"),
                    ("image_blocks", "16000000"),
                ],
            );
            spec.duration = SimDuration::from_secs(120);
            spec
        },
    },
    Preset {
        name: "replicas",
        about: "overhead vs replica count (3 vs 5, Sec. IX marginalization defense)",
        build: |quick| {
            let spec = SweepSpec::new("replicas", "web-http")
                .axis("cfg.replicas", &[3u64, 5])
                .seed_shards(42, if quick { 2 } else { 6 });
            with_params(
                spec,
                &[("bytes", "50000"), ("downloads", "2")],
                &[("broadcast_band", "off")],
            )
        },
    },
    Preset {
        name: "jitter",
        about: "pacing effectiveness vs host speed jitter (Sec. V-A)",
        build: |quick| {
            let spec = SweepSpec::new("jitter", "web-http")
                .axis("cfg.ips_jitter", &["0.0", "0.02", "0.05", "0.10"])
                .seed_shards(42, if quick { 2 } else { 6 });
            with_params(
                spec,
                &[("bytes", "50000"), ("downloads", "2")],
                &[("broadcast_band", "off")],
            )
        },
    },
    Preset {
        name: "parsec",
        about: "PARSEC completion times across all five apps, baseline vs StopWatch (Fig. 7)",
        build: |quick| {
            let apps = [
                "parsec:ferret",
                "parsec:blackscholes",
                "parsec:canneal",
                "parsec:dedup",
                "parsec:streamcluster",
            ];
            let spec = SweepSpec::new("parsec", "parsec:ferret")
                .axis("workload", &apps)
                .axis("cfg.defense", &["baseline", "stopwatch"])
                .seed_shards(42, if quick { 1 } else { 3 });
            let mut spec = with_params(spec, &[], &[("broadcast_band", "off")]);
            spec.duration = SimDuration::from_secs(120);
            spec
        },
    },
];

fn with_params(
    mut spec: SweepSpec,
    params: &[(&str, &str)],
    overrides: &[(&str, &str)],
) -> SweepSpec {
    spec.base_params = params
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    spec.base_overrides = overrides
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    spec
}

/// Looks up a preset by name.
pub fn preset(name: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_expand() {
        for p in PRESETS {
            let spec = p.spec(true);
            let scenarios = spec.scenarios().expect(p.name);
            assert!(!scenarios.is_empty(), "{} expands empty", p.name);
            assert_eq!(scenarios.len(), spec.scenario_count(), "{}", p.name);
        }
    }

    #[test]
    fn delta_n_full_is_a_64_scenario_sweep() {
        let spec = preset("delta-n").unwrap().spec(false);
        assert_eq!(spec.scenario_count(), 64, "8 grid points x 8 seeds");
    }

    #[test]
    fn lookup_by_name() {
        assert!(preset("fig5").is_some());
        assert!(preset("no-such").is_none());
    }

    #[test]
    fn cache_channel_grid_covers_arms_replicas_and_victim() {
        let spec = preset("cache-channel").unwrap().spec(true);
        // defense x replicas x victim x 2 seeds.
        assert_eq!(spec.scenario_count(), 2 * 2 * 2 * 2);
        let scenarios = spec.scenarios().expect("expands");
        assert_eq!(
            scenarios[0].cell, "cfg.defense=baseline,cfg.replicas=3,victim=false",
            "clean baseline cell anchors the leakage verdicts"
        );
        assert!(scenarios.iter().any(|s| s
            .overrides
            .contains(&("defense".to_string(), "stopwatch".to_string()))));
        assert!(scenarios.iter().any(|s| s
            .overrides
            .contains(&("replicas".to_string(), "5".to_string()))));
    }

    #[test]
    fn collab_is_replicas_by_load_under_stopwatch_with_the_victim() {
        for quick in [true, false] {
            let spec = preset("collab").unwrap().spec(quick);
            let scenarios = spec.scenarios().expect("expands");
            let cells: Vec<&str> = scenarios.iter().map(|s| s.cell.as_str()).collect();
            assert_eq!(
                cells,
                [
                    "cfg.replicas=3,load=false",
                    "cfg.replicas=3,load=true",
                    "cfg.replicas=5,load=false",
                    "cfg.replicas=5,load=true",
                ]
            );
            let probes = if quick { "150" } else { "600" };
            for s in &scenarios {
                assert!(s
                    .workload_params
                    .contains(&("victim".into(), "true".into())));
                assert!(s
                    .workload_params
                    .contains(&("probes".into(), probes.into())));
                assert!(s
                    .overrides
                    .contains(&("defense".into(), "stopwatch".into())));
            }
        }
    }

    #[test]
    fn defense_shootout_covers_the_whole_registry() {
        let spec = preset("defense-shootout").unwrap().spec(true);
        // 3 workloads x 4 arms x 1 replica count x victim on/off, 1 seed.
        assert_eq!(spec.scenario_count(), 3 * 4 * 2);
        let scenarios = spec.scenarios().expect("expands");
        for arm in vmm::defense::arm_names() {
            assert!(
                scenarios.iter().any(|s| s
                    .overrides
                    .contains(&("defense".to_string(), arm.to_string()))),
                "arm {arm} missing from the shootout grid"
            );
        }
        for workload in ["cache-channel", "disk-channel", "timer-channel"] {
            assert!(
                scenarios.iter().any(|s| s.workload == workload),
                "workload {workload} missing from the shootout grid"
            );
        }
        // Full shape widens to both replica counts and 4 seeds.
        let full = preset("defense-shootout").unwrap().spec(false);
        assert_eq!(full.scenario_count(), 3 * 4 * 2 * 2 * 4);
    }
}
