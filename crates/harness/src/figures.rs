//! The paper's analytic figures as CSV files: Fig. 1 (the median of three
//! exponentials and the observations an attacker needs), Fig. 8
//! (StopWatch against uniform random noise) and the Sec. VIII placement
//! theorems.
//!
//! These evaluate closed forms from [`timestats`] and [`placement`] and
//! run no simulation. `swbench figure <name>` writes them; the simulated
//! figures are presets (`swbench list`), and the tests below also pin
//! the paper-shaped results of those.

use placement::prelude::*;
use timestats::detect::{Detector, PAPER_CONFIDENCES};
use timestats::dist::{Cdf, Exponential};
use timestats::noise::{compare_with_uniform_noise, NoiseComparison, TAIL_QS};
use timestats::order_stats::OrderStat;

/// The figure names [`render`] accepts, besides `all`.
pub const FIGURES: &[&str] = &["fig1", "fig8", "placement"];

/// The victim rates λ′ of the two Fig. 1 / Fig. 8 panels (λ = 1).
const PANELS: [f64; 2] = [0.5, 10.0 / 11.0];

/// One rendered CSV file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvFile {
    /// File name inside the output directory.
    pub name: String,
    /// The file's contents: a header line, then one line per row.
    pub body: String,
}

/// Renders one figure, or every figure for `"all"`, to its CSV files.
///
/// # Errors
///
/// An unknown name, with the valid names listed.
pub fn render(name: &str) -> Result<Vec<CsvFile>, String> {
    match name {
        "fig1" => Ok(fig1_csvs()),
        "fig8" => Ok(fig8_csvs()),
        "placement" => Ok(placement_csvs()),
        "all" => Ok([fig1_csvs(), fig8_csvs(), placement_csvs()].concat()),
        other => Err(format!(
            "unknown figure {other:?}; valid figures: {}, all",
            FIGURES.join(", ")
        )),
    }
}

/// A CSV file from its header line and its already-formatted rows.
fn csv(name: String, header: &str, rows: impl IntoIterator<Item = String>) -> CsvFile {
    let mut body = format!("{header}\n");
    for row in rows {
        body.push_str(&row);
        body.push('\n');
    }
    CsvFile { name, body }
}

/// One Fig. 1a point: the four CDFs at `x`.
#[derive(Debug, Clone, Copy)]
struct CdfPoint {
    x: f64,
    baseline: f64,
    victim: f64,
    median_three_baselines: f64,
    median_with_victim: f64,
}

/// Fig. 1 for victim rate `lambda_prime`: the (a) curves, and per paper
/// confidence the (b)/(c) observations needed with and without StopWatch.
fn fig1(lambda_prime: f64) -> (Vec<CdfPoint>, Vec<(f64, u64, u64)>) {
    let base = Exponential::new(1.0);
    let victim = Exponential::new(lambda_prime);
    let med_null = OrderStat::median_of_three(base, base, base);
    let med_alt = OrderStat::median_of_three(victim, base, base);
    let curves = (0..=60)
        .map(|i| {
            let x = i as f64 * 0.1;
            CdfPoint {
                x,
                baseline: base.cdf(x),
                victim: victim.cdf(x),
                median_three_baselines: med_null.cdf(x),
                median_with_victim: med_alt.cdf(x),
            }
        })
        .collect();
    let raw = Detector::from_cdfs_with_tails(&base, &victim, 10, TAIL_QS);
    let med = Detector::from_cdfs_with_tails(&med_null, &med_alt, 10, TAIL_QS);
    let detection = PAPER_CONFIDENCES
        .iter()
        .map(|&c| (c, med.observations_needed(c), raw.observations_needed(c)))
        .collect();
    (curves, detection)
}

fn fig1_csvs() -> Vec<CsvFile> {
    let mut files = Vec::new();
    for (panel, lp) in ["b", "c"].into_iter().zip(PANELS) {
        let (curves, detection) = fig1(lp);
        files.push(csv(
            format!("fig1a_lambda_{lp:.3}.csv"),
            "x,baseline,victim,median_3_baselines,median_2_baselines_1_victim",
            curves.iter().map(|p| {
                format!(
                    "{:.2},{:.4},{:.4},{:.4},{:.4}",
                    p.x, p.baseline, p.victim, p.median_three_baselines, p.median_with_victim
                )
            }),
        ));
        files.push(csv(
            format!("fig1{panel}_detect.csv"),
            "confidence,obs_with_stopwatch,obs_without",
            detection
                .iter()
                .map(|(c, with, without)| format!("{c:.2},{with},{without}")),
        ));
    }
    files
}

fn fig8(lambda_prime: f64) -> Vec<NoiseComparison> {
    compare_with_uniform_noise(1.0, lambda_prime, &PAPER_CONFIDENCES, 10, 0.9999)
}

fn fig8_csvs() -> Vec<CsvFile> {
    let header = "confidence,observations,delta_n,noise_bound_b,\
                  E[X23+dn],E[X'23+dn],E[X1+XN],E[X'1+XN]";
    ["a", "b"]
        .into_iter()
        .zip(PANELS)
        .map(|(panel, lp)| {
            let rows = fig8(lp).into_iter().map(|r| {
                format!(
                    "{:.2},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
                    r.confidence,
                    r.observations,
                    r.delta_n,
                    r.noise_bound,
                    r.stopwatch_delay_null,
                    r.stopwatch_delay_victim,
                    r.noise_delay_null,
                    r.noise_delay_victim
                )
            });
            csv(format!("fig8{panel}_noise.csv"), header, rows)
        })
        .collect()
}

fn placement_csvs() -> Vec<CsvFile> {
    // Theorem 1: maximum edge-disjoint triangle packings.
    let theorem1 = [3usize, 7, 9, 15, 21, 33, 45, 63, 99].map(|n| {
        let k = max_triangle_packing(n);
        let speedup = k as f64 / n as f64;
        format!("{n},{k},{},{speedup:.2}", isolation_capacity(n))
    });
    // Theorem 2: constructive placements under a per-host capacity.
    let mut theorem2 = Vec::new();
    for n in [9usize, 15, 21, 33] {
        for c in [1usize, 2, 3, 4, 7, 10] {
            if c > (n - 1) / 2 {
                continue;
            }
            let mut p = PlacementPlanner::new(n, c, Strategy::Bose).expect("bose planner");
            let placed = p.place_all();
            let promise = BoseSystem::new(n).expect("bose system").theorem2_count(c);
            let valid = p.validate().is_ok();
            theorem2.push(format!(
                "{n},{c},{placed},{promise},{valid},{:.2}",
                p.utilization()
            ));
        }
    }
    // The greedy fallback for cloud sizes the Bose construction skips.
    let greedy = [10usize, 12, 16, 20, 40].map(|n| {
        let c = (n - 1) / 2;
        let placed = greedy_packing(n, c, 42).len();
        format!("{n},{c},{placed},{}", max_triangle_packing(n))
    });
    vec![
        csv(
            "placement_theorem1.csv".to_string(),
            "n,max_vms_theorem1,isolation,speedup",
            theorem1,
        ),
        csv(
            "placement_theorem2.csv".to_string(),
            "n,capacity,vms_placed,bose_promise,valid,utilization",
            theorem2,
        ),
        csv(
            "placement_greedy.csv".to_string(),
            "n,capacity,greedy_vms,theorem1_bound",
            greedy,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use simkit::time::SimDuration;

    #[test]
    fn fig1_shapes() {
        let (curves, detection) = fig1(0.5);
        assert_eq!(curves.len(), 61);
        // The two median curves lie closer together than the raw pair.
        let mid = &curves[20]; // x = 2.0
        let raw_gap = (mid.baseline - mid.victim).abs();
        let med_gap = (mid.median_three_baselines - mid.median_with_victim).abs();
        assert!(med_gap < raw_gap);
        // Detection: StopWatch needs more observations, monotone in
        // confidence.
        for &(_, with, without) in &detection {
            assert!(with > without);
        }
        for w in detection.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn fig8_noise_scales_worse() {
        let rows = fig8(0.5);
        let last = rows.last().unwrap();
        assert!(last.noise_delay_null > last.stopwatch_delay_null);
    }

    fn cell<'a>(report: &'a SweepReport, key: &str) -> &'a CellAggregate {
        report
            .cells
            .iter()
            .find(|c| c.cell == key)
            .unwrap_or_else(|| panic!("missing cell {key}"))
    }

    fn run(scenarios: &[Scenario]) -> SweepReport {
        let opts = RunnerOptions {
            threads: 2,
            progress: false,
        };
        let report = SweepReport::from_outcomes("test", &run_scenarios(scenarios, &opts), None);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        report
    }

    #[test]
    fn fig5_small_sweep_shape() {
        let report = run(&preset("fig5").unwrap().spec(true).scenarios().unwrap());
        let mean = |workload: &str, defense: &str, bytes: u64| {
            let key = format!("workload={workload},cfg.defense={defense},bytes={bytes}");
            let c = cell(&report, &key);
            assert_eq!(c.timeouts, 0, "{key}");
            c.latency_ms.mean
        };
        for bytes in [10_000, 100_000] {
            let http = (
                mean("web-http", "baseline", bytes),
                mean("web-http", "stopwatch", bytes),
            );
            let udp = (
                mean("web-udp", "baseline", bytes),
                mean("web-udp", "stopwatch", bytes),
            );
            assert!(http.1 > http.0, "{bytes} B: {http:?}");
            // The paper's crossover: UDP-NAK over StopWatch becomes
            // competitive for files of 100 KB or more (one Δn crossing
            // amortized over the stream), while HTTP keeps paying per ACK.
            if bytes >= 100_000 {
                let (http_ratio, udp_ratio) = (http.1 / http.0, udp.1 / udp.0);
                assert!(
                    udp_ratio < http_ratio,
                    "{bytes} B: udp {udp_ratio} http {http_ratio}"
                );
            }
        }
    }

    #[test]
    fn calibration_violations_fall_with_delta() {
        // Sec. VII-A: Δn = Δd swept together under StopWatch, one cell per Δ.
        let scenarios: Vec<Scenario> = [1u64, 12]
            .iter()
            .map(|&delta| {
                let mut s = Scenario::new("web-http", 5);
                s.cell = format!("delta_ms={delta}");
                s.duration = SimDuration::from_secs(120);
                s.workload_params = vec![
                    ("bytes".to_string(), "100000".to_string()),
                    ("downloads".to_string(), "3".to_string()),
                ];
                s.overrides = vec![
                    ("delta_n_ms".to_string(), delta.to_string()),
                    ("delta_d_ms".to_string(), delta.to_string()),
                    ("defense".to_string(), "stopwatch".to_string()),
                ];
                s
            })
            .collect();
        let report = run(&scenarios);
        let violations = |key: &str| {
            let c = cell(&report, key);
            (
                c.counters.get("sync_violations"),
                c.counters.get("dd_violations"),
            )
        };
        let (small, paper) = (violations("delta_ms=1"), violations("delta_ms=12"));
        assert!(
            small.0 + small.1 >= paper.0 + paper.1,
            "{small:?} vs {paper:?}"
        );
        assert_eq!(paper.1, 0, "paper-sized Δd has no violations");
    }

    #[test]
    fn all_is_every_figure_in_order_with_rectangular_rows() {
        let all = render("all").unwrap();
        let each: Vec<CsvFile> = FIGURES.iter().flat_map(|f| render(f).unwrap()).collect();
        assert_eq!(all, each);
        assert_eq!(all.len(), 9);
        for f in &all {
            let mut lines = f.body.lines();
            let columns = lines.next().unwrap().split(',').count();
            assert!(lines.all(|l| l.split(',').count() == columns), "{}", f.name);
        }
    }
}
