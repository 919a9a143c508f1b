//! Phase 5: the performance visualizer (the R-scripts phase of the
//! original framework), rendering SVG box plots, line charts, and bar
//! charts that mirror the paper's figures.

use crate::registry::EngineKind;
use crate::runner::ExperimentResult;
use crate::stats::Summary;
use std::fmt::Write as _;

/// Axis scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Linear y axis.
    Linear,
    /// Logarithmic y axis (most of the paper's runtime plots).
    Log,
}

const W: f64 = 640.0;
const H: f64 = 420.0;
const ML: f64 = 70.0; // left margin
const MB: f64 = 60.0; // bottom margin
const MT: f64 = 40.0; // top margin
const MR: f64 = 20.0; // right margin

struct YAxis {
    min: f64,
    max: f64,
    scale: Scale,
}

impl YAxis {
    fn project(&self, v: f64) -> f64 {
        let (vmin, vmax, v) = match self.scale {
            Scale::Linear => (self.min, self.max, v),
            Scale::Log => (self.min.ln(), self.max.ln(), v.max(self.min).ln()),
        };
        let frac = if vmax > vmin { (v - vmin) / (vmax - vmin) } else { 0.5 };
        H - MB - frac * (H - MB - MT)
    }
}

fn svg_header(title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"12\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n\
         <text x=\"{}\" y=\"22\" text-anchor=\"middle\" font-size=\"16\">{}</text>\n",
        W / 2.0,
        xml_escape(title)
    )
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn axis_lines(axis: &YAxis, y_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<line x1=\"{ML}\" y1=\"{MT}\" x2=\"{ML}\" y2=\"{}\" stroke=\"black\"/>",
        H - MB
    );
    let _ = writeln!(
        out,
        "<line x1=\"{ML}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"black\"/>",
        H - MB,
        W - MR,
        H - MB
    );
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"{}\" transform=\"rotate(-90 16 {})\" text-anchor=\"middle\">{}</text>",
        (H - MB + MT) / 2.0,
        (H - MB + MT) / 2.0,
        xml_escape(y_label)
    );
    // Tick marks.
    let ticks = match axis.scale {
        Scale::Linear => {
            let mut t = Vec::new();
            for i in 0..=4 {
                t.push(axis.min + (axis.max - axis.min) * i as f64 / 4.0);
            }
            t
        }
        Scale::Log => {
            let mut t = Vec::new();
            let mut v = 10f64.powf(axis.min.log10().floor());
            while v <= axis.max * 1.0001 {
                if v >= axis.min * 0.9999 {
                    t.push(v);
                }
                v *= 10.0;
            }
            if t.is_empty() {
                t.push(axis.min);
                t.push(axis.max);
            }
            t
        }
    };
    for v in ticks {
        let y = axis.project(v);
        let _ = writeln!(
            out,
            "<line x1=\"{}\" y1=\"{y}\" x2=\"{ML}\" y2=\"{y}\" stroke=\"black\"/>\
             <text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
            ML - 4.0,
            ML - 7.0,
            y + 4.0,
            format_tick(v)
        );
    }
    out
}

fn format_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 || v.abs() < 0.01 {
        format!("{v:.0e}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders a box plot: one box (five-number summary) per labeled group —
/// the shape of Figs. 2, 3, 4 (left), and 9.
pub fn boxplot(title: &str, y_label: &str, groups: &[(String, Summary)], scale: Scale) -> String {
    assert!(!groups.is_empty(), "no groups to plot");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, s) in groups {
        lo = lo.min(s.min);
        hi = hi.max(s.max);
    }
    if scale == Scale::Log {
        lo = lo.max(1e-12);
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    let axis = YAxis { min: lo, max: hi, scale };
    let mut out = svg_header(title);
    out.push_str(&axis_lines(&axis, y_label));
    let slot = (W - ML - MR) / groups.len() as f64;
    for (i, (label, s)) in groups.iter().enumerate() {
        let cx = ML + slot * (i as f64 + 0.5);
        let bw = (slot * 0.5).min(60.0);
        let (ymin, yq1, ymed, yq3, ymax) = (
            axis.project(s.min),
            axis.project(s.q1),
            axis.project(s.median),
            axis.project(s.q3),
            axis.project(s.max),
        );
        let _ = writeln!(
            out,
            "<line x1=\"{cx}\" y1=\"{ymin}\" x2=\"{cx}\" y2=\"{yq1}\" stroke=\"black\"/>\
             <line x1=\"{cx}\" y1=\"{yq3}\" x2=\"{cx}\" y2=\"{ymax}\" stroke=\"black\"/>\
             <rect x=\"{}\" y=\"{yq3}\" width=\"{bw}\" height=\"{}\" fill=\"lightsteelblue\" stroke=\"black\"/>\
             <line x1=\"{}\" y1=\"{ymed}\" x2=\"{}\" y2=\"{ymed}\" stroke=\"black\" stroke-width=\"2\"/>\
             <text x=\"{cx}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
            cx - bw / 2.0,
            (yq1 - yq3).max(1.0),
            cx - bw / 2.0,
            cx + bw / 2.0,
            H - MB + 18.0,
            xml_escape(label)
        );
    }
    out.push_str("</svg>\n");
    out
}

/// The groups of a per-engine [`boxplot`]: one per engine of `engines`
/// with samples, in that order. Phase 5's plots and `epg reproduce`'s
/// Figs. 2-4 panels both draw these.
pub fn engine_boxes(
    engines: &[EngineKind],
    samples: impl Fn(EngineKind) -> Vec<f64>,
) -> Vec<(String, Summary)> {
    engines
        .iter()
        .filter_map(|&kind| {
            let xs = samples(kind);
            (!xs.is_empty()).then(|| (kind.name().to_string(), Summary::of(&xs)))
        })
        .collect()
}

/// The bars of a PageRank-iterations [`bar_chart`] (Fig. 4, right): each
/// engine of `engines` that ran PageRank in `result`, at its mean count.
/// The markdown report lists the same numbers.
pub fn iteration_bars(engines: &[EngineKind], result: &ExperimentResult) -> Vec<(String, f64)> {
    engines
        .iter()
        .filter_map(|&kind| {
            let iters = result.pr_iterations(kind);
            let mean = iters.iter().map(|&i| i as f64).sum::<f64>() / iters.len() as f64;
            (!iters.is_empty()).then(|| (kind.name().to_string(), mean))
        })
        .collect()
}

/// Renders a multi-series line chart over shared x positions — the shape
/// of Figs. 5 and 6 (speedup / efficiency vs thread count).
pub fn line_chart(
    title: &str,
    y_label: &str,
    x_labels: &[String],
    series: &[(String, Vec<f64>)],
    scale: Scale,
) -> String {
    assert!(!series.is_empty(), "no series to plot");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, ys) in series {
        assert_eq!(ys.len(), x_labels.len(), "series length mismatch");
        for &y in ys {
            lo = lo.min(y);
            hi = hi.max(y);
        }
    }
    if scale == Scale::Log {
        lo = lo.max(1e-12);
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    let axis = YAxis { min: lo, max: hi, scale };
    let colors = ["black", "crimson", "seagreen", "royalblue", "darkorange", "purple"];
    let mut out = svg_header(title);
    out.push_str(&axis_lines(&axis, y_label));
    let step = (W - ML - MR) / (x_labels.len().max(2) - 1) as f64;
    for (i, lbl) in x_labels.iter().enumerate() {
        let x = ML + step * i as f64;
        let _ = writeln!(
            out,
            "<text x=\"{x}\" y=\"{}\" text-anchor=\"middle\">{}</text>",
            H - MB + 18.0,
            xml_escape(lbl)
        );
    }
    for (si, (name, ys)) in series.iter().enumerate() {
        let color = colors[si % colors.len()];
        let pts: Vec<String> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| format!("{},{}", ML + step * i as f64, axis.project(y)))
            .collect();
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>",
            pts.join(" ")
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" fill=\"{color}\">{}</text>",
            W - MR - 110.0,
            MT + 16.0 * si as f64,
            xml_escape(name)
        );
    }
    out.push_str("</svg>\n");
    out
}

/// Renders a grouped bar chart — the shape of Figs. 4 (right, iteration
/// counts) and 8 (mean runtimes per dataset and system).
pub fn bar_chart(title: &str, y_label: &str, bars: &[(String, f64)]) -> String {
    assert!(!bars.is_empty(), "no bars to plot");
    let hi = bars.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max).max(1e-12);
    let axis = YAxis { min: 0.0, max: hi, scale: Scale::Linear };
    let mut out = svg_header(title);
    out.push_str(&axis_lines(&axis, y_label));
    let slot = (W - ML - MR) / bars.len() as f64;
    for (i, (label, v)) in bars.iter().enumerate() {
        let x = ML + slot * i as f64 + slot * 0.15;
        let y = axis.project(*v);
        let _ = writeln!(
            out,
            "<rect x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{}\" fill=\"steelblue\"/>\
             <text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"10\">{}</text>",
            slot * 0.7,
            (H - MB - y).max(0.0),
            x + slot * 0.35,
            H - MB + 18.0,
            xml_escape(label)
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(vals: &[f64]) -> Summary {
        Summary::of(vals)
    }

    #[test]
    fn boxplot_contains_all_groups() {
        let svg = boxplot(
            "BFS Time",
            "Time (seconds)",
            &[
                ("GAP".into(), summary(&[0.01, 0.02, 0.05])),
                ("GraphMat".into(), summary(&[1.0, 1.4, 2.0])),
            ],
            Scale::Log,
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("GAP") && svg.contains("GraphMat"));
        assert!(svg.matches("<rect").count() >= 3); // background + 2 boxes
    }

    #[test]
    fn line_chart_has_one_polyline_per_series() {
        let svg = line_chart(
            "BFS Speedup",
            "Speedup",
            &["1".into(), "2".into(), "4".into()],
            &[("Linear".into(), vec![1.0, 2.0, 4.0]), ("GAP".into(), vec![1.0, 1.8, 3.1])],
            Scale::Log,
        );
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn bar_chart_bars_match_input() {
        let svg =
            bar_chart("Iterations", "count", &[("GAP".into(), 24.0), ("GraphMat".into(), 140.0)]);
        assert_eq!(svg.matches("<rect").count(), 3); // background + 2 bars
    }

    #[test]
    fn titles_are_escaped() {
        let svg = bar_chart("a<b & \"c\"", "y", &[("x".into(), 1.0)]);
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot;"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let _ = line_chart("t", "y", &["1".into()], &[("s".into(), vec![1.0, 2.0])], Scale::Linear);
    }

    #[test]
    fn log_scale_handles_tiny_values() {
        let svg = boxplot("t", "y", &[("a".into(), summary(&[1e-6, 1e-5, 1e-4]))], Scale::Log);
        assert!(svg.contains("</svg>"));
    }
}
