//! Plot-ready exports: whitespace-separated `.dat` series and a gnuplot
//! script reproducing the paper's presentation (average message latency on
//! the y axis, accepted traffic on the x axis, one series per routing
//! scheme).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::curve::{Curve, TimeSeries};

/// Render one curve as a whitespace-separated data table
/// (`accepted latency_ns p99_ns offered itbs`).
pub(crate) fn curve_to_dat(curve: &Curve) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", curve.label);
    let _ = writeln!(
        out,
        "# accepted  avg_latency_ns  p99_latency_ns  offered  itbs_per_msg"
    );
    for p in &curve.points {
        let _ = writeln!(
            out,
            "{:.6} {:.1} {:.1} {:.6} {:.4}",
            p.accepted, p.avg_latency_ns, p.p99_latency_ns, p.offered, p.avg_itbs_per_msg
        );
    }
    out
}

/// A gnuplot script plotting `files` (already written `.dat` paths) in the
/// paper's style.
pub(crate) fn gnuplot_script(title: &str, output_png: &str, files: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "set terminal pngcairo size 900,600");
    let _ = writeln!(out, "set output '{output_png}'");
    let _ = writeln!(out, "set title '{title}'");
    let _ = writeln!(out, "set xlabel 'Accepted traffic (flits/ns/switch)'");
    let _ = writeln!(out, "set ylabel 'Average message latency (ns)'");
    let _ = writeln!(out, "set key top left");
    let _ = writeln!(out, "set grid");
    let mut first = true;
    let _ = write!(out, "plot ");
    for (path, label) in files {
        if !first {
            let _ = write!(out, ", \\\n     ");
        }
        let _ = write!(out, "'{path}' using 1:2 with linespoints title '{label}'");
        first = false;
    }
    let _ = writeln!(out);
    out
}

/// Write a set of curves as `.dat` files plus a `plot.gp` script into
/// `dir`. Returns the script path.
pub fn write_figure(
    dir: &Path,
    figure_name: &str,
    title: &str,
    curves: &[Curve],
) -> io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::new();
    for (i, c) in curves.iter().enumerate() {
        let fname = format!("{figure_name}_{i}.dat");
        std::fs::write(dir.join(&fname), curve_to_dat(c))?;
        files.push((fname, c.label.clone()));
    }
    let script = gnuplot_script(title, &format!("{figure_name}.png"), &files);
    let script_path = dir.join(format!("{figure_name}.gp"));
    std::fs::write(&script_path, script)?;
    Ok(script_path)
}

/// Render a [`TimeSeries`] as a whitespace-separated data table: first
/// column is the sample's starting cycle, then one column per series.
/// Ragged series are padded with `nan` (gnuplot skips those points).
pub(crate) fn time_series_to_dat(ts: &TimeSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", ts.label);
    let _ = write!(out, "# cycle");
    for s in &ts.series {
        let _ = write!(out, "  {}", s.name.replace(char::is_whitespace, "_"));
    }
    let _ = writeln!(out);
    for i in 0..ts.samples() {
        let _ = write!(out, "{}", i as u64 * ts.interval_cycles);
        for s in &ts.series {
            match s.values.get(i) {
                Some(v) => {
                    let _ = write!(out, " {v:.6}");
                }
                None => {
                    let _ = write!(out, " nan");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// A gnuplot script plotting every column of a time-series `.dat` file
/// against the cycle column.
pub(crate) fn time_series_gnuplot_script(
    ts: &TimeSeries,
    dat_file: &str,
    output_png: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "set terminal pngcairo size 1100,600");
    let _ = writeln!(out, "set output '{output_png}'");
    let _ = writeln!(out, "set title '{}'", ts.label);
    let _ = writeln!(out, "set xlabel 'Cycle'");
    let _ = writeln!(out, "set ylabel 'Utilization'");
    let _ = writeln!(out, "set key outside right");
    let _ = writeln!(out, "set grid");
    let _ = write!(out, "plot ");
    for (i, s) in ts.series.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", \\\n     ");
        }
        let _ = write!(
            out,
            "'{dat_file}' using 1:{} with lines title '{}'",
            i + 2,
            s.name
        );
    }
    let _ = writeln!(out);
    out
}

/// Write a [`TimeSeries`] as `<name>.json` (machine-readable),
/// `<name>.dat` (gnuplot data) and `<name>.gp` (plot script) in `dir`.
/// Returns the JSON path.
pub fn write_time_series(
    dir: &Path,
    name: &str,
    ts: &TimeSeries,
) -> io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(ts).map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(&json_path, json)?;
    let dat_name = format!("{name}.dat");
    std::fs::write(dir.join(&dat_name), time_series_to_dat(ts))?;
    let script = time_series_gnuplot_script(ts, &dat_name, &format!("{name}.png"));
    std::fs::write(dir.join(format!("{name}.gp")), script)?;
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurvePoint;

    fn curve() -> Curve {
        let mut c = Curve::new("ITB-RR");
        c.push(CurvePoint {
            offered: 0.01,
            accepted: 0.0099,
            avg_latency_ns: 5000.0,
            p99_latency_ns: 9000.0,
            avg_total_latency_ns: 5500.0,
            avg_itbs_per_msg: 0.5,
            delivered: 1234,
        });
        c
    }

    #[test]
    fn dat_format() {
        let d = curve_to_dat(&curve());
        assert!(d.starts_with("# ITB-RR\n"));
        let data_line = d.lines().nth(2).unwrap();
        assert_eq!(
            data_line.split_whitespace().collect::<Vec<_>>(),
            vec!["0.009900", "5000.0", "9000.0", "0.010000", "0.5000"]
        );
    }

    #[test]
    fn script_plots_all_series() {
        let s = gnuplot_script(
            "Figure 7a",
            "fig7a.png",
            &[
                ("a.dat".into(), "UP/DOWN".into()),
                ("b.dat".into(), "ITB-RR".into()),
            ],
        );
        assert!(s.contains("set output 'fig7a.png'"));
        assert!(s.contains("'a.dat' using 1:2"));
        assert!(s.contains("title 'ITB-RR'"));
        assert_eq!(s.matches("linespoints").count(), 2);
    }

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("util over time", 1000);
        ts.push("S0->S1", vec![0.5, 0.25, 0.75]);
        ts.push("S1->S0", vec![0.1, 0.2]);
        ts
    }

    #[test]
    fn time_series_dat_pads_ragged_series() {
        let d = time_series_to_dat(&series());
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines[0], "# util over time");
        assert_eq!(lines[1], "# cycle  S0->S1  S1->S0");
        assert_eq!(lines[2], "0 0.500000 0.100000");
        assert_eq!(lines[3], "1000 0.250000 0.200000");
        assert_eq!(lines[4], "2000 0.750000 nan");
    }

    #[test]
    fn time_series_script_plots_each_column() {
        let ts = series();
        let s = time_series_gnuplot_script(&ts, "x.dat", "x.png");
        assert!(s.contains("'x.dat' using 1:2 with lines title 'S0->S1'"));
        assert!(s.contains("'x.dat' using 1:3 with lines title 'S1->S0'"));
    }

    #[test]
    fn write_time_series_creates_files() {
        let dir = std::env::temp_dir().join(format!("regnet-ts-{}", std::process::id()));
        let json = write_time_series(&dir, "ts_test", &series()).unwrap();
        assert!(json.exists());
        assert!(dir.join("ts_test.dat").exists());
        assert!(dir.join("ts_test.gp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_figure_creates_files() {
        let dir = std::env::temp_dir().join(format!("regnet-export-{}", std::process::id()));
        let script = write_figure(&dir, "fig_test", "T", &[curve(), curve()]).unwrap();
        assert!(script.exists());
        assert!(dir.join("fig_test_0.dat").exists());
        assert!(dir.join("fig_test_1.dat").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
