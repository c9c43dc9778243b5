//! Regenerates the paper's evaluation: one subcommand per figure and table
//! (`fig07` … `fig12`, `table1` … `table3`), the route statistics of
//! section 4.7.1 (`routes`), the message-size check of section 4.2
//! (`msgsize`), the irregular-network extension (`irregular`), the
//! DESIGN.md §14 ablations (`ablation`) and the fault sweep (`faults`,
//! `--smoke` for CI). `all` runs every one of them and also saves what
//! they print as `target/experiments/report.txt`.
//!
//! Quick mode (the default) takes seconds to a minute per subcommand in a
//! release build; `--full` is paper-fidelity. Load ladders and the fault
//! sweep fan their cells across `REGNET_THREADS` workers (default: every
//! core) and publish `target/experiments/status.json` as cells land.

use regnet_bench::{paper_usage, parse_paper_args, Output};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_paper_args(&args).unwrap_or_else(|e| {
        eprintln!("paper: {e}\n{}", paper_usage());
        std::process::exit(2);
    });
    let mut out = Output::default();
    for figure in parsed.figures() {
        (figure.run)(&parsed.request(figure), &mut out);
    }
    if parsed.figure.is_none() {
        let path = "target/experiments/report.txt";
        std::fs::create_dir_all("target/experiments")
            .and_then(|()| std::fs::write(path, &out.report))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n[report saved to {path}]");
    }
}
