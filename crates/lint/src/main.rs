//! CLI for the `ve-lint` gate. Exit status 0 = clean; 1 = findings or a
//! stale baseline; 2 = usage/environment error.

use std::path::PathBuf;
use std::process::ExitCode;

use ve_lint::{
    analyze, find_workspace_root, load_workspace, parse_baseline, render_baseline,
    unsuppressed_findings, RULE_MALFORMED_SUPPRESSION,
};

const USAGE: &str = "\
ve-lint: determinism & concurrency static-analysis gate

USAGE:
    ve-lint [--root PATH] [--baseline PATH] [--json] [--write-baseline]

OPTIONS:
    --root PATH        workspace root (default: walk up from cwd to [workspace])
    --baseline PATH    baseline file (default: <root>/ve-lint.baseline)
    --json             machine-readable report on stdout
    --write-baseline   regenerate the baseline from current unsuppressed
                       findings (malformed suppressions are never baselined)
    --help             this text
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut json = false;
    let mut write_baseline = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--write-baseline" => write_baseline = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline needs a path"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ve-lint: no [workspace] Cargo.toml found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("ve-lint.baseline"));

    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("ve-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        let findings: Vec<_> = unsuppressed_findings(&ws)
            .into_iter()
            // A broken annotation must be fixed, not grandfathered.
            .filter(|f| f.rule != RULE_MALFORMED_SUPPRESSION)
            .collect();
        let text = render_baseline(&findings);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("ve-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "ve-lint: wrote {} entr{} to {}",
            findings.len(),
            if findings.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if baseline_path.is_file() {
        match std::fs::read_to_string(&baseline_path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("ve-lint: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("ve-lint: cannot read {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Vec::new()
    };

    let report = analyze(&ws, &baseline);
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ve-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
