//! CLI for mgk-analyze.
//!
//! ```text
//! cargo run -p mgk-analyze -- [--root DIR]
//! ```
//!
//! Exit code 0 when the tree is clean (no findings), 1 otherwise, 2 on I/O
//! or usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mgk_analyze::{find_workspace_root, run, Config};

const USAGE: &str = "USAGE: mgk-analyze [--root DIR]";

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage("--root requires a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "mgk-analyze: workspace concurrency lints\n\n{USAGE}\n\n\
                     Codes: MGK101 lock-order cycle, MGK201/202 condvar discipline,\n\
                     MGK402 panicking call in a Drop impl, MGK403 unguarded kernel indexing."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root_arg {
        Some(dir) => dir,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!("mgk-analyze: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match run(&Config::for_root(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mgk-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{}", d.render());
    }
    eprintln!(
        "mgk-analyze: {} files, {} lock-order edges, {} findings",
        report.files_scanned,
        report.lock_edges.len(),
        report.diagnostics.len(),
    );

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mgk-analyze: {msg}\n{USAGE}");
    ExitCode::from(2)
}
