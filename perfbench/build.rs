//! Stamp the compiler version and git revision into the binary for the
//! provenance line.

use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    let rev = stdout_of(Command::new("git").args(["rev-parse", "HEAD"]));
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("unknown")
    );
    // restamp when HEAD moves; outside a git checkout there is nothing
    // to watch
    if let Some(dir) = stdout_of(Command::new("git").args(["rev-parse", "--absolute-git-dir"])) {
        println!("cargo:rerun-if-changed={dir}/HEAD");
        println!("cargo:rerun-if-changed={dir}/logs/HEAD");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
