//! Which program a result measured. The benchmark may run in a checkout
//! that is not a git repository, so every result carries a digest of the
//! program's sources, and the git revision when one is available.

use std::path::Path;
use std::process::Command;

/// The git revision of the working directory, or `"unknown"`.
pub fn rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of every source file of the program
/// (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`, `vendor/`), in sorted
/// order, skipping build output.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(Path::new(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<String>) {
    if path.is_file() {
        out.push(path.display().to_string());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}
