//! Where a result came from: commit, host parallelism, build profile and
//! compiler, plus a digest of the sources measured (a checkout exported
//! without `.git` has no commit to name).

use serde::Value;
use std::path::Path;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let Ok(kind) = e.file_type() else { continue };
        if kind.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else if p
            .extension()
            .is_some_and(|x| x == "rs" || x == "toml" || x == "json")
        {
            out.push(p);
        }
    }
}

/// FNV-1a over the path and bytes of every `.rs`/`.toml`/`.json` file
/// under `crates/` and `runbench/`, in sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    collect(Path::new("runbench"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        h = fnv1a(h, f.to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x} ({} files)", files.len())
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git rev-parse failed)".into())
}

pub fn record() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("git_commit".into(), Value::Str(git_commit())),
        ("source_digest".into(), Value::Str(source_digest())),
        ("available_parallelism".into(), Value::U64(cores as u64)),
        (
            "build_profile".into(),
            Value::Str(env!("RUNBENCH_PROFILE").into()),
        ),
        ("rustc".into(), Value::Str(env!("RUNBENCH_RUSTC").into())),
    ])
}
