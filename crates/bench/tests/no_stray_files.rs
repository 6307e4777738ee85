//! `repro` writes only the files it is told to write.
//!
//! Each command here runs in a fresh, empty working directory with no
//! output-path flags; the directory must still be empty afterwards.
//! Reports go to stdout and timings to stderr, never to a default file
//! that could clobber a committed one.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn fresh_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spp-no-stray-files-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

#[test]
fn repro_leaves_its_working_directory_empty() {
    for (name, words) in [
        ("profile", vec!["profile", "LL", "logpsf", "--scale", "400"]),
        ("kv", vec!["kv", "--scale", "400"]),
        ("optimize", vec!["optimize", "LL", "logp", "--scale", "400"]),
        ("all", vec!["all", "--scale", "5000"]),
    ] {
        let dir = fresh_dir(name);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&words)
            .args(["--seed", "1", "--jobs", "2"])
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "{words:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "{words:?} wrote {left:?}");
        std::fs::remove_dir(&dir).unwrap();
    }
}
