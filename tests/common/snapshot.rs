//! Golden-file comparison shared by the snapshot tests.
//!
//! Regenerate every snapshot after an intentional output change with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test
//! ```

use std::path::PathBuf;

/// Compares `actual` against `tests/snapshots/<file>`; rewrites the
/// snapshot instead when `UPDATE_SNAPSHOTS` is set.
pub fn assert_snapshot(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(file);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read snapshot {} ({e}); generate it with UPDATE_SNAPSHOTS=1 cargo test",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "output diverged from {}; if the change is intentional, \
         regenerate with UPDATE_SNAPSHOTS=1 cargo test",
        path.display()
    );
}
