//! Pins the live workspace lint-clean. This is the same check CI runs as
//! `cargo run -p astdme_lint -- --expect-clean`, wired into `cargo test`
//! so a violation fails fast locally too — with the offending
//! `file:line: [rule]` lines in the panic message. It also reads the
//! `--json` rendering back, so the machine-readable `clean` field stays
//! covered.

use std::path::Path;

#[test]
fn live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected workspace root at {}",
        root.display()
    );
    let report = astdme_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "walk looks truncated: only {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
    let json = report.to_json();
    let doc = astdme_json::parse(&json).expect("the report renders valid JSON");
    assert_eq!(
        doc.get("clean").and_then(astdme_json::Value::as_bool),
        Some(true),
        "the JSON report must read `\"clean\": true` on a clean workspace:\n{json}"
    );
}
