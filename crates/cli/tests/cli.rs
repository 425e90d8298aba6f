//! The `s2rdf` binary rejects options its subcommand does not accept.

use std::process::Command;

fn s2rdf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_s2rdf"))
        .args(args)
        .output()
        .expect("run s2rdf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_join_flags_are_rejected() {
    let store = std::env::temp_dir().join("s2rdf-cli-no-such-store");
    let store = store.to_str().unwrap();
    let query = "SELECT * WHERE { ?s ?p ?o }";
    for flag in [
        "--max-partitions",
        "--broadcast-threshold",
        "--target-partition-rows",
    ] {
        let (ok, stderr) = s2rdf(&["query", "--store", store, flag, "4", "--query", query]);
        assert!(!ok, "{flag} was accepted");
        assert_eq!(stderr.trim(), format!("error: unknown option {flag}"));
    }
    // The same command without the removed flag gets as far as the store.
    let (ok, stderr) = s2rdf(&["query", "--store", store, "--query", query]);
    assert!(!ok);
    assert!(!stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn stray_words_are_rejected() {
    let (ok, stderr) = s2rdf(&["stats", "--store", "db", "bogus"]);
    assert!(!ok);
    assert_eq!(stderr.trim(), "error: unexpected argument bogus");
}
