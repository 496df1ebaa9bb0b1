//! Documentation-sync checks: drop-reason codes and the home agent's
//! `reg/*` counters against `docs/telemetry.md`, and the experiment
//! roster in `EXPERIMENTS.md` against the actual binaries and the
//! sidecars they write.
//!
//! Drop reasons are stable, greppable tokens: the same `drop.{reason}`
//! string appears in trace lines, metric names, and flight-recorder hop
//! records. `docs/telemetry.md` is the registry of those codes, so every
//! code used anywhere in workspace source must appear there — a new drop
//! site without a doc row fails this test.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use mosquitonet_core::{DirectoryEntry, HomeAgent, HomeAgentConfig, ShardDirectory};
use mosquitonet_sim::MetricsRegistry;
use mosquitonet_stack::{IfaceId, Module};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Extracts `drop.{reason}` codes from source text. A code is `drop.`
/// followed by lowercase/digit/underscore/dot characters (trailing dots
/// trimmed). A match immediately followed by `(` is a method call on a
/// counter field (`stats.drop.inc()`), not a code, and a bare `drop.`
/// with nothing after it (e.g. the `drop.{reason}` placeholder in prose)
/// is ignored.
fn drop_codes(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("drop.") {
        let start = from + pos;
        let mut end = start + "drop.".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_'
                || bytes[end] == b'.')
        {
            end += 1;
        }
        let mut code = &text[start..end];
        while code.ends_with('.') {
            code = &code[..code.len() - 1];
        }
        if code.len() > "drop.".len() && bytes.get(end).copied() != Some(b'(') {
            out.insert(code.to_string());
        }
        from = end.max(start + 1);
    }
    out
}

#[test]
fn every_drop_code_in_source_is_documented_in_telemetry_md() {
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    assert!(files.len() > 10, "scanner must see the workspace sources");
    let mut codes = BTreeSet::new();
    for f in &files {
        codes.extend(drop_codes(
            &std::fs::read_to_string(f).expect("read source"),
        ));
    }
    // Scanner sanity: codes known to be in the tree must be found.
    for known in ["drop.no_route", "drop.ttl", "drop.medium_loss"] {
        assert!(codes.contains(known), "scanner failed to find {known}");
    }
    // And the method-call false positive must not be. (The code is
    // assembled at runtime so this test file does not plant it.)
    let method_call = format!("drop.{}", "inc");
    assert!(
        !codes.contains(&method_call),
        "scanner must skip counter method calls"
    );

    let doc = std::fs::read_to_string(root.join("docs/telemetry.md")).expect("docs/telemetry.md");
    let missing: Vec<&String> = codes.iter().filter(|c| !doc.contains(c.as_str())).collect();
    assert!(
        missing.is_empty(),
        "drop codes used in source but missing from docs/telemetry.md: \
         {missing:?} — every stable drop.{{reason}} code needs a row there"
    );
}

/// Every counter a home agent registers under `{host}/reg/` is named in
/// the HA part of `docs/telemetry.md`'s `{host}/reg/…` row. The agent is
/// keyed and fleet-configured, so the counters that register only on
/// such agents are listed too.
#[test]
fn every_home_agent_reg_counter_is_documented_in_telemetry_md() {
    let mut cfg = HomeAgentConfig::new(
        Ipv4Addr::new(36, 135, 0, 1),
        IfaceId(0),
        "36.135.0.0/24".parse().expect("cidr"),
    );
    cfg.auth_keys = HashMap::from([(Ipv4Addr::new(36, 135, 0, 9), (0x100, 7))]);
    cfg.require_auth = true;
    let shard = DirectoryEntry {
        shard: 0,
        active: Ipv4Addr::new(36, 135, 0, 1),
        standby: Ipv4Addr::new(36, 135, 0, 3),
    };
    cfg.fleet = Some((0, ShardDirectory::new(1, [shard])));
    let registry = MetricsRegistry::new();
    HomeAgent::new(cfg).register_metrics(&registry.scope("ha"));
    let counters: Vec<String> = registry
        .names()
        .into_iter()
        .filter_map(|path| path.strip_prefix("ha/reg/").map(str::to_string))
        .collect();
    // Scanner sanity: an always-registered counter and each conditional one.
    for known in ["processed", "auth_fail", "wrong_shard"] {
        assert!(
            counters.iter().any(|c| c == known),
            "the agent did not register reg/{known}: {counters:?}"
        );
    }

    let doc = std::fs::read_to_string(workspace_root().join("docs/telemetry.md"))
        .expect("docs/telemetry.md");
    let row = doc
        .lines()
        .find(|l| l.starts_with("| `{host}/reg/…`"))
        .expect("telemetry.md has a {host}/reg/… row");
    let ha = row
        .split_once("HA:")
        .and_then(|(_, rest)| rest.split(';').next())
        .expect("the reg row has an HA part");
    let missing: Vec<&String> = counters
        .iter()
        .filter(|c| !ha.contains(&format!("`{c}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "home-agent counters registered under reg/ but missing from the HA part \
         of docs/telemetry.md's {{host}}/reg/… row: {missing:?}"
    );
}

/// Extracts the string literal of each `write_*_sidecar("name", ...)`
/// call in a binary's source.
fn sidecar_names(source: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for kind in ["metrics", "journeys", "bench"] {
        let call = format!("write_{kind}_sidecar(\"");
        let mut from = 0;
        while let Some(pos) = source[from..].find(&call) {
            let start = from + pos + call.len();
            let end = start
                + source[start..]
                    .find('"')
                    .expect("unterminated sidecar name");
            out.insert(source[start..end].to_string());
            from = end;
        }
    }
    out
}

/// `EXPERIMENTS.md` is the roster of reproduction artifacts. Two
/// directions must stay in sync with the code:
///
/// 1. every experiment binary under `crates/testbed/src/bin/` (bar the
///    `all_experiments` driver and the `inspect` debugging CLI) is named
///    in the document, and every sidecar it writes is mentioned there
///    too, so a reader can go from the doc to the artifact and back;
/// 2. every sidecar any standalone binary writes is also written by
///    `all_experiments`, so the documented "regenerate everything"
///    command really does produce the full artifact set.
#[test]
fn experiments_md_lists_every_binary_and_sidecar() {
    let root = workspace_root();
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let bin_dir = root.join("crates/testbed/src/bin");
    // The driver routes its writes through `(name, doc)` arrays rather
    // than literal `write_*_sidecar("…")` calls, so "does the driver
    // produce this sidecar" is checked as: the quoted name appears in
    // its source.
    let driver =
        std::fs::read_to_string(bin_dir.join("all_experiments.rs")).expect("all_experiments.rs");

    let mut bins = 0;
    for entry in std::fs::read_dir(&bin_dir).expect("read bin dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("bin name")
            .to_string();
        if name == "all_experiments" || name == "inspect" {
            continue;
        }
        bins += 1;
        assert!(
            doc.contains(&format!("`{name}`")),
            "binary {name} is not listed in EXPERIMENTS.md's artifact roster"
        );
        let source = std::fs::read_to_string(&path).expect("read bin source");
        for sidecar in sidecar_names(&source) {
            assert!(
                doc.contains(&format!("`{sidecar}`")),
                "binary {name} writes sidecar {sidecar:?} but EXPERIMENTS.md \
                 never mentions it"
            );
            assert!(
                driver.contains(&format!("\"{sidecar}\"")),
                "binary {name} writes sidecar {sidecar:?} but all_experiments \
                 does not — the documented regenerate-everything command \
                 would miss it"
            );
        }
    }
    assert!(bins >= 16, "scanner must see the experiment binaries");
}
