//! Workspace discovery and the per-file source model the rules consume.
//!
//! `ve-lint` is workspace-aware: it parses the root `Cargo.toml` member list
//! (with a purpose-built reader — no TOML crate in this environment), maps
//! each member to its package name, and lexes every `src/**/*.rs` file.
//!
//! Scope decisions, documented here because they are policy:
//!
//! * **Only `src/` is scanned.** The determinism and concurrency contracts
//!   bind shipped library code; `tests/`, `benches/`, and `examples/`
//!   deliberately panic, spawn threads, and measure wall-clock time.
//! * **`#[cfg(test)]` / `#[test]` items inside `src/` are excluded** for the
//!   same reason (computed per-file as a set of test-only lines).
//! * **`crates/compat/*` members are skipped entirely**: they are offline
//!   stand-ins for external crates (`rand`, `parking_lot`, …) and carry the
//!   external API's idioms, not this repository's contracts.

use crate::lexer::{lex, Token};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One lexed source file, with everything the rules need precomputed.
pub struct SourceFile {
    /// Package name of the crate the file belongs to (e.g. `ve-al`).
    pub crate_name: String,
    /// Path relative to the workspace root (e.g. `crates/al/src/lib.rs`),
    /// always with `/` separators so reports and baselines are portable.
    pub rel_path: String,
    /// Raw source lines (1-based access via `line_text`).
    pub lines: Vec<String>,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order. Rules
    /// pattern-match over this view so comments never split a pattern.
    pub code: Vec<usize>,
    /// Lines that belong to `#[cfg(test)]` / `#[test]` items.
    pub test_lines: BTreeSet<u32>,
}

impl SourceFile {
    /// Builds a source file model from raw text (the entry point both for
    /// real files and for the fixture tests).
    pub fn from_source(crate_name: &str, rel_path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut file = Self {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            tokens,
            code,
            test_lines: BTreeSet::new(),
        };
        file.test_lines = file.compute_test_lines();
        file
    }

    /// The trimmed text of a 1-based line (empty for out-of-range lines).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// The code token (comments skipped) at code-index `ci`.
    pub fn ct(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// Whether the 1-based line is inside a test-only item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Finds the code-index of the matching closing delimiter for the opener
    /// at code-index `open` (`(`/`)`, `[`/`]`, `{`/`}`). Returns the last
    /// token on unbalanced input rather than panicking.
    pub fn matching_close(&self, open: usize) -> usize {
        let (o, c) = match self.ct(open).map(|t| t.text.as_str()) {
            Some("(") => ('(', ')'),
            Some("[") => ('[', ']'),
            Some("{") => ('{', '}'),
            _ => return open,
        };
        let mut depth = 0i64;
        let mut ci = open;
        while let Some(t) = self.ct(ci) {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return ci;
                }
            }
            ci += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Marks the line spans of `#[cfg(test)]`-gated and `#[test]` items.
    fn compute_test_lines(&self) -> BTreeSet<u32> {
        let mut lines = BTreeSet::new();
        let mut ci = 0usize;
        while ci + 1 < self.code.len() {
            let is_attr = self.ct(ci).is_some_and(|t| t.is_punct('#'))
                && self.ct(ci + 1).is_some_and(|t| t.is_punct('['));
            if !is_attr {
                ci += 1;
                continue;
            }
            let close = self.matching_close(ci + 1);
            let body: Vec<&Token> = (ci + 2..close).filter_map(|j| self.ct(j)).collect();
            let is_test_attr = match body.first() {
                Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
                Some(t) if t.is_ident("test") && body.len() == 1 => true,
                _ => false,
            };
            if !is_test_attr {
                ci = close + 1;
                continue;
            }
            // Skip any further stacked attributes, then consume the item:
            // to the matching `}` of its first brace, or to `;` if the item
            // has no body (e.g. a gated `use`).
            let mut j = close + 1;
            while self.ct(j).is_some_and(|t| t.is_punct('#'))
                && self.ct(j + 1).is_some_and(|t| t.is_punct('['))
            {
                j = self.matching_close(j + 1) + 1;
            }
            let mut end = j;
            while let Some(t) = self.ct(end) {
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('{') {
                    end = self.matching_close(end);
                    break;
                }
                end += 1;
            }
            let start_line = self.ct(ci).map(|t| t.line).unwrap_or(1);
            let end_line = self
                .ct(end.min(self.code.len().saturating_sub(1)))
                .map(|t| t.line)
                .unwrap_or(start_line);
            for l in start_line..=end_line {
                lines.insert(l);
            }
            ci = end + 1;
        }
        lines
    }
}

/// The lexed workspace: every in-scope source file.
pub struct WorkspaceModel {
    pub files: Vec<SourceFile>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Extracts the entries of the `key = [ … ]` string array (`members`,
/// `default-members`) from the root manifest. The key must match a line's
/// whole key, so `members` never picks up `default-members`.
fn parse_members(manifest: &str, key: &str) -> Vec<String> {
    let mut offset = 0;
    let start = manifest.split_inclusive('\n').find_map(|line| {
        let at = offset;
        offset += line.len();
        let rest = line.trim_start().strip_prefix(key)?;
        rest.trim_start().starts_with('=').then_some(at)
    });
    let Some(start) = start else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[').map(|i| start + i) else {
        return Vec::new();
    };
    let Some(close) = manifest[open..].find(']').map(|i| open + i) else {
        return Vec::new();
    };
    manifest[open + 1..close]
        .split(',')
        .filter_map(|entry| {
            let entry = entry.trim();
            let unquoted = entry.strip_prefix('"')?.strip_suffix('"')?;
            Some(unquoted.to_string())
        })
        .collect()
}

/// Reads `name = "…"` from the `[package]` section of a crate manifest.
fn parse_package_name(manifest: &str) -> Option<String> {
    let pkg = manifest.find("[package]")?;
    for line in manifest[pkg..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with('[') && !line.starts_with("[package") {
            break;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Some(v.to_string());
            }
        }
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Discovers and lexes the workspace rooted at `root`.
pub fn load_workspace(root: &Path) -> Result<WorkspaceModel, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut files = Vec::new();
    // The root package (workspace manifest doubles as a package manifest).
    let mut crate_dirs: Vec<(String, PathBuf)> = Vec::new();
    if let Some(name) = parse_package_name(&manifest) {
        crate_dirs.push((name, root.to_path_buf()));
    }
    for member in parse_members(&manifest, "members") {
        // Offline stand-ins for external crates carry external idioms, not
        // this repository's contracts.
        if member.starts_with("crates/compat/") {
            continue;
        }
        let dir = root.join(&member);
        let member_manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&member_manifest) else {
            continue;
        };
        let Some(name) = parse_package_name(&text) else {
            continue;
        };
        crate_dirs.push((name, dir));
    }
    for (name, dir) in crate_dirs {
        let src = dir.join("src");
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths);
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::from_source(&name, &rel, &text));
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(WorkspaceModel { files })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_from_manifest_snippet() {
        let manifest = r#"
[workspace]
members = [
    "crates/stats",
    "crates/compat/rand",
]
[package]
name = "root-pkg"
"#;
        assert_eq!(
            parse_members(manifest, "members"),
            vec!["crates/stats".to_string(), "crates/compat/rand".to_string()]
        );
        assert_eq!(parse_package_name(manifest).as_deref(), Some("root-pkg"));

        // `default-members` listed first must not be read as `members`.
        let reordered = r#"
[workspace]
default-members = [".", "crates/stats"]
members = ["crates/stats", "crates/ml"]
"#;
        assert_eq!(
            parse_members(reordered, "members"),
            vec!["crates/stats".to_string(), "crates/ml".to_string()]
        );
        assert_eq!(
            parse_members(reordered, "default-members"),
            vec![".".to_string(), "crates/stats".to_string()]
        );
    }

    /// The tier-1 command (`cargo test` at the root) runs `default-members`,
    /// so that list must name every workspace member plus the root package.
    #[test]
    fn default_members_cover_every_member() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let mut expected = parse_members(&manifest, "members");
        assert!(!expected.is_empty(), "root manifest lists no members");
        expected.push(".".to_string());
        expected.sort();
        let mut defaults = parse_members(&manifest, "default-members");
        defaults.sort();
        assert_eq!(
            defaults, expected,
            "default-members must equal members plus \".\""
        );
    }

    #[test]
    fn cfg_test_items_are_marked_as_test_lines() {
        let src = "fn live() { x(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y(); }\n}\nfn also_live() {}\n";
        let f = SourceFile::from_source("c", "f.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attr_with_stacked_attributes() {
        let src = "#[test]\n#[allow(dead_code)]\nfn t() {\n    boom();\n}\nfn live() {}\n";
        let f = SourceFile::from_source("c", "f.rs", src);
        for l in 1..=5 {
            assert!(f.is_test_line(l), "line {l}");
        }
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_all_test_is_recognized() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn t() { boom() }\nfn live() {}\n";
        let f = SourceFile::from_source("c", "f.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn matching_close_is_total_on_unbalanced_input() {
        let f = SourceFile::from_source("c", "f.rs", "fn f( {");
        // Does not panic; returns the last token index.
        let _ = f.matching_close(2);
    }
}
