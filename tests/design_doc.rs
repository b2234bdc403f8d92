//! `DESIGN.md` stays true to the code:
//!
//! - every `DESIGN.md §N` citation under `crates/`, `src/` and `tests/`
//!   (golden text included) names a `§N` heading of `DESIGN.md`;
//! - §4 lists exactly the ids of `experiments::catalog()`;
//! - every `pub fn` of the nine physics crates and the four
//!   infrastructure libraries (`cnt-obs`, `cnt-sweep`, `cnt-fleet`,
//!   `cnt-serve`) is named by production code outside its own file, or by
//!   the §2 layer map.
//!
//! Production code is code outside `#[cfg(test)]` in `crates/*/src`,
//! `src/`, `examples/` and `perfbench/probe/src`. Comments (doc examples
//! included), string literals and `use` items (imports and `pub use`
//! re-exports) never count as a caller: naming a function there does not
//! call it. Names are matched as whole words, so a function that shares
//! its name with something production code names passes: the check
//! catches functions no production code names at all. Shared names take a
//! compiler pass in a scratch copy: make each `pub fn` `pub(crate)`, build
//! the lib, bin and example targets and the probe, and restore what fails.

use cnt_beol::interconnect::experiments;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The nine physics crates, then the four infrastructure libraries
/// (`crates/<dir>`).
const CHECKED_CRATES: [&str; 13] = [
    "units",
    "atomistic",
    "fields",
    "circuit",
    "process",
    "thermal",
    "reliability",
    "measure",
    "core",
    "obs",
    "sweep",
    "fleet",
    "serve",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md exists at the repository root")
}

/// Every file under `dir`, skipping build output.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut all = Vec::new();
    files_under(dir, &mut all);
    all.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    all
}

/// `(level, N)` of a `## §N Title` heading line.
fn heading(line: &str) -> Option<(usize, u32)> {
    let level = line.chars().take_while(|&c| c == '#').count();
    let rest = line[level..].trim_start().strip_prefix('§')?;
    Some((level, section_number(rest)?)).filter(|_| level > 0)
}

fn section_number(s: &str) -> Option<u32> {
    let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The text of section `§n`: from its heading to the next heading of the
/// same or a higher level.
fn section(design: &str, n: u32) -> String {
    let mut lines = design.lines();
    let level = lines
        .by_ref()
        .find_map(|l| heading(l).filter(|&(_, m)| m == n))
        .unwrap_or_else(|| panic!("DESIGN.md has no §{n} heading"))
        .0;
    lines
        .take_while(|l| {
            let hashes = l.chars().take_while(|&c| c == '#').count();
            hashes == 0 || hashes > level
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn every_design_citation_names_a_heading() {
    let known: BTreeSet<u32> = design().lines().filter_map(heading).map(|h| h.1).collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        files_under(&root().join(dir), &mut files);
    }
    let mut cited = 0;
    let mut dangling = Vec::new();
    for path in files {
        let text = String::from_utf8_lossy(&fs::read(&path).expect("readable file")).into_owned();
        for (at, _) in text.match_indices("DESIGN.md §") {
            let Some(n) = section_number(&text[at + "DESIGN.md §".len()..]) else {
                continue;
            };
            cited += 1;
            if !known.contains(&n) {
                dangling.push(format!("{}: DESIGN.md §{n}", path.display()));
            }
        }
    }
    assert!(
        cited > 0,
        "no DESIGN.md citation found: is the walk rooted right?"
    );
    assert!(
        dangling.is_empty(),
        "citations of missing DESIGN.md sections (headings: {known:?}):\n{}",
        dangling.join("\n")
    );
}

#[test]
fn experiment_index_lists_exactly_the_registry_ids() {
    let index = section(&design(), 4);
    let listed: Vec<&str> = index
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    let unique: BTreeSet<&str> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "an id appears twice in §4");
    let registry: BTreeSet<&str> = experiments::catalog().collect();
    assert_eq!(
        unique, registry,
        "DESIGN.md §4 against experiments::catalog()"
    );
}

/// Blanks comments and the contents of string and character literals, so
/// that neither braces nor names inside them count.
fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |k| i + k);
                blank(&mut out[i..end]);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (mut depth, mut j) = (1, i + 2);
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out[i..j]);
                i = j;
            }
            b'r' if (i == 0 || !ident(b[i - 1])) && raw_string_hashes(&b[i + 1..]).is_some() => {
                let hashes = raw_string_hashes(&b[i + 1..]).expect("checked by the guard");
                let body = i + 2 + hashes;
                let close = format!("\"{}", "#".repeat(hashes));
                let end = src[body..].find(&close).map_or(b.len(), |k| body + k);
                blank(&mut out[body..end]);
                i = (end + close.len()).min(b.len());
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out[i + 1..j.min(b.len())]);
                i = j + 1;
            }
            b'\'' => {
                // A char literal ('x', '\n', '\u{..}', '"'); anything else
                // is a lifetime or a label.
                let end = if b.get(i + 1) == Some(&b'\\') {
                    src.get(i + 3..)
                        .and_then(|rest| rest.find('\''))
                        .map(|k| i + 3 + k)
                } else {
                    let len = src[i + 1..].chars().next().map_or(0, char::len_utf8);
                    (b.get(i + 1 + len) == Some(&b'\'')).then_some(i + 1 + len)
                };
                match end {
                    Some(e) => {
                        blank(&mut out[i + 1..e]);
                        i = e + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 boundaries")
}

/// The number of `#`s of a raw string literal whose `r` precedes `rest`.
fn raw_string_hashes(rest: &[u8]) -> Option<usize> {
    let hashes = rest.iter().take_while(|&&c| c == b'#').count();
    (rest.get(hashes) == Some(&b'"')).then_some(hashes)
}

/// Blanks every `#[cfg(test)]` item of already-stripped source.
fn without_test_items(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    for (at, _) in code.match_indices("#[cfg(test)]") {
        let b = code.as_bytes();
        let body = code[at..].find(['{', ';']).map(|k| at + k);
        let end = match body {
            Some(k) if b[k] == b'{' => {
                let mut depth = 0usize;
                let mut j = k;
                loop {
                    match b.get(j) {
                        Some(b'{') => depth += 1,
                        Some(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break j + 1;
                            }
                        }
                        None => break b.len(),
                        _ => {}
                    }
                    j += 1;
                }
            }
            Some(k) => k + 1,
            None => b.len(),
        };
        blank(&mut out[at..end]);
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 boundaries")
}

/// Blanks every `use` item (an import or a `pub use` re-export) of
/// already-stripped source: naming a function there does not call it.
fn without_use_items(code: &str) -> String {
    let b = code.as_bytes();
    let mut out = b.to_vec();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    for (at, _) in code.match_indices("use") {
        let word_start = at == 0 || !ident(b[at - 1]);
        let word_end = b.get(at + 3).is_none_or(|&c| !ident(c));
        if word_start && word_end {
            let end = code[at..].find(';').map_or(b.len(), |k| at + k + 1);
            blank(&mut out[at..end]);
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 boundaries")
}

/// Overwrites with spaces, keeping newlines so line numbers hold.
fn blank(bytes: &mut [u8]) {
    for c in bytes {
        if *c != b'\n' {
            *c = b' ';
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `(name, line)` of every `pub fn` and `pub const fn` in production code.
fn pub_fns(code: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for marker in ["pub fn ", "pub const fn "] {
        for (at, _) in code.match_indices(marker) {
            if at > 0 && code.as_bytes()[at - 1].is_ascii_alphanumeric() {
                continue;
            }
            let name: String = code[at + marker.len()..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect();
            // Macro-generated items (`pub fn $ctor`) have no name here.
            if !name.is_empty() {
                out.push((name, code[..at].matches('\n').count() + 1));
            }
        }
    }
    out
}

#[test]
fn every_physics_pub_fn_runs_in_production_or_is_in_the_layer_map() {
    let crates = root().join("crates");
    let mut production: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ is readable") {
        production.extend(rust_files_under(
            &entry.expect("readable entry").path().join("src"),
        ));
    }
    for dir in ["src", "examples", "perfbench/probe/src"] {
        production.extend(rust_files_under(&root().join(dir)));
    }
    let code: Vec<String> = production
        .iter()
        .map(|p| {
            let src = fs::read_to_string(p).expect("readable source");
            without_use_items(&without_test_items(&strip(&src)))
        })
        .collect();
    // Which files name each word.
    let mut named_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (i, text) in code.iter().enumerate() {
        for w in words(text) {
            named_in.entry(w).or_default().insert(i);
        }
    }
    let layer_map = section(&design(), 2);
    let mapped: HashSet<&str> = layer_map
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(words)
        .collect();

    let mut checked = 0;
    let mut orphans = Vec::new();
    for (i, path) in production.iter().enumerate() {
        let rel = path.strip_prefix(root()).expect("under the root");
        let mut parts = rel.iter().map(|s| s.to_str().expect("UTF-8 path"));
        let checked_crate = parts.next() == Some("crates")
            && parts.next().is_some_and(|c| CHECKED_CRATES.contains(&c))
            && parts.next() == Some("src");
        if !checked_crate {
            continue;
        }
        for (name, line) in pub_fns(&code[i]) {
            checked += 1;
            let elsewhere = named_in
                .get(name.as_str())
                .is_some_and(|files| files.iter().any(|&f| f != i));
            if !elsewhere && !mapped.contains(name.as_str()) {
                orphans.push(format!("{}:{line} `{name}`", rel.display()));
            }
        }
    }
    assert!(
        checked > 100,
        "found only {checked} pub fns: is the walk rooted right?"
    );
    assert!(
        orphans.is_empty(),
        "public functions no production code outside their file names; make each \
         private, delete it with its tests, or give it a line in DESIGN.md §2:\n{}",
        orphans.join("\n")
    );
}

#[test]
fn the_scanner_sees_through_comments_strings_and_test_modules() {
    let src = r##"
pub fn kept() {}
// pub fn in_comment() {}
/* pub fn in_block() { */
const S: &str = "pub fn in_string() {";
const R: &str = r#"pub fn in_raw() {"#;
const C: char = '{';
const Q: [char; 2] = ['\'', '"'];
fn lifetime<'a>(x: &'a str) -> &'a str { x }
#[cfg(test)]
mod tests {
    pub fn in_tests() { let _ = '}'; }
}
pub const fn after_tests() {}
"##;
    let code = without_test_items(&strip(src));
    let names: Vec<String> = pub_fns(&code).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["kept", "after_tests"]);
    assert!(code.contains("lifetime<'a>"));
}

#[test]
fn use_items_never_count_as_callers() {
    let src = r##"
use crate::a::imported;
pub use crate::b::reexported;
pub(crate) use crate::c::{
    braced_one,
    nested::{braced_two, Type},
};
fn caller() {
    use crate::d::local_import;
    called(reexported_not);
}
"##;
    let code = without_use_items(&without_test_items(&strip(src)));
    let named: BTreeSet<&str> = words(&code).collect();
    for gone in [
        "imported",
        "reexported",
        "braced_one",
        "braced_two",
        "local_import",
    ] {
        assert!(!named.contains(gone), "`{gone}` counted from a use item");
    }
    for kept in ["caller", "called", "reexported_not"] {
        assert!(named.contains(kept), "`{kept}` lost");
    }
}
