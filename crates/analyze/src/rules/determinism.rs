//! Rule `nondeterministic-iter`: in byte-identity-critical modules, any
//! iteration over a `HashMap`/`HashSet` is flagged unless it is an
//! order-insensitive reduction, the results are sorted/merged in a declared
//! order within the same statement, or the line carries a justified
//! `// analyze: allow(nondeterministic-iter) — <why>` comment.
//!
//! Being a token-level pass with no type inference, the rule tracks which
//! identifiers are hash-typed three ways: type-alias declarations whose
//! right side mentions a hash type, `name: Type` annotations (lets, fields,
//! parameters), and `let name = <expr mentioning a hash type>` initializers.
//! That resolves every iteration site in this workspace; exotic flows (a
//! `HashMap` returned by a helper and iterated inline) are out of reach,
//! which is why the byte-identity runtime oracles stay in `make verify`
//! alongside this pass.

use super::{push_unless_allowed, Finding, RuleConfig, KEYWORDS};
use crate::lexer::TokKind;
use crate::model::{in_scope, SourceFile};
use std::collections::BTreeSet;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iterator-producing methods whose order follows the hash map's internal
/// bucket order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values",
    "drain",
];

/// Order-insensitive consumers: a hash iteration reduced by one of these in
/// the same statement cannot leak iteration order into the result.
const REDUCTIONS: &[&str] = &["all", "any", "count", "len", "min", "max", "sum", "contains"];

/// Ordered containers: collecting into one re-establishes a declared order.
const ORDERED_SINKS: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];

/// Run the rule over one file.
pub fn check(file: &SourceFile, config: &RuleConfig, findings: &mut Vec<Finding>) {
    if !config.determinism_scope.iter().any(|p| in_scope(&file.module, p)) {
        return;
    }
    let hash_names = collect_hash_names(file);
    check_for_loops(file, &hash_names, findings);
    check_iter_methods(file, &hash_names, findings);
}

/// Identifiers (and type aliases) known to denote hash containers.
fn collect_hash_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.toks;
    let mut hash_types: BTreeSet<String> = HASH_TYPES.iter().map(|s| s.to_string()).collect();
    // Type aliases, to a fixpoint (aliases of aliases).
    loop {
        let mut grew = false;
        for i in 0..toks.len() {
            if toks[i].text == "type"
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(i + 2).is_some_and(|t| t.text == "=")
            {
                let name = &toks[i + 1].text;
                let mentions_hash = toks[i + 3..]
                    .iter()
                    .take_while(|t| t.text != ";")
                    .any(|t| hash_types.contains(&t.text));
                if mentions_hash && hash_types.insert(name.clone()) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        // `name: <type window mentioning a hash type>` — lets, struct
        // fields, parameters, struct-literal fields.
        if toks[i].kind == TokKind::Ident
            && !KEYWORDS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.text == ":")
            && type_window_mentions(toks, i + 2, &hash_types, true)
        {
            names.insert(toks[i].text.clone());
        }
        // `let [mut] name = <rhs mentioning a hash type>;`
        if toks[i].text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.text == "=")
                && type_window_mentions(toks, j + 2, &hash_types, false)
            {
                names.insert(toks[j].text.clone());
            }
        }
    }
    names.extend(hash_types);
    names
}

/// Does the token window starting at `start` mention one of `hash_types`?
///
/// An initializer's window is the rest of its statement. An annotation's
/// window (`annotation`) is its type alone: it also ends at a `,` or `=`
/// outside any `<>`, `()` or `[]` nesting, so a struct field or parameter
/// never inherits the type of the one declared after it.
fn type_window_mentions(
    toks: &[crate::lexer::Tok],
    start: usize,
    hash_types: &BTreeSet<String>,
    annotation: bool,
) -> bool {
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start).take(80) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            ";" if depth == 0 => return false,
            "<" if annotation => angle += 1,
            // The `>` of a `->` closes nothing.
            ">" if annotation && angle > 0 && toks[k - 1].text != "-" => angle -= 1,
            "," | "=" if annotation && depth == 0 && angle == 0 => return false,
            _ if hash_types.contains(&t.text) => return true,
            _ => {}
        }
    }
    false
}

/// `for pat in <expr naming a hash container> {` — always order-sensitive
/// in a byte-identity module; only a justified allow rescues it.
fn check_for_loops(file: &SourceFile, hash_names: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if toks[i].text != "for" || file.in_test_code(i) {
            continue;
        }
        // Find `in` at depth 0 before the loop body's `{` — its absence
        // means this `for` is an `impl Trait for Type` or HRTB.
        let mut depth = 0i32;
        let mut in_pos = None;
        for (off, t) in toks.iter().enumerate().skip(i + 1).take(60) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                "in" if depth == 0 => {
                    in_pos = Some(off);
                    break;
                }
                _ => {}
            }
        }
        let Some(in_pos) = in_pos else { continue };
        let mut depth = 0i32;
        for t in toks.iter().skip(in_pos + 1).take(60) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                name if hash_names.contains(name) => {
                    push_unless_allowed(
                        file,
                        toks[i].line,
                        "nondeterministic-iter",
                        format!(
                            "`for` loop iterates hash container `{name}` in a \
                             byte-identity-critical module; iterate a sorted/ordered \
                             collection instead, or justify with \
                             `// analyze: allow(nondeterministic-iter) — <why>`"
                        ),
                        findings,
                    );
                    break;
                }
                _ => {}
            }
        }
    }
}

/// `<hash receiver>.iter()`-family calls, unless reduced order-insensitively
/// or re-ordered into an ordered sink within the same statement.
fn check_iter_methods(
    file: &SourceFile,
    hash_names: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if !ITER_METHODS.contains(&toks[i].text.as_str())
            || toks.get(i.wrapping_sub(1)).map(|t| t.text.as_str()) != Some(".")
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            || file.in_test_code(i)
        {
            continue;
        }
        let Some(receiver) = receiver_name(toks, i - 1) else { continue };
        if !hash_names.contains(&receiver) {
            continue;
        }
        if statement_restores_order(toks, i) {
            continue;
        }
        push_unless_allowed(
            file,
            toks[i].line,
            "nondeterministic-iter",
            format!(
                "`{receiver}.{}()` iterates a hash container in a byte-identity-critical \
                 module without restoring a declared order; sort/collect into an ordered \
                 container, reduce order-insensitively, or justify with \
                 `// analyze: allow(nondeterministic-iter) — <why>`",
                toks[i].text
            ),
            findings,
        );
    }
}

/// Walk a `self.a.b` / `a::b.c` chain leftwards from the `.` at `dot` and
/// return the field/variable the chain names (`None` when the receiver is
/// a call result the lexical pass cannot type).
fn receiver_name(toks: &[crate::lexer::Tok], dot: usize) -> Option<String> {
    let mut j = dot;
    let mut last_ident: Option<String> = None;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        match t.kind {
            TokKind::Ident if !KEYWORDS.contains(&t.text.as_str()) => {
                if last_ident.is_none() {
                    last_ident = Some(t.text.clone());
                }
            }
            TokKind::Punct if t.text == "." || t.text == "::" || t.text == "&" => continue,
            _ => break,
        }
    }
    last_ident
}

/// Does the rest of the statement sort, collect into an ordered container,
/// or reduce order-insensitively?
fn statement_restores_order(toks: &[crate::lexer::Tok], from: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(from).take(100) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            ";" if depth == 0 => return false,
            name if name.starts_with("sort") => return true,
            name if ORDERED_SINKS.contains(&name) || REDUCTIONS.contains(&name) => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "m".into(), "c".into(), src)
    }

    const FIELDS: &str = "struct S<'a> {\n\
                          \x20   index: &'a Vec<u32>,\n\
                          \x20   cb: fn(u32) -> u32,\n\
                          \x20   memo: HashMap<u32, Vec<u32>>,\n\
                          }\n";

    #[test]
    fn annotations_end_at_the_next_field_or_parameter() {
        let src = format!("{FIELDS}fn f(order: Vec<u32>, seen: HashSet<u32>) {{}}\n");
        let names = collect_hash_names(&file(&src));
        for plain in ["index", "cb", "order"] {
            assert!(!names.contains(plain), "{plain} is not hash-typed: {names:?}");
        }
        for hashed in ["memo", "seen"] {
            assert!(names.contains(hashed), "{hashed} is hash-typed: {names:?}");
        }
    }

    #[test]
    fn a_loop_over_a_vec_field_declared_above_a_hash_field_is_not_flagged() {
        let src = format!(
            "{FIELDS}impl S<'_> {{\n\
             \x20   fn walk(&self) {{\n\
             \x20       for &n in self.index.iter() {{}}\n\
             \x20       for (k, v) in &self.memo {{}}\n\
             \x20   }}\n\
             }}\n"
        );
        let config = RuleConfig {
            determinism_scope: vec!["m".into()],
            ..RuleConfig::default()
        };
        let mut findings = Vec::new();
        check(&file(&src), &config, &mut findings);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![9], "only the hash-map loop is flagged: {findings:?}");
    }
}
