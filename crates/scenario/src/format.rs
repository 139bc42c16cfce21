//! The raw scenario file format: `#` comments, `[section]` headers and
//! `key = value` entries, every entry tagged with its 1-based line number so
//! the typed layer (`crate::scenario`) can reject unknown or out-of-range
//! keys with a precise location.
//!
//! ```text
//! # a comment
//! [scenario]
//! name = bursty
//! seed = 42
//!
//! [sweep]
//! malleable_fraction = [0.0, 0.5, 1.0]
//! ```
//!
//! The format is deliberately tiny and dependency-free: no quoting, no
//! escapes, no nesting. Values are opaque strings here; lists use
//! `[a, b, c]` brackets and are split by the typed layer.

use std::fmt;

/// A parse (or validation) error pinned to a line of the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the scenario text.
    pub line: usize,
    pub msg: String,
}

impl ParseError {
    pub fn new(line: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line,
            msg: msg.into(),
        }
    }
}

/// The error for a key its section does not have; names the ones it has.
pub fn unknown_key(key: &str, section: &str, known: &[&str], line: usize) -> ParseError {
    let msg = format!("unknown key `{key}` in [{section}] ({})", known.join("|"));
    ParseError::new(line, msg)
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One `key = value` entry with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEntry {
    pub key: String,
    pub value: String,
    pub line: usize,
}

/// One `[section]` with its entries, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSection {
    pub name: String,
    pub line: usize,
    pub entries: Vec<RawEntry>,
}

impl RawSection {
    /// Looks up a key (sections are small; linear scan).
    pub fn get(&self, key: &str) -> Option<&RawEntry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A whole parsed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawDoc {
    pub sections: Vec<RawSection>,
}

impl RawDoc {
    pub fn section(&self, name: &str) -> Option<&RawSection> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// Parses the raw section/key-value structure. Duplicate sections and
/// duplicate keys within a section are errors (a scenario is a description,
/// not a script — last-wins semantics would hide typos).
pub(crate) fn parse_raw(text: &str) -> Result<RawDoc, ParseError> {
    parse_raw_with(text, false)
}

/// Like `parse_raw`, but optionally allowing a section name to repeat —
/// list-like documents (the `sd-validate` expectation files' `[claim]`
/// records) use repetition; scenario files stay strict.
pub fn parse_raw_with(text: &str, allow_repeated_sections: bool) -> Result<RawDoc, ParseError> {
    let mut doc = RawDoc::default();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ParseError::new(line_no, "unterminated section header"));
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(ParseError::new(line_no, "empty section name"));
            }
            if !allow_repeated_sections && doc.section(name).is_some() {
                return Err(ParseError::new(line_no, format!("duplicate section [{name}]")));
            }
            doc.sections.push(RawSection {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError::new(
                line_no,
                format!("expected `key = value` or `[section]`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() {
            return Err(ParseError::new(line_no, "empty key"));
        }
        let Some(section) = doc.sections.last_mut() else {
            return Err(ParseError::new(
                line_no,
                format!("`{key}` appears before any [section] header"),
            ));
        };
        if section.entries.iter().any(|e| e.key == key) {
            return Err(ParseError::new(
                line_no,
                format!("duplicate key `{key}` in [{}]", section.name),
            ));
        }
        section.entries.push(RawEntry {
            key: key.to_string(),
            value: value.to_string(),
            line: line_no,
        });
    }
    Ok(doc)
}

// ----- typed value helpers (shared by the scenario layer) -----

pub fn parse_f64(e: &RawEntry) -> Result<f64, ParseError> {
    e.value
        .parse()
        .map_err(|_| ParseError::new(e.line, format!("`{}`: not a number: {}", e.key, e.value)))
}

pub(crate) fn parse_int<T: std::str::FromStr>(e: &RawEntry) -> Result<T, ParseError> {
    e.value
        .parse()
        .map_err(|_| ParseError::new(e.line, format!("`{}`: not an integer: {}", e.key, e.value)))
}

/// Splits a `[a, b, c]` list value into trimmed item strings. `[]` is the
/// empty list; bare (bracketless) values are rejected — sweep axes are
/// always lists.
pub fn parse_list(e: &RawEntry) -> Result<Vec<String>, ParseError> {
    let v = e.value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            ParseError::new(e.line, format!("`{}`: expected a `[a, b, c]` list", e.key))
        })?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    Ok(inner.split(',').map(|s| s.trim().to_string()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_entries_comments() {
        let doc = parse_raw(
            "# header comment\n\n[scenario]\nname = x\nseed = 7\n\n[sweep]\nseed = [1, 2]\n",
        )
        .unwrap();
        assert_eq!(doc.sections.len(), 2);
        let sc = doc.section("scenario").unwrap();
        assert_eq!(sc.line, 3);
        assert_eq!(sc.get("name").unwrap().value, "x");
        assert_eq!(sc.get("seed").unwrap().line, 5);
        let sweep = doc.section("sweep").unwrap();
        assert_eq!(parse_list(sweep.get("seed").unwrap()).unwrap(), vec!["1", "2"]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_raw("[a]\nok = 1\nnot a kv line\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().starts_with("line 3:"), "{e}");

        let e = parse_raw("key = before section\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_raw("[a]\nx = 1\nx = 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate key `x`"));

        let e = parse_raw("[a]\n[a]\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse_raw("[broken\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn list_parsing() {
        let entry = |v: &str| RawEntry {
            key: "k".into(),
            value: v.into(),
            line: 9,
        };
        assert_eq!(
            parse_list(&entry("[0.5, 1.0]")).unwrap(),
            vec!["0.5", "1.0"]
        );
        assert_eq!(parse_list(&entry("[]")).unwrap(), Vec::<String>::new());
        let err = parse_list(&entry("0.5, 1.0")).unwrap_err();
        assert_eq!(err.line, 9);
    }

    #[test]
    fn numeric_helpers_report_key_and_line() {
        let e = RawEntry {
            key: "scale".into(),
            value: "abc".into(),
            line: 4,
        };
        let err = parse_f64(&e).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("scale"));
        assert_eq!(parse_int::<u64>(&RawEntry { value: "7".into(), ..e.clone() }).unwrap(), 7);
    }
}
