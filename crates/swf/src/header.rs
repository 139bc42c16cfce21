//! SWF header comments.
//!
//! SWF headers are `;`-prefixed `Key: Value` lines. Only a handful matter to
//! the simulator (`MaxNodes`, `MaxProcs`, `UnixStartTime`); everything else
//! is preserved verbatim so a parsed-then-written trace keeps its provenance.

use std::collections::BTreeMap;

/// Parsed header of an SWF file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfHeader {
    /// `Key → Value` pairs in sorted order (deterministic output).
    pub fields: BTreeMap<String, String>,
    /// Comment lines that were not `Key: Value` shaped.
    pub(crate) freeform: Vec<String>,
}

impl SwfHeader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one header line (without the leading `;`).
    pub(crate) fn add_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim();
            // Header keys are single tokens like `MaxProcs`; anything with
            // internal whitespace is prose, not a field.
            if !k.is_empty() && !k.contains(char::is_whitespace) {
                self.fields.insert(k.to_string(), v.trim().to_string());
                return;
            }
        }
        self.freeform.push(line.to_string());
    }

    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.fields.insert(key.to_string(), value.to_string());
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.split_whitespace().next()?.parse().ok()
    }

    /// `MaxNodes` field, if present.
    pub fn max_nodes(&self) -> Option<u64> {
        self.get_u64("MaxNodes")
    }

    /// `MaxProcs` field, if present.
    pub fn max_procs(&self) -> Option<u64> {
        self.get_u64("MaxProcs")
    }

    /// Serialises the header back into `;` comment lines.
    pub(crate) fn to_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("; {k}: {v}"))
            .collect();
        out.extend(self.freeform.iter().map(|l| format!("; {l}")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_lines() {
        let mut h = SwfHeader::new();
        h.add_line(" MaxProcs: 80640");
        h.add_line("MaxNodes: 5040");
        h.add_line("UnixStartTime: 1234567");
        assert_eq!(h.max_procs(), Some(80640));
        assert_eq!(h.max_nodes(), Some(5040));
    }

    #[test]
    fn prose_goes_to_freeform() {
        let mut h = SwfHeader::new();
        h.add_line("This trace was converted from the original logs");
        h.add_line("");
        assert!(h.fields.is_empty());
        assert_eq!(h.freeform.len(), 1);
    }

    #[test]
    fn value_with_trailing_comment_parses() {
        let mut h = SwfHeader::new();
        h.add_line("MaxNodes: 1024 (after cleaning)");
        assert_eq!(h.max_nodes(), Some(1024));
    }

    #[test]
    fn roundtrips_to_lines() {
        let mut h = SwfHeader::new();
        h.set("MaxNodes", 16);
        h.add_line("note line");
        let lines = h.to_lines();
        assert_eq!(lines, vec!["; MaxNodes: 16", "; note line"]);

        let mut h2 = SwfHeader::new();
        for l in &lines {
            h2.add_line(l.trim_start_matches(';'));
        }
        assert_eq!(h, h2);
    }

    #[test]
    fn missing_fields_are_none() {
        let h = SwfHeader::new();
        assert_eq!(h.max_nodes(), None);
        assert_eq!(h.get("Whatever"), None);
    }
}
