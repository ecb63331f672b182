//! Minimal plain-text report builder for the experiment harness: aligned
//! tables with a caption, rendered the way the paper's tables read.

use std::fmt::Write as _;

/// A text report consisting of titled sections with notes and tables.
#[derive(Debug, Default, Clone)]
pub struct Report {
    sections: Vec<Section>,
}

/// One titled block of a [`Report`].
#[derive(Debug, Clone)]
pub struct Section {
    title: String,
    notes: Vec<String>,
    tables: Vec<Table>,
}

/// An aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Starts a new section and returns a handle to it.
    pub fn section(&mut self, title: impl Into<String>) -> &mut Section {
        self.sections.push(Section {
            title: title.into(),
            notes: Vec::new(),
            tables: Vec::new(),
        });
        self.sections.last_mut().expect("just pushed")
    }

    /// Serializes the report as pretty-printed JSON (the machine-readable
    /// twin of [`Report::render`], selected by `experiments --json`).
    ///
    /// Hand-rolled: the offline build cannot depend on `serde_json`, and
    /// the report structure is three fixed levels of strings.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"sections\": [");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"title\": ");
            out.push_str(&json_string(&s.title));
            out.push_str(",\n      \"notes\": ");
            json_string_array(&mut out, &s.notes);
            out.push_str(",\n      \"tables\": [");
            for (j, t) in s.tables.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\n          \"headers\": ");
                json_string_array(&mut out, &t.headers);
                out.push_str(",\n          \"rows\": [");
                for (k, r) in t.rows.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str("\n            ");
                    json_string_array(&mut out, r);
                }
                if !t.rows.is_empty() {
                    out.push_str("\n          ");
                }
                out.push_str("]\n        }");
            }
            if !s.tables.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.sections.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Renders the whole report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            let _ = writeln!(out, "== {} ==", s.title);
            for n in &s.notes {
                let _ = writeln!(out, "   {n}");
            }
            for t in &s.tables {
                out.push_str(&t.render("   "));
            }
            out.push('\n');
        }
        out
    }
}

impl Section {
    /// Adds a free-text note line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.notes.push(line.into());
        self
    }

    /// Adds a table with the given headers; rows are appended via the
    /// returned handle.
    pub fn table<I, S>(&mut self, headers: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.tables.push(Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        });
        self.tables.last_mut().expect("just pushed")
    }
}

impl Table {
    /// Appends a row (stringified cells).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    fn render(&self, indent: &str) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut Vec<usize>| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&self.headers, &mut widths);
        for r in &self.rows {
            measure(r, &mut widths);
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map_or("", String::as_str);
                let pad = w - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 2));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        let _ = writeln!(out, "{indent}{}", fmt_row(&self.headers));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{indent}{}", "-".repeat(total.saturating_sub(2)));
        for r in &self.rows {
            let _ = writeln!(out, "{indent}{}", fmt_row(r));
        }
        out
    }
}

/// Escapes a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `["a", "b", …]` into `out`.
fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(s));
    }
    out.push(']');
}

/// Formats an `f64` compactly for report cells.
#[must_use]
pub(crate) fn fnum(x: f64) -> String {
    if x.is_nan() {
        "–".to_string()
    } else if (x - x.round()).abs() < 1e-9 && x.abs() < 1e15 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_tables() {
        let mut r = Report::new();
        let s = r.section("Demo");
        s.note("a note");
        s.table(["alpha", "rho"])
            .row(["1", "1.25"])
            .row(["128", "3"]);
        let text = r.render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("a note"));
        assert!(text.contains("alpha"));
        assert!(text.contains("128"));
        // Header and rows share column alignment.
        let lines: Vec<&str> = text.lines().collect();
        let header_idx = lines.iter().position(|l| l.contains("alpha")).unwrap();
        let rho_col = lines[header_idx].find("rho").unwrap();
        assert_eq!(&lines[header_idx + 2][rho_col..rho_col + 1], "1");
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(1.23456), "1.235");
        assert_eq!(fnum(f64::NAN), "–");
    }

    /// Minimal structural JSON validator: walks the text tracking string /
    /// escape state and bracket depth, rejecting unbalanced nesting or
    /// unescaped control characters. (The offline build has no serde_json
    /// to parse with, so the emitter's well-formedness is checked by hand.)
    fn assert_well_formed_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_string {
                if escaped {
                    assert!(
                        matches!(c, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                        "invalid escape \\{c}"
                    );
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                } else {
                    assert!((c as u32) >= 0x20, "unescaped control char {:#x}", c as u32);
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced closing bracket");
                }
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string");
        assert_eq!(depth, 0, "unbalanced brackets");
    }

    #[test]
    fn to_json_escapes_and_stays_well_formed() {
        let mut r = Report::new();
        assert_well_formed_json(&r.to_json()); // empty report

        let s = r.section("Quote \" backslash \\ and\nnewline");
        s.note("tab\there, control \u{1} char");
        s.table(["h \"1\"", "h2"])
            .row(["cell \"quoted\"", "back\\slash"])
            .row(["", "∆ unicode"]);
        r.section("Empty section");
        let json = r.to_json();
        assert_well_formed_json(&json);
        assert!(json.contains(r#""Quote \" backslash \\ and\nnewline""#));
        assert!(json.contains(r#""tab\there, control \u0001 char""#));
        assert!(json.contains(r#""cell \"quoted\"", "back\\slash""#));
        assert!(json.contains("\"sections\""));
        assert!(json.contains("∆ unicode"));
    }
}
