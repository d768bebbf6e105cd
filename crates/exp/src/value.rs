//! A small self-describing value tree with hand-rolled TOML-subset and
//! JSON parsers/writers.
//!
//! The workspace deliberately carries no serialization dependency; the
//! experiment-spec format needs only scalars, arrays, and one-or-two
//! levels of tables, which this module covers in a few hundred lines.
//! Tables preserve insertion order so written documents are stable and
//! diffable.
//!
//! Supported TOML subset: `key = value` pairs, single- or dotted-level
//! `[section]` headers, `#` comments, quoted strings with the common
//! escapes, booleans, integers, floats, and (possibly multi-line)
//! arrays. Supported JSON subset: everything except `null`.

use std::fmt::Write as _;

/// A dynamically-typed configuration/result value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<Value>),
    /// An insertion-ordered key→value table.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(Vec::new())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entry list, if this is a table.
    pub fn as_table(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Looks up a key in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts or replaces `key` in a table value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table.
    pub fn set(&mut self, key: &str, value: Value) {
        let Value::Table(entries) = self else { panic!("Value::set on non-table") };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Sets a value at a dotted path (e.g. `montecarlo.runs`),
    /// creating intermediate tables as needed.
    ///
    /// Returns an error if an intermediate segment exists but is not a
    /// table.
    pub fn set_path(&mut self, path: &str, value: Value) -> Result<(), String> {
        let mut cursor = self;
        let segments: Vec<&str> = path.split('.').collect();
        for (i, segment) in segments.iter().enumerate() {
            if segment.is_empty() {
                return Err(format!("empty segment in path `{path}`"));
            }
            if i + 1 == segments.len() {
                if !matches!(cursor, Value::Table(_)) {
                    return Err(format!("`{path}`: parent is not a table"));
                }
                cursor.set(segment, value);
                return Ok(());
            }
            if cursor.get(segment).is_none() {
                cursor.set(segment, Value::table());
            }
            let Value::Table(entries) = cursor else { unreachable!() };
            let (_, next) = entries.iter_mut().find(|(k, _)| k == segment).expect("just inserted");
            if !matches!(next, Value::Table(_)) {
                return Err(format!("`{path}`: segment `{segment}` is not a table"));
            }
            cursor = next;
        }
        Err("empty path".to_string())
    }

    /// Renders this value as a TOML document (the value must be a
    /// table). Scalar and array entries come first, then sub-tables as
    /// `[section]` blocks (nested sub-tables become dotted headers).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table or contains a table nested inside
    /// an array (outside this module's TOML subset).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        self.write_toml_table(&mut out, "");
        out
    }

    fn write_toml_table(&self, out: &mut String, path: &str) {
        let entries = self.as_table().expect("to_toml requires a table");
        let mut sections: Vec<(&str, &Value)> = Vec::new();
        for (key, value) in entries {
            if matches!(value, Value::Table(_)) {
                sections.push((key, value));
            } else {
                let _ = writeln!(out, "{key} = {}", fmt_toml_value(value));
            }
        }
        for (key, value) in sections {
            let sub_path = if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{sub_path}]");
            value.write_toml_table(out, &sub_path);
        }
    }

    /// Renders this value as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Value::Str(s) => out.push_str(&quote_string(s)),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => out.push_str(&fmt_float(*f)),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                let scalar_only =
                    items.iter().all(|v| !matches!(v, Value::Array(_) | Value::Table(_)));
                if scalar_only {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_json(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        item.write_json(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&close_pad);
                    out.push(']');
                }
            }
            Value::Table(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in entries.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&quote_string(key));
                    out.push_str(": ");
                    value.write_json(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

/// Formats a float so it re-parses as a float (never as an integer).
fn fmt_float(f: f64) -> String {
    debug_assert!(f.is_finite(), "non-finite float in value tree");
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn fmt_toml_value(value: &Value) -> String {
    match value {
        Value::Str(s) => quote_string(s),
        Value::Int(i) => format!("{i}"),
        Value::Float(f) => fmt_float(*f),
        Value::Bool(b) => format!("{b}"),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(fmt_toml_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(_) => panic!("tables inside arrays are outside the TOML subset"),
    }
}

fn quote_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deepest nesting of tables and arrays either parser accepts (real
/// documents nest under ten levels): hostile input such as 200,000 `[`
/// must not overflow the stack of the recursive descent, nor of the
/// recursive walks (rendering, dropping) over the tree it would build.
pub const MAX_DEPTH: usize = 128;

/// Character-cursor shared by the two parsers.
struct Cursor<'a> {
    text: &'a [u8],
    pos: usize,
    line: usize,
    /// Tables and arrays open around the current position.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text: text.as_bytes(), pos: 0, line: 1, depth: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> String {
        format!("line {}: {}", self.line, msg.into())
    }

    /// Opens one more table or array level under the dotted `path`
    /// (empty at the document root), failing past [`MAX_DEPTH`]. The
    /// caller closes it with `depth -= 1` once the container parsed.
    fn enter(&mut self, path: &str) -> Result<(), String> {
        self.depth += 1;
        if self.depth <= MAX_DEPTH {
            return Ok(());
        }
        let at =
            if path.is_empty() { "the document root".to_string() } else { format!("`{path}`") };
        Err(self.err(format!("value at {at} nests deeper than {MAX_DEPTH} levels")))
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace including newlines, plus `#` comments.
    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r') => {
                    self.pos += 1;
                }
                Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn parse_quoted_string(&mut self) -> Result<String, String> {
        // The opening-quote consumption must not live inside a
        // `debug_assert!` — release builds compile those away, and the
        // un-consumed quote would make every string parse as empty.
        let opening = self.bump();
        debug_assert_eq!(opening, Some(b'"'));
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'/') => out.push('/'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
                            let d = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?,
                        );
                    }
                    _ => return Err(self.err("unknown string escape")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Re-decode the UTF-8 sequence that starts here.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.text.len());
                    let chunk = std::str::from_utf8(&self.text[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = chunk.chars().next().ok_or_else(|| self.err("empty UTF-8 chunk"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E' | b'_')) {
            self.pos += 1;
        }
        let raw: String = std::str::from_utf8(&self.text[start..self.pos])
            .expect("ascii digits")
            .replace('_', "");
        if raw.contains('.') || raw.contains('e') || raw.contains('E') {
            raw.parse::<f64>().map(Value::Float).map_err(|_| self.err(format!("bad float `{raw}`")))
        } else {
            raw.parse::<i64>().map(Value::Int).map_err(|_| self.err(format!("bad integer `{raw}`")))
        }
    }

    fn starts_with_word(&self, word: &str) -> bool {
        let end = self.pos + word.len();
        end <= self.text.len()
            && &self.text[self.pos..end] == word.as_bytes()
            && !matches!(self.text.get(end), Some(c) if c.is_ascii_alphanumeric())
    }
}

// ---------------------------------------------------------------- TOML

/// Parses a TOML-subset document into a [`Value::Table`].
///
/// # Example
///
/// ```
/// use swim_exp::value::parse_toml;
///
/// let doc = parse_toml("runs = 25\n[device]\nsigmas = [0.1, 0.2]\n").unwrap();
/// assert_eq!(doc.get("runs").unwrap().as_int(), Some(25));
/// assert_eq!(doc.get("device").unwrap().get("sigmas").unwrap().as_array().unwrap().len(), 2);
/// ```
pub fn parse_toml(text: &str) -> Result<Value, String> {
    let mut cursor = Cursor::new(text);
    let mut root = Value::table();
    let mut section: Vec<String> = Vec::new();
    loop {
        cursor.skip_ws_and_comments();
        let Some(c) = cursor.peek() else { break };
        if c == b'[' {
            cursor.bump();
            cursor.skip_inline_ws();
            let mut path = Vec::new();
            loop {
                let key = parse_key(&mut cursor)?;
                path.push(key);
                if path.len() > MAX_DEPTH {
                    let err = format!(
                        "section `{}` nests deeper than {MAX_DEPTH} levels",
                        path.join(".")
                    );
                    return Err(cursor.err(err));
                }
                cursor.skip_inline_ws();
                match cursor.bump() {
                    Some(b'.') => {
                        cursor.skip_inline_ws();
                    }
                    Some(b']') => break,
                    _ => return Err(cursor.err("expected `.` or `]` in section header")),
                }
            }
            // A section may be opened at most once.
            let mut probe = &root;
            let mut exists = true;
            for seg in &path {
                match probe.get(seg) {
                    Some(v) => probe = v,
                    None => {
                        exists = false;
                        break;
                    }
                }
            }
            if exists {
                return Err(cursor.err(format!("duplicate section [{}]", path.join("."))));
            }
            root.set_path(&path.join("."), Value::table()).map_err(|e| cursor.err(e))?;
            section = path;
        } else {
            let key = parse_key(&mut cursor)?;
            cursor.skip_inline_ws();
            if cursor.bump() != Some(b'=') {
                return Err(cursor.err(format!("expected `=` after key `{key}`")));
            }
            cursor.skip_inline_ws();
            let mut full = section.clone();
            full.push(key.clone());
            let path = full.join(".");
            cursor.depth = full.len();
            let value = parse_toml_value(&mut cursor, &path)?;
            cursor.skip_inline_ws();
            if let Some(c) = cursor.peek() {
                if c != b'\n' && c != b'#' {
                    return Err(cursor.err(format!("trailing characters after value for `{key}`")));
                }
            }
            // Reject duplicate keys.
            let mut probe = &root;
            let mut dup = true;
            for seg in &full {
                match probe.get(seg) {
                    Some(v) => probe = v,
                    None => {
                        dup = false;
                        break;
                    }
                }
            }
            if dup {
                return Err(cursor.err(format!("duplicate key `{path}`")));
            }
            root.set_path(&path, value).map_err(|e| cursor.err(e))?;
        }
    }
    Ok(root)
}

fn parse_key(cursor: &mut Cursor) -> Result<String, String> {
    if cursor.peek() == Some(b'"') {
        return cursor.parse_quoted_string();
    }
    let start = cursor.pos;
    while matches!(cursor.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-') {
        cursor.pos += 1;
    }
    if cursor.pos == start {
        return Err(cursor.err("expected a key"));
    }
    Ok(std::str::from_utf8(&cursor.text[start..cursor.pos]).expect("ascii key").to_string())
}

/// Parses one TOML value; `path` is its dotted key path, for errors.
fn parse_toml_value(cursor: &mut Cursor, path: &str) -> Result<Value, String> {
    match cursor.peek() {
        None => Err(cursor.err("expected a value")),
        Some(b'"') => cursor.parse_quoted_string().map(Value::Str),
        Some(b'[') => {
            cursor.enter(path)?;
            cursor.bump();
            let mut items = Vec::new();
            loop {
                cursor.skip_ws_and_comments();
                if cursor.peek() == Some(b']') {
                    cursor.bump();
                    cursor.depth -= 1;
                    return Ok(Value::Array(items));
                }
                items.push(parse_toml_value(cursor, path)?);
                cursor.skip_ws_and_comments();
                match cursor.peek() {
                    Some(b',') => {
                        cursor.bump();
                    }
                    Some(b']') => {}
                    _ => return Err(cursor.err("expected `,` or `]` in array")),
                }
            }
        }
        Some(b't') if cursor.starts_with_word("true") => {
            cursor.pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if cursor.starts_with_word("false") => {
            cursor.pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'0'..=b'9' | b'+' | b'-' | b'.') => cursor.parse_number(),
        Some(c) => Err(cursor.err(format!("unexpected character `{}` in value", c as char))),
    }
}

// ---------------------------------------------------------------- JSON

/// Parses a JSON document (`null` is rejected — the spec format has no
/// use for it).
///
/// # Example
///
/// ```
/// use swim_exp::value::parse_json;
///
/// let doc = parse_json(r#"{"runs": 3, "grid": [0.0, 0.5]}"#).unwrap();
/// assert_eq!(doc.get("runs").unwrap().as_int(), Some(3));
/// ```
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut cursor = Cursor::new(text);
    cursor.skip_ws_and_comments();
    let value = parse_json_value(&mut cursor, "")?;
    cursor.skip_ws_and_comments();
    if cursor.peek().is_some() {
        return Err(cursor.err("trailing characters after JSON document"));
    }
    Ok(value)
}

/// Parses one JSON value; `path` is its dotted key path, for errors.
fn parse_json_value(cursor: &mut Cursor, path: &str) -> Result<Value, String> {
    cursor.skip_ws_and_comments();
    match cursor.peek() {
        None => Err(cursor.err("expected a JSON value")),
        Some(b'"') => cursor.parse_quoted_string().map(Value::Str),
        Some(b'{') => {
            cursor.enter(path)?;
            cursor.bump();
            let mut entries: Vec<(String, Value)> = Vec::new();
            cursor.skip_ws_and_comments();
            if cursor.peek() == Some(b'}') {
                cursor.bump();
                cursor.depth -= 1;
                return Ok(Value::Table(entries));
            }
            loop {
                cursor.skip_ws_and_comments();
                if cursor.peek() != Some(b'"') {
                    return Err(cursor.err("expected a quoted object key"));
                }
                let key = cursor.parse_quoted_string()?;
                if entries.iter().any(|(k, _)| *k == key) {
                    return Err(cursor.err(format!("duplicate key `{key}`")));
                }
                cursor.skip_ws_and_comments();
                if cursor.bump() != Some(b':') {
                    return Err(cursor.err("expected `:` after object key"));
                }
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                let value = parse_json_value(cursor, &child)?;
                entries.push((key, value));
                cursor.skip_ws_and_comments();
                match cursor.bump() {
                    Some(b',') => {}
                    Some(b'}') => {
                        cursor.depth -= 1;
                        return Ok(Value::Table(entries));
                    }
                    _ => return Err(cursor.err("expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            cursor.enter(path)?;
            cursor.bump();
            let mut items = Vec::new();
            cursor.skip_ws_and_comments();
            if cursor.peek() == Some(b']') {
                cursor.bump();
                cursor.depth -= 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_json_value(cursor, path)?);
                cursor.skip_ws_and_comments();
                match cursor.bump() {
                    Some(b',') => {}
                    Some(b']') => {
                        cursor.depth -= 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(cursor.err("expected `,` or `]` in array")),
                }
            }
        }
        Some(b't') if cursor.starts_with_word("true") => {
            cursor.pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if cursor.starts_with_word("false") => {
            cursor.pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if cursor.starts_with_word("null") => Err(cursor.err("`null` is not supported")),
        Some(b'0'..=b'9' | b'+' | b'-' | b'.') => cursor.parse_number(),
        Some(c) => Err(cursor.err(format!("unexpected character `{}`", c as char))),
    }
}

// --------------------------------------------------------------- reader

/// Strict, consume-tracking reader over a [`Value::Table`].
///
/// [`Reader::take`] marks keys as consumed; [`Reader::finish`] rejects
/// whatever was not consumed, naming its full dotted path — the
/// mechanism behind the spec parser's and the results-schema parser's
/// unknown-key errors. The `*_or` accessors fall back to a default when
/// the key is absent; [`Reader::require`] demands presence.
///
/// # Example
///
/// ```
/// use swim_exp::value::{parse_toml, Reader};
///
/// let doc = parse_toml("runs = 3\nbogus = 1\n").unwrap();
/// let mut r = Reader::new("", &doc).unwrap();
/// assert_eq!(r.usize_or("runs", 25).unwrap(), 3);
/// let err = r.finish().unwrap_err();
/// assert!(err.contains("unknown key `bogus`"));
/// ```
pub struct Reader<'a> {
    path: &'a str,
    entries: &'a [(String, Value)],
    seen: Vec<bool>,
}

fn display_path(path: &str) -> &str {
    if path.is_empty() {
        "<root>"
    } else {
        path
    }
}

impl<'a> Reader<'a> {
    /// Wraps a table value; `path` is the dotted prefix used in error
    /// messages (empty for the document root).
    pub fn new(path: &'a str, value: &'a Value) -> Result<Self, String> {
        let entries =
            value.as_table().ok_or_else(|| format!("`{}` must be a table", display_path(path)))?;
        Ok(Reader { path, entries, seen: vec![false; entries.len()] })
    }

    /// The full dotted path of `key` under this reader's prefix.
    pub fn full_key(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Consumes and returns `key`, if present.
    pub fn take(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    /// Consumes and returns `key`, erroring when absent.
    pub fn require(&mut self, key: &str) -> Result<&'a Value, String> {
        self.take(key).ok_or_else(|| format!("missing key `{}`", self.full_key(key)))
    }

    /// Errors on the first never-consumed key, with its full path.
    pub fn finish(self) -> Result<(), String> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.seen[i] {
                return Err(format!("unknown key `{}`", self.full_key(k)));
            }
        }
        Ok(())
    }

    /// String value of `key`, or `default` when absent.
    pub fn string_or(&mut self, key: &str, default: &str) -> Result<String, String> {
        match self.take(key) {
            None => Ok(default.to_string()),
            Some(v) => v
                .as_str()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("`{}` must be a string", self.full_key(key))),
        }
    }

    /// String value of `key`, required.
    pub fn string_req(&mut self, key: &str) -> Result<String, String> {
        let full = self.full_key(key);
        self.require(key)?
            .as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| format!("`{full}` must be a string"))
    }

    /// `usize` value of `key`, or `default` when absent.
    pub fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| format!("`{}` must be a non-negative integer", self.full_key(key))),
        }
    }

    /// `u64` value of `key`, or `default` when absent.
    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("`{}` must be a non-negative integer", self.full_key(key))),
        }
    }

    /// `u64` value of `key`, required.
    pub fn u64_req(&mut self, key: &str) -> Result<u64, String> {
        let full = self.full_key(key);
        self.require(key)?
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| format!("`{full}` must be a non-negative integer"))
    }

    /// `f64` value of `key` (integers coerce), or `default` when absent.
    pub fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => {
                v.as_float().ok_or_else(|| format!("`{}` must be a number", self.full_key(key)))
            }
        }
    }

    /// `f64` value of `key`, required.
    pub fn f64_req(&mut self, key: &str) -> Result<f64, String> {
        let full = self.full_key(key);
        self.require(key)?.as_float().ok_or_else(|| format!("`{full}` must be a number"))
    }

    /// `f32` value of `key`, or `default` when absent.
    pub fn f32_or(&mut self, key: &str, default: f32) -> Result<f32, String> {
        self.f64_or(key, default as f64).map(|v| v as f32)
    }

    /// Boolean value of `key`, or `default` when absent.
    pub fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => {
                v.as_bool().ok_or_else(|| format!("`{}` must be a boolean", self.full_key(key)))
            }
        }
    }

    /// Optional `f64` value of `key` (`None` when absent).
    pub fn f64_opt(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| format!("`{}` must be a number", self.full_key(key))),
        }
    }

    /// Optional `u32` value of `key` (`None` when absent).
    pub fn u32_opt(&mut self, key: &str) -> Result<Option<u32>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => {
                v.as_int().and_then(|i| u32::try_from(i).ok()).map(Some).ok_or_else(|| {
                    format!("`{}` must be a non-negative integer", self.full_key(key))
                })
            }
        }
    }

    /// `f64` array value of `key`, or `default` when absent.
    pub fn f64_list_or(&mut self, key: &str, default: &[f64]) -> Result<Vec<f64>, String> {
        match self.take(key) {
            None => Ok(default.to_vec()),
            Some(v) => {
                let full = self.full_key(key);
                let items = v.as_array().ok_or_else(|| format!("`{full}` must be an array"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_float().ok_or_else(|| format!("`{full}` must contain numbers"))
                    })
                    .collect()
            }
        }
    }

    /// String array value of `key`, or `default` when absent.
    pub fn string_list_or(&mut self, key: &str, default: &[String]) -> Result<Vec<String>, String> {
        match self.take(key) {
            None => Ok(default.to_vec()),
            Some(v) => {
                let full = self.full_key(key);
                let items = v.as_array().ok_or_else(|| format!("`{full}` must be an array"))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(|s| s.to_string())
                            .ok_or_else(|| format!("`{full}` must contain strings"))
                    })
                    .collect()
            }
        }
    }
}

/// Parses a scalar or array from loose CLI text (`--set key=value`).
///
/// Tries boolean, number, quoted string, and `[...]` array syntax; a
/// bare comma-separated list becomes an array; anything else is a
/// string.
///
/// # Example
///
/// ```
/// use swim_exp::value::{parse_loose, Value};
///
/// assert_eq!(parse_loose("25"), Value::Int(25));
/// assert_eq!(parse_loose("0.1,0.2"),
///            Value::Array(vec![Value::Float(0.1), Value::Float(0.2)]));
/// assert_eq!(parse_loose("lenet-mnist"), Value::Str("lenet-mnist".into()));
/// ```
pub fn parse_loose(raw: &str) -> Value {
    let trimmed = raw.trim();
    if trimmed.contains(',') && !trimmed.starts_with('[') && !trimmed.starts_with('"') {
        return Value::Array(trimmed.split(',').map(parse_loose).collect());
    }
    let mut cursor = Cursor::new(trimmed);
    let parsed = parse_toml_value(&mut cursor, "");
    match parsed {
        Ok(v) if cursor.pos == trimmed.len() => v,
        _ => Value::Str(trimmed.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_scalars_and_sections() {
        let doc = parse_toml(
            "# top comment\nname = \"table1\"  # trailing\nseed = 7\nquick = false\n\n\
             [training]\nlr = 0.05\nepochs = 6\n",
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("table1"));
        assert_eq!(doc.get("seed").unwrap().as_int(), Some(7));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(false));
        let training = doc.get("training").unwrap();
        assert_eq!(training.get("lr").unwrap().as_float(), Some(0.05));
        assert_eq!(training.get("epochs").unwrap().as_int(), Some(6));
    }

    #[test]
    fn toml_multiline_arrays() {
        let doc =
            parse_toml("fractions = [\n  0.0, # none\n  0.5,\n  1.0,\n]\nnames = [\"a\", \"b\"]\n")
                .unwrap();
        let fr = doc.get("fractions").unwrap().as_array().unwrap();
        assert_eq!(fr.len(), 3);
        assert_eq!(fr[1].as_float(), Some(0.5));
        let names = doc.get("names").unwrap().as_array().unwrap();
        assert_eq!(names[1].as_str(), Some("b"));
    }

    #[test]
    fn toml_dotted_sections() {
        let doc = parse_toml("[a.b]\nx = 1\n").unwrap();
        assert_eq!(doc.get("a").unwrap().get("b").unwrap().get("x").unwrap().as_int(), Some(1));
    }

    #[test]
    fn toml_rejects_duplicates_and_junk() {
        assert!(parse_toml("a = 1\na = 2\n").unwrap_err().contains("duplicate key"));
        assert!(parse_toml("[s]\nx = 1\n[s]\ny = 2\n").unwrap_err().contains("duplicate section"));
        assert!(parse_toml("a = 1 junk\n").unwrap_err().contains("trailing"));
        assert!(parse_toml("a = \n").is_err());
        let err = parse_toml("ok = 1\nbad = @\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn toml_round_trip() {
        let mut root = Value::table();
        root.set("name", Value::Str("fig2a".into()));
        root.set("seed", Value::Int(1));
        let mut device = Value::table();
        device.set("sigmas", Value::Array(vec![Value::Float(0.1), Value::Float(0.15)]));
        device.set("tech", Value::Str("rram".into()));
        root.set("device", device);
        let text = root.to_toml();
        let back = parse_toml(&text).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn float_formatting_survives_round_trip() {
        // 1.0 must not collapse to the integer 1.
        let mut root = Value::table();
        root.set("w", Value::Float(1.0));
        root.set("n", Value::Int(1));
        let back = parse_toml(&root.to_toml()).unwrap();
        assert_eq!(back.get("w").unwrap(), &Value::Float(1.0));
        assert_eq!(back.get("n").unwrap(), &Value::Int(1));
    }

    #[test]
    fn json_round_trip() {
        let mut root = Value::table();
        root.set("s", Value::Str("a \"quoted\" line\nnext".into()));
        root.set("xs", Value::Array(vec![Value::Int(1), Value::Float(2.5), Value::Bool(true)]));
        let mut nested = Value::table();
        nested.set("empty_array", Value::Array(vec![]));
        nested.set("empty_table", Value::table());
        root.set("nested", nested);
        let text = root.to_json();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn json_rejects_null_and_trailing() {
        assert!(parse_json("null").unwrap_err().contains("null"));
        assert!(parse_json("{} extra").unwrap_err().contains("trailing"));
        assert!(parse_json(r#"{"a": 1, "a": 2}"#).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn set_path_creates_and_overwrites() {
        let mut root = Value::table();
        root.set_path("montecarlo.runs", Value::Int(10)).unwrap();
        root.set_path("montecarlo.runs", Value::Int(25)).unwrap();
        assert_eq!(root.get("montecarlo").unwrap().get("runs").unwrap().as_int(), Some(25));
        root.set_path("seed", Value::Int(3)).unwrap();
        assert_eq!(root.get("seed").unwrap().as_int(), Some(3));
        // A scalar segment cannot be traversed.
        assert!(root.set_path("seed.sub", Value::Int(1)).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth_in_both_syntaxes() {
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        // JSON: the cap counts every array and table from the root.
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let e = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("the document root nests deeper than 128"), "{e}");
        let deep = format!("{{\"a\": {{\"b\": {}}}}}", nest(MAX_DEPTH));
        let e = parse_json(&deep).unwrap_err();
        assert!(e.contains("value at `a.b` nests deeper"), "{e}");
        // TOML: the key's table level counts too, and so do sections.
        assert!(parse_toml(&format!("x = {}\n", nest(MAX_DEPTH - 1))).is_ok());
        let e = parse_toml(&format!("[s]\nx = {}\n", nest(MAX_DEPTH - 1))).unwrap_err();
        assert!(e.contains("value at `s.x` nests deeper"), "{e}");
        let header = vec!["k"; MAX_DEPTH + 1].join(".");
        let e = parse_toml(&format!("[{header}]\n")).unwrap_err();
        assert!(e.contains("section `k.k.k") && e.contains("nests deeper"), "{e}");
        // Hostile depths fail fast instead of overflowing the stack.
        let hostile = "[".repeat(200_000);
        assert!(parse_json(&hostile).unwrap_err().contains("nests deeper"));
        assert!(parse_toml(&format!("x = {hostile}")).unwrap_err().contains("nests deeper"));
        assert_eq!(parse_loose(&hostile), Value::Str(hostile.clone()));
    }

    #[test]
    fn loose_parsing() {
        assert_eq!(parse_loose("true"), Value::Bool(true));
        assert_eq!(parse_loose("-3"), Value::Int(-3));
        assert_eq!(parse_loose("2.5"), Value::Float(2.5));
        assert_eq!(parse_loose("[1, 2]"), Value::Array(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(
            parse_loose("a,b"),
            Value::Array(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(parse_loose("\"quoted\""), Value::Str("quoted".into()));
        assert_eq!(parse_loose("resnet18-tiny"), Value::Str("resnet18-tiny".into()));
    }
}
