//! The workspace's one JSON codec: a dependency-free value type, parser
//! and the exact-roundtrip scalar encoders.
//!
//! Originally private to [`sink`](crate::sink) (checkpoint NDJSON lines),
//! the codec is now shared by the sinks, the `dispersion-serve` HTTP
//! layer (experiment specs on the wire) and the test suites, so all of
//! them agree byte-for-byte on one encoding:
//!
//! * floats serialise with Rust's shortest-roundtrip formatting
//!   ([`fmt_f64`]) and parse back **bit-identically** — the property that
//!   makes kill + resume restarts reproduce uninterrupted runs;
//! * non-finite floats travel as the marker strings `"nan"`, `"inf"`,
//!   `"-inf"` (decoded transparently by [`Json::as_num`]);
//! * `u64` values above 2⁵³ (master seeds are arbitrary 64-bit values)
//!   travel as decimal strings, decoded transparently by
//!   [`Json::as_u64`].

/// A parsed JSON value — just what the repo's codecs need, no external
/// dependency.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (as f64; also decodes `"nan"`/`"inf"` markers via
    /// [`Json::as_num`] on strings).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Numeric view; marker strings `"nan"`/`"inf"`/`"-inf"` decode to
    /// the non-finite floats they encode.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            // non-finite floats travel as marker strings
            Json::Str(s) => match s.as_str() {
                "nan" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// `u64` view: an exactly-representable non-negative number, or a
    /// decimal string (how [`fmt_u64`] encodes values above 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object view (key/value pairs in document order).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a key of an object value (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a complete JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem, including
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

/// Serialises an f64 as a JSON-compatible token with exact roundtrip;
/// non-finite values are encoded as marker strings [`Json::as_num`] maps
/// back.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "\"nan\"".to_string()
    } else if x > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// Serialises a u64 as a JSON token: a plain number while exactly
/// representable as f64, a decimal string above 2⁵³ (see
/// [`Json::as_u64`]).
pub fn fmt_u64(x: u64) -> String {
    if x <= (1 << 53) {
        format!("{x}")
    } else {
        format!("\"{x}\"")
    }
}

/// JSON-escapes a string, including the surrounding quotes.
pub fn fmt_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a body of a few hundred
/// thousand `[` overflows the stack and aborts the process. The documents
/// this workspace writes (specs, records, shard frames) nest only a few
/// levels deep.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing arrays/objects nest `depth` deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut obj = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(obj));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                obj.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(obj));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'n') => expect_lit(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            tok.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {tok:?} at byte {start}"))
        }
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = parse_hex4(b, pos)?;
                        if (0xD800..0xDC00).contains(&hex) {
                            // high surrogate: a \uXXXX low surrogate must follow
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("high surrogate without a low surrogate".into());
                                }
                                let c = 0x10000 + ((hex - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(c).ok_or("bad surrogate pair")?);
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            out.push(char::from_u32(hex).ok_or("bad \\u escape")?);
                        }
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            Some(_) => {
                // copy the run of plain bytes up to the next `"` or `\`:
                // neither byte occurs inside a multi-byte UTF-8 scalar, so
                // the run is whole scalars and each byte is checked once
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = *pos + 4;
    let hex = b
        .get(*pos..end)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or("truncated \\u escape")?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
    *pos = end;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("123 junk").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(
            Json::parse(" {\"a\": [1, \"\\u00e9\\ud83e\\udd80\"]} ").unwrap(),
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("é🦀".into())])
            )])
        );
    }

    #[test]
    fn high_surrogate_needs_a_low_surrogate() {
        // a high surrogate followed by a plain scalar, a non-surrogate and
        // another high surrogate; then a lone low surrogate
        assert!(Json::parse("\"\\ud800\\u0041\"").is_err());
        assert!(Json::parse("\"\\ud800\\ue000\"").is_err());
        assert!(Json::parse("\"\\ud800\\ud800\"").is_err());
        assert!(Json::parse("\"\\udc00\"").is_err());
        assert_eq!(
            Json::parse("\"\\ud800\\udc00\"").unwrap(),
            Json::Str("\u{10000}".into())
        );
    }

    #[test]
    fn multibyte_scalars_next_to_escapes() {
        // 2-, 3- and 4-byte scalars on both sides of every escape kind
        let src = "\"é\\n€\\t🦀\\\"é\\\\€\\u00e9🦀\\/\"";
        assert_eq!(
            Json::parse(src).unwrap(),
            Json::Str("é\n€\t🦀\"é\\€é🦀/".into())
        );
        for s in ["é", "€", "🦀", "a€b", "\"\\"] {
            assert_eq!(Json::parse(&fmt_str(s)).unwrap(), Json::Str(s.into()));
        }
    }

    #[test]
    fn long_string_decodes_in_linear_time() {
        // quadratic decoding took tens of minutes on a value this long
        let value = "ab€🦀".repeat((8 << 20) / 9);
        let parsed = Json::parse(&fmt_str(&value)).unwrap();
        assert_eq!(parsed, Json::Str(value));
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // uncapped, one recursion per `[` overflows a 2 MiB stack long
        // before a million levels, and a stack overflow aborts the process
        let input = "[".repeat(1_000_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&input).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(result);
    }

    #[test]
    fn u64_roundtrip_through_strings_above_2_53() {
        for x in [0u64, 7, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let tok = fmt_u64(x);
            let v = Json::parse(&tok).unwrap();
            assert_eq!(v.as_u64(), Some(x), "token {tok}");
        }
        // a float with a fractional part is not a u64
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn f64_markers_roundtrip() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let v = Json::parse(&fmt_f64(x)).unwrap();
            assert_eq!(v.as_num(), Some(x));
        }
        assert!(Json::parse(&fmt_f64(f64::NAN))
            .unwrap()
            .as_num()
            .unwrap()
            .is_nan());
        let x = 0.1 + 0.2;
        assert_eq!(Json::parse(&fmt_f64(x)).unwrap().as_num(), Some(x));
    }

    #[test]
    fn get_and_views() {
        let v = Json::parse("{\"a\":1,\"b\":true,\"c\":[null]}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_num), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("nope").is_none());
    }
}
