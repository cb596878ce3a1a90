//! A masking lexer for Rust source: separates *code* from *comments and
//! literal text* without parsing. The lint rules scan the masked code for
//! tokens (`unsafe`, `.unwrap()`, `Ordering::Relaxed`, …) knowing that a
//! match can never come from a comment, a string, or a char literal — and
//! scan the extracted comments for the annotations the rules require
//! (`SAFETY:`, justifications, `lint:allow(...)` waivers).
//!
//! The mask preserves line structure: every masked character becomes a
//! space, newlines stay, so line arithmetic on the masked code maps 1:1
//! onto the original file.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw (and byte/C) strings with arbitrary `#` fences, char
//! literals, and the char-vs-lifetime ambiguity (`'a'` vs `'a`).

/// One comment, attributed to a single source line; a block comment
/// spanning several lines yields one entry per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// That line's comment text, markers stripped, trimmed.
    pub text: String,
}

/// Source split into maskable and non-maskable halves; see module docs.
#[derive(Debug)]
pub struct Masked {
    /// The source with comments and literal bodies blanked to spaces
    /// (line structure preserved). Literal delimiters (`"`, `'`) remain,
    /// so token shapes around them stay intact.
    pub code: String,
    /// Every comment line, in source order.
    pub comments: Vec<Comment>,
}

impl Masked {
    /// The comment text attributed to `line` (1-based), if any.
    pub fn comment_on(&self, line: usize) -> Option<&str> {
        self.comments
            .iter()
            .find(|c| c.line == line)
            .map(|c| c.text.as_str())
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Masks `src`; never fails — unterminated literals or comments simply
/// mask to the end of the file (the compiler will reject such a file
/// anyway; the linter must merely not misread it as code).
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments: Vec<Comment> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    let push_comment = |comments: &mut Vec<Comment>, line: usize, text: &str| {
        let text = text.trim().trim_start_matches(['/', '*', '!']).trim();
        comments.push(Comment {
            line,
            text: text.to_string(),
        });
    };

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                code.push('\n');
                line += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    code.push(' ');
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                push_comment(&mut comments, line, &text);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comment; one Comment entry per spanned line.
                let mut depth = 0usize;
                let mut cur = String::new();
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        code.push_str("  ");
                        cur.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        code.push_str("  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else if chars[i] == '\n' {
                        push_comment(&mut comments, line, &cur);
                        cur.clear();
                        code.push('\n');
                        line += 1;
                        i += 1;
                    } else {
                        cur.push(chars[i]);
                        code.push(' ');
                        i += 1;
                    }
                }
                if !cur.trim().is_empty() {
                    push_comment(&mut comments, line, &cur);
                }
            }
            '"' => {
                i = mask_string(&chars, i, &mut code, &mut line);
            }
            // Raw / byte / C strings: r".."  r#".."#  br".."  b".."  c"..".
            'r' | 'b' | 'c'
                if (i == 0 || !is_ident(chars[i - 1])) && starts_raw_or_prefixed(&chars, i) =>
            {
                i = mask_prefixed_string(&chars, i, &mut code, &mut line);
            }
            '\'' => {
                // Char literal vs lifetime: escapes are chars; 'x' is a
                // char; anything else ('a in generics, 'static) is a
                // lifetime and stays code.
                if chars.get(i + 1) == Some(&'\\')
                    || (chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\''))
                {
                    code.push('\'');
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' {
                        if chars[i] == '\n' {
                            code.push('\n');
                            line += 1;
                            i += 1;
                        } else if chars[i] == '\\' {
                            code.push_str("  ");
                            i += 2;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    if i < chars.len() {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            c => {
                code.push(c);
                i += 1;
            }
        }
    }
    Masked { code, comments }
}

/// Does `chars[i..]` start a (possibly prefixed) string literal whose body
/// must be masked? `i` points at `r`, `b`, or `c`.
fn starts_raw_or_prefixed(chars: &[char], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (`br`, `cr`), then hashes, then a quote.
    while j < chars.len() && matches!(chars[j], 'r' | 'b' | 'c') && j - i < 2 {
        j += 1;
    }
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    j < chars.len() && chars[j] == '"'
}

/// Masks a plain string body starting at the opening quote; returns the
/// index after the closing quote.
fn mask_string(chars: &[char], mut i: usize, code: &mut String, line: &mut usize) -> usize {
    code.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // A `\<newline>` continuation must keep its newline so line
                // numbers stay aligned.
                code.push(' ');
                if chars.get(i + 1) == Some(&'\n') {
                    code.push('\n');
                    *line += 1;
                } else {
                    code.push(' ');
                }
                i += 2;
            }
            '"' => {
                code.push('"');
                return i + 1;
            }
            '\n' => {
                code.push('\n');
                *line += 1;
                i += 1;
            }
            _ => {
                code.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Masks a prefixed/raw string starting at its first prefix char; returns
/// the index after the closing delimiter.
fn mask_prefixed_string(
    chars: &[char],
    mut i: usize,
    code: &mut String,
    line: &mut usize,
) -> usize {
    let mut raw = false;
    while i < chars.len() && matches!(chars[i], 'r' | 'b' | 'c') {
        raw |= chars[i] == 'r';
        code.push(chars[i]);
        i += 1;
    }
    let mut hashes = 0usize;
    while i < chars.len() && chars[i] == '#' {
        hashes += 1;
        code.push('#');
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    if !raw {
        return mask_string(chars, i, code, line);
    }
    code.push('"');
    i += 1;
    // Raw body: no escapes; ends at `"` followed by `hashes` hash marks.
    while i < chars.len() {
        if chars[i] == '"' && chars[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes {
            code.push('"');
            i += 1;
            for _ in 0..hashes {
                code.push('#');
                i += 1;
            }
            return i;
        }
        if chars[i] == '\n' {
            code.push('\n');
            *line += 1;
        } else {
            code.push(' ');
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure_is_preserved() {
        let src = "let a = 1; // trailing\nlet s = \"two\nlines\";\n";
        let m = mask(src);
        assert_eq!(m.code.lines().count(), src.lines().count());
        assert_eq!(m.comment_on(1), Some("trailing"));
        assert!(!m.code.contains("trailing"));
        assert!(!m.code.contains("two"));
        assert!(m.code.contains("let s = \""));
    }

    #[test]
    fn tokens_in_strings_and_comments_are_masked() {
        let src = concat!(
            "// unsafe in a comment\n",
            "let a = \"unsafe { x.unwrap() }\";\n",
            "let b = 'u';\n",
            "let r = r#\"Ordering::Relaxed\"#;\n",
        );
        let m = mask(src);
        assert!(!m.code.contains("unsafe"));
        assert!(!m.code.contains("unwrap"));
        assert!(!m.code.contains("Relaxed"));
        assert_eq!(m.comment_on(1), Some("unsafe in a comment"));
    }

    #[test]
    fn block_comments_attribute_every_line() {
        let src = "/* SAFETY: one\n two */ unsafe {}\n";
        let m = mask(src);
        assert_eq!(m.comment_on(1), Some("SAFETY: one"));
        assert_eq!(m.comment_on(2), Some("two"));
        assert!(m.code.contains("unsafe {}"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet e = '\\n';\n";
        let m = mask(src);
        assert!(m.code.contains("<'a>"), "{}", m.code);
        assert!(m.code.contains("&'a str"));
        assert!(!m.code.contains("'x'"), "char body masked: {}", m.code);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* a /* b */ c */ let x = 1;\n";
        let m = mask(src);
        assert!(m.code.contains("let x = 1;"));
        assert!(!m.code.contains('a'));
    }
}
