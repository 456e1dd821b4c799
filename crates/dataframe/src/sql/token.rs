//! SQL tokenizer.

use crate::error::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are matched case-insensitively by
    /// the parser via [`Token::is_kw`]).
    Ident(String),
    Int(i64),
    Float(f64),
    /// Single-quoted string literal (with `''` escaping).
    Str(String),
    Comma,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(&ch) = chars.peek() {
        match ch {
            c if c.is_whitespace() => {
                chars.next();
            }
            ';' => {
                chars.next(); // trailing statement terminator
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            '*' => {
                chars.next();
                out.push(Token::Star);
            }
            '+' => {
                chars.next();
                out.push(Token::Plus);
            }
            '-' => {
                chars.next();
                out.push(Token::Minus);
            }
            '/' => {
                chars.next();
                out.push(Token::Slash);
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Token::Ne);
                } else {
                    return Err(Error::Parse("expected '=' after '!'".into()));
                }
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        out.push(Token::Le);
                    }
                    Some('>') => {
                        chars.next();
                        out.push(Token::Ne);
                    }
                    _ => out.push(Token::Lt),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Token::Ge);
                } else {
                    out.push(Token::Gt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(Error::Parse("unterminated string literal".into())),
                    }
                }
                out.push(Token::Str(s));
            }
            '"' => {
                // double-quoted identifier
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return Err(Error::Parse("unterminated quoted identifier".into())),
                    }
                }
                out.push(Token::Ident(s));
            }
            c if c.is_ascii_digit() || c == '.' => {
                // Digits, a point and an exponent (`1e-7`, `2.5E16`: how
                // `{:?}` prints a float far from 1, so every printed
                // literal reads back exactly).
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    let sign = matches!(c, '+' | '-') && s.ends_with(['e', 'E']);
                    if !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E') || sign) {
                        break;
                    }
                    s.push(c);
                    chars.next();
                }
                let bad = || Error::Parse(format!("bad number {s:?}"));
                out.push(match s.contains(['.', 'e', 'E']) {
                    true => Token::Float(s.parse().map_err(|_| bad())?),
                    false => Token::Int(s.parse().map_err(|_| bad())?),
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(s));
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character {other:?} in SQL"
                )));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_query() {
        let ts = tokenize("SELECT a, AVG(b) FROM t WHERE x >= 1.5").unwrap();
        assert_eq!(ts[0], Token::Ident("SELECT".into()));
        assert!(ts.contains(&Token::Comma));
        assert!(ts.contains(&Token::Ge));
        assert!(ts.contains(&Token::Float(1.5)));
    }

    #[test]
    fn string_escaping() {
        let ts = tokenize("SELECT 'it''s' FROM t").unwrap();
        assert!(ts.contains(&Token::Str("it's".into())));
        assert!(tokenize("SELECT 'open").is_err());
    }

    #[test]
    fn operators() {
        let ts = tokenize("a <> b != c <= d").unwrap();
        assert_eq!(ts.iter().filter(|t| **t == Token::Ne).count(), 2);
        assert!(ts.contains(&Token::Le));
    }

    #[test]
    fn quoted_identifiers_and_negatives() {
        let ts = tokenize("\"weird col\" = -5").unwrap();
        assert_eq!(ts[0], Token::Ident("weird col".into()));
        assert!(ts.contains(&Token::Minus)); // unary minus handled by parser
    }

    #[test]
    fn float_literals_round_trip() {
        for v in [1e-7, 2.5e16, f64::MAX, 0.1 + 0.2, 12.0] {
            let text = format!("{v:?}");
            assert_eq!(tokenize(&text).unwrap(), vec![Token::Float(v)], "{text}");
        }
        assert!(tokenize("1e").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT @").is_err());
        assert!(tokenize("a ! b").is_err());
    }
}
