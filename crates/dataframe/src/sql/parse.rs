//! Recursive-descent parser for the SELECT subset.

use crate::error::{Error, Result};

use super::token::{tokenize, Token};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A SQL expression (scalar, aggregate, or boolean).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Column(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `AGG(expr)`; `COUNT(*)` is `Agg(Count, None)`.
    Agg(AggFunc, Option<Box<SqlExpr>>),
    Floor(Box<SqlExpr>),
    /// `LEAST(a, b, ...)`: the smallest argument, null if any is null.
    Least(Vec<SqlExpr>),
    Arith(Box<SqlExpr>, BinOp, Box<SqlExpr>),
    Cmp(Box<SqlExpr>, CmpOp, Box<SqlExpr>),
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    Neg(Box<SqlExpr>),
}

impl SqlExpr {
    /// True if the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg(..) => true,
            SqlExpr::Floor(e) | SqlExpr::Not(e) | SqlExpr::Neg(e) => e.has_aggregate(),
            SqlExpr::Least(args) => args.iter().any(SqlExpr::has_aggregate),
            SqlExpr::Arith(a, _, b)
            | SqlExpr::Cmp(a, _, b)
            | SqlExpr::And(a, b)
            | SqlExpr::Or(a, b) => a.has_aggregate() || b.has_aggregate(),
            _ => false,
        }
    }
}

/// An ORDER BY key: an output column name plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub column: String,
    pub ascending: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projections with output names (alias, or a derived name).
    pub items: Vec<(SqlExpr, String)>,
    pub table: String,
    pub predicate: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
}

/// Parse one SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    if p.pos != p.tokens.len() {
        return Err(Error::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(t) if t.is_kw(kw) => Ok(()),
            other => Err(Error::Parse(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let name = if self.eat_kw("AS") {
                self.ident()?
            } else {
                derived_name(&expr, items.len())
            };
            items.push((expr, name));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.ident()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderKey { column, ascending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(Error::Parse(format!("expected LIMIT count, got {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            table,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    // expression precedence: OR < AND < NOT < comparison < add < mul < unary
    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("NOT") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(SqlExpr::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = SqlExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = SqlExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<SqlExpr> {
        if self.eat(&Token::Minus) {
            return Ok(SqlExpr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        match self.next() {
            Some(Token::Int(v)) => Ok(SqlExpr::Int(v)),
            Some(Token::Float(v)) => Ok(SqlExpr::Float(v)),
            Some(Token::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                if !self.eat(&Token::RParen) {
                    return Err(Error::Parse("expected ')'".into()));
                }
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                // function call?
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let agg = AggFunc::parse(&name);
                    if agg == Some(AggFunc::Count) && self.eat(&Token::Star) {
                        if !self.eat(&Token::RParen) {
                            return Err(Error::Parse("expected ')' after COUNT(*)".into()));
                        }
                        return Ok(SqlExpr::Agg(AggFunc::Count, None));
                    }
                    let mut args = vec![self.expr()?];
                    while self.eat(&Token::Comma) {
                        args.push(self.expr()?);
                    }
                    if !self.eat(&Token::RParen) {
                        return Err(Error::Parse("expected ')'".into()));
                    }
                    return match (agg, name.to_ascii_uppercase().as_str(), args.len()) {
                        (Some(agg), _, 1) => Ok(SqlExpr::Agg(agg, Some(Box::new(args.remove(0))))),
                        (None, "FLOOR", 1) => Ok(SqlExpr::Floor(Box::new(args.remove(0)))),
                        (None, "LEAST", _) => Ok(SqlExpr::Least(args)),
                        _ => Err(Error::Parse(format!(
                            "unknown function {name:?} of {} arguments",
                            args.len()
                        ))),
                    };
                }
                Ok(SqlExpr::Column(name))
            }
            other => Err(Error::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

/// Output column name when no alias is given: the column itself for bare
/// column references, else `col_{index}`.
fn derived_name(expr: &SqlExpr, index: usize) -> String {
    match expr {
        SqlExpr::Column(name) => name.clone(),
        SqlExpr::Agg(f, Some(inner)) => {
            if let SqlExpr::Column(name) = inner.as_ref() {
                format!("{}_{}", format!("{f:?}").to_ascii_lowercase(), name)
            } else {
                format!("col_{index}")
            }
        }
        SqlExpr::Agg(AggFunc::Count, None) => "count".to_string(),
        _ => format!("col_{index}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_statement() {
        let s = parse_select(
            "SELECT dept, AVG(pay) AS p FROM t WHERE age > 30 GROUP BY dept ORDER BY p DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.items[1].1, "p");
        assert_eq!(s.table, "t");
        assert!(s.predicate.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(
            s.order_by,
            vec![OrderKey {
                column: "p".into(),
                ascending: false
            }]
        );
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn derived_names() {
        let s = parse_select("SELECT a, SUM(b), COUNT(*) FROM t").unwrap();
        assert_eq!(s.items[0].1, "a");
        assert_eq!(s.items[1].1, "sum_b");
        assert_eq!(s.items[2].1, "count");
    }

    #[test]
    fn precedence() {
        let s = parse_select("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        // AND binds tighter than OR
        match s.predicate.unwrap() {
            SqlExpr::Or(_, rhs) => assert!(matches!(*rhs, SqlExpr::And(..))),
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn floor_and_arith() {
        let s = parse_select("SELECT FLOOR((x - 1) / 2) AS b FROM t GROUP BY b").unwrap();
        assert!(matches!(s.items[0].0, SqlExpr::Floor(_)));
        assert!(!s.items[0].0.has_aggregate());
    }

    #[test]
    fn least_takes_a_list() {
        let s = parse_select("SELECT LEAST(FLOOR(x), 3, y) AS b FROM t").unwrap();
        assert!(matches!(&s.items[0].0, SqlExpr::Least(args) if args.len() == 3));
        assert!(parse_select("SELECT LEAST(x FROM t").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse_select("SELEC a FROM t").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM t extra").is_err());
        assert!(parse_select("SELECT BOGUS(a) FROM t").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
    }

    #[test]
    fn unary_minus() {
        let s = parse_select("SELECT a FROM t WHERE x > -5").unwrap();
        match s.predicate.unwrap() {
            SqlExpr::Cmp(_, CmpOp::Gt, rhs) => assert!(matches!(*rhs, SqlExpr::Neg(_))),
            other => panic!("{other:?}"),
        }
    }
}
