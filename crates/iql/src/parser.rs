//! Recursive-descent parser for IQL.
//!
//! The parser refuses input nested deeper than [`MAX_NESTING`] levels with a
//! [`ParseError`], so that neither it nor a recursive walk over the tree it
//! returns can overflow a thread's stack. One level down is: a
//! sub-expression in brackets, in a function's arguments or in a `let`/`if`;
//! the operand of a prefix operator (`-(e)` counts once, the way the printer
//! writes it); the operands of a binary operator (a left-associated chain
//! `a + b + c` is two levels deep, as its tree is); and the parts of a tuple
//! pattern. Printing a parsed expression never deepens it, so printed text
//! parses back.

use crate::ast::{BinOp, Expr, Literal, Pattern, Qualifier, SchemeRef, UnOp};
use crate::codec::MAX_NESTING;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Spanned, Token};

/// A recursive-descent parser over a pre-lexed token stream.
pub struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels open around the current token.
    depth: usize,
    /// The deepest level reached since the innermost [`Parser::measured`]
    /// call began.
    deepest: usize,
}

impl Parser {
    /// Lex the input and construct a parser.
    pub fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            depth: 0,
            deepest: 0,
        })
    }

    /// Parse a complete expression; trailing input is an error.
    pub fn parse_expr_complete(&mut self) -> Result<Expr, ParseError> {
        let expr = self.parse_form()?;
        self.expect(Token::Eof)?;
        Ok(expr)
    }

    /// Record that the tree reaches `depth` levels, refusing it past
    /// [`MAX_NESTING`].
    fn reach(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_NESTING {
            return Err(ParseError::new(
                format!("expression nests deeper than {MAX_NESTING} levels"),
                self.peek_offset(),
            ));
        }
        self.deepest = self.deepest.max(depth);
        Ok(())
    }

    /// Parse with `f` one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Parse with `f`, also returning how many levels below the current one
    /// the parsed tree reaches.
    fn measured<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<(T, usize), ParseError> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let parsed = f(self)?;
        let height = self.deepest - self.depth;
        self.deepest = self.deepest.max(outer);
        Ok((parsed, height))
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: Token) -> Result<(), ParseError> {
        if *self.peek() == expected {
            self.advance();
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected `{expected}`, found `{}`", self.peek()),
                self.peek_offset(),
            ))
        }
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == token {
            self.advance();
            true
        } else {
            false
        }
    }

    /// A sub-expression, one level deeper than the expression around it.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.parse_form())
    }

    /// An expression: `Range`, `let`, `if` or a binary-operator expression.
    fn parse_form(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Range => {
                self.advance();
                let lower = self.parse_operand()?;
                let upper = self.parse_operand()?;
                Ok(Expr::Range {
                    lower: Box::new(lower),
                    upper: Box::new(upper),
                })
            }
            Token::Let => {
                self.advance();
                let pattern = self.parse_pattern()?;
                self.expect(Token::Eq)?;
                let value = self.parse_expr()?;
                self.expect(Token::In)?;
                let body = self.parse_expr()?;
                Ok(Expr::Let {
                    pattern,
                    value: Box::new(value),
                    body: Box::new(body),
                })
            }
            Token::If => {
                self.advance();
                let cond = self.parse_expr()?;
                self.expect(Token::Then)?;
                let then = self.parse_expr()?;
                self.expect(Token::Else)?;
                let otherwise = self.parse_expr()?;
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    otherwise: Box::new(otherwise),
                })
            }
            _ => self.parse_binary(0),
        }
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let (mut lhs, mut height) = self.measured(|p| p.parse_unary())?;
        loop {
            let op = match self.peek() {
                Token::Or => BinOp::Or,
                Token::And => BinOp::And,
                Token::Eq => BinOp::Eq,
                Token::Neq => BinOp::Neq,
                Token::Lt => BinOp::Lt,
                Token::Le => BinOp::Le,
                Token::Gt => BinOp::Gt,
                Token::Ge => BinOp::Ge,
                Token::PlusPlus => BinOp::BagUnion,
                Token::MinusMinus => BinOp::BagDiff,
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.advance();
            let (rhs, rhs_height) = self.measured(|p| p.parse_binary(prec + 1))?;
            // The operator node sits above both operands: a left-associated
            // chain grows one level per operator.
            height = height.max(rhs_height) + 1;
            self.reach(self.depth + height)?;
            lhs = Expr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Minus => {
                self.advance();
                let expr = self.parse_prefixed()?;
                Ok(Expr::UnOp {
                    op: UnOp::Neg,
                    expr: Box::new(expr),
                })
            }
            Token::Not => {
                self.advance();
                let expr = self.parse_prefixed()?;
                Ok(Expr::UnOp {
                    op: UnOp::Not,
                    expr: Box::new(expr),
                })
            }
            _ => self.parse_application(),
        }
    }

    /// The operand of a prefix operator, one level deeper — unless it opens
    /// with `(`, whose level it shares.
    fn parse_prefixed(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Token::LParen {
            self.parse_unary()
        } else {
            self.nested(|p| p.parse_unary())
        }
    }

    /// Function application: an identifier followed directly by one or more operands,
    /// e.g. `count <<protein>>` or `max [x | …]`. Parenthesised argument lists
    /// `f(a, b)` are also accepted.
    fn parse_application(&mut self) -> Result<Expr, ParseError> {
        if let Token::Ident(name) = self.peek().clone() {
            if self.is_function_position() {
                self.advance();
                // Parenthesised argument list.
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat(&Token::Comma) {
                                continue;
                            }
                            self.expect(Token::RParen)?;
                            break;
                        }
                    }
                    return Ok(Expr::Apply {
                        function: name,
                        args,
                    });
                }
                // Juxtaposition style: one or more operands, each a level
                // deeper, as each expression in a parenthesised list is.
                let mut args = Vec::new();
                while self.starts_operand() {
                    args.push(self.nested(|p| p.parse_operand())?);
                }
                return Ok(Expr::Apply {
                    function: name,
                    args,
                });
            }
        }
        self.parse_operand()
    }

    /// Whether the current identifier should be treated as a function application head.
    /// An identifier is a function head if it is a known built-in name and is followed
    /// by something that can start an operand or by `(`.
    fn is_function_position(&self) -> bool {
        let name = match self.peek() {
            Token::Ident(n) => n,
            _ => return false,
        };
        if !crate::builtins::is_builtin(name) {
            return false;
        }
        let next = self
            .tokens
            .get(self.pos + 1)
            .map(|s| &s.token)
            .unwrap_or(&Token::Eof);
        matches!(
            next,
            Token::LParen
                | Token::LBracket
                | Token::LBrace
                | Token::SchemeOpen
                | Token::Ident(_)
                | Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::Param(_)
                | Token::Void
                | Token::Any
        )
    }

    fn starts_operand(&self) -> bool {
        matches!(
            self.peek(),
            Token::LParen
                | Token::LBracket
                | Token::LBrace
                | Token::SchemeOpen
                | Token::Ident(_)
                | Token::Int(_)
                | Token::Float(_)
                | Token::Str(_)
                | Token::Param(_)
                | Token::True
                | Token::False
                | Token::Null
                | Token::Void
                | Token::Any
        )
    }

    /// Operands: literals, variables, tuples, bags/comprehensions, scheme refs,
    /// parenthesised expressions, `Void`, `Any`.
    fn parse_operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.advance();
                Ok(Expr::Lit(Literal::Int(i)))
            }
            Token::Float(x) => {
                self.advance();
                Ok(Expr::Lit(Literal::Float(x)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(Expr::Lit(Literal::Str(s)))
            }
            Token::True => {
                self.advance();
                Ok(Expr::Lit(Literal::Bool(true)))
            }
            Token::False => {
                self.advance();
                Ok(Expr::Lit(Literal::Bool(false)))
            }
            Token::Null => {
                self.advance();
                Ok(Expr::Lit(Literal::Null))
            }
            Token::Void => {
                self.advance();
                Ok(Expr::Void)
            }
            Token::Any => {
                self.advance();
                Ok(Expr::Any)
            }
            Token::Ident(name) => {
                self.advance();
                Ok(Expr::Var(name))
            }
            Token::Param(name) => {
                self.advance();
                Ok(Expr::Param(name))
            }
            Token::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::LBrace => self.parse_tuple(),
            Token::LBracket => self.parse_bag_or_comprehension(),
            Token::SchemeOpen => self.parse_scheme(),
            other => Err(ParseError::new(
                format!("unexpected token `{other}`"),
                self.peek_offset(),
            )),
        }
    }

    fn parse_tuple(&mut self) -> Result<Expr, ParseError> {
        self.expect(Token::LBrace)?;
        let mut items = Vec::new();
        if !self.eat(&Token::RBrace) {
            loop {
                items.push(self.parse_expr()?);
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(Token::RBrace)?;
                break;
            }
        }
        Ok(Expr::Tuple(items))
    }

    fn parse_scheme(&mut self) -> Result<Expr, ParseError> {
        self.expect(Token::SchemeOpen)?;
        let mut parts = Vec::new();
        loop {
            match self.advance() {
                Token::Ident(p) => parts.push(p),
                Token::Str(p) => parts.push(p),
                Token::Int(i) => parts.push(i.to_string()),
                other => {
                    return Err(ParseError::new(
                        format!("expected scheme part, found `{other}`"),
                        self.peek_offset(),
                    ))
                }
            }
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(Token::SchemeClose)?;
            break;
        }
        Ok(Expr::Scheme(SchemeRef { parts }))
    }

    fn parse_bag_or_comprehension(&mut self) -> Result<Expr, ParseError> {
        self.expect(Token::LBracket)?;
        if self.eat(&Token::RBracket) {
            return Ok(Expr::Bag(Vec::new()));
        }
        let first = self.parse_expr()?;
        if self.eat(&Token::Pipe) {
            let mut qualifiers = Vec::new();
            loop {
                qualifiers.push(self.parse_qualifier()?);
                if self.eat(&Token::Semi) {
                    continue;
                }
                self.expect(Token::RBracket)?;
                break;
            }
            Ok(Expr::Comp {
                head: Box::new(first),
                qualifiers,
            })
        } else {
            let mut items = vec![first];
            while self.eat(&Token::Comma) {
                items.push(self.parse_expr()?);
            }
            self.expect(Token::RBracket)?;
            Ok(Expr::Bag(items))
        }
    }

    /// A qualifier is a generator `pattern <- expr`, a binding `let pattern = expr`, or
    /// a filter expression.
    fn parse_qualifier(&mut self) -> Result<Qualifier, ParseError> {
        if self.eat(&Token::Let) {
            let pattern = self.parse_pattern()?;
            self.expect(Token::Eq)?;
            let value = self.parse_expr()?;
            return Ok(Qualifier::Binding { pattern, value });
        }
        // Try to parse a generator: a pattern followed by `<-`. Backtrack on failure.
        let checkpoint = self.pos;
        if let Ok(pattern) = self.parse_pattern() {
            if self.eat(&Token::Arrow) {
                let source = self.parse_expr()?;
                return Ok(Qualifier::Generator { pattern, source });
            }
        }
        self.pos = checkpoint;
        let filter = self.parse_expr()?;
        Ok(Qualifier::Filter(filter))
    }

    fn parse_pattern(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().clone() {
            Token::Ident(name) => {
                self.advance();
                Ok(Pattern::Var(name))
            }
            Token::Underscore => {
                self.advance();
                Ok(Pattern::Wildcard)
            }
            Token::Int(i) => {
                self.advance();
                Ok(Pattern::Lit(Literal::Int(i)))
            }
            Token::Str(s) => {
                self.advance();
                Ok(Pattern::Lit(Literal::Str(s)))
            }
            Token::True => {
                self.advance();
                Ok(Pattern::Lit(Literal::Bool(true)))
            }
            Token::False => {
                self.advance();
                Ok(Pattern::Lit(Literal::Bool(false)))
            }
            Token::LBrace => {
                self.advance();
                let mut parts = Vec::new();
                if !self.eat(&Token::RBrace) {
                    loop {
                        parts.push(self.nested(|p| p.parse_pattern())?);
                        if self.eat(&Token::Comma) {
                            continue;
                        }
                        self.expect(Token::RBrace)?;
                        break;
                    }
                }
                Ok(Pattern::Tuple(parts))
            }
            other => Err(ParseError::new(
                format!("expected pattern, found `{other}`"),
                self.peek_offset(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parse_paper_add_query() {
        // The first transformation from the case study (§3).
        let q = parse("[{'PEDRO', k} | k <- <<protein>>]").unwrap();
        match q {
            Expr::Comp { head, qualifiers } => {
                assert!(matches!(*head, Expr::Tuple(ref items) if items.len() == 2));
                assert_eq!(qualifiers.len(), 1);
                assert!(matches!(
                    qualifiers[0],
                    Qualifier::Generator { ref pattern, .. } if matches!(pattern, Pattern::Var(v) if v == "k")
                ));
            }
            other => panic!("expected comprehension, got {other:?}"),
        }
    }

    #[test]
    fn parse_join_comprehension() {
        // The UPeptideHitToProteinHit_mm join from the case study.
        let q = parse(
            "[{k1, k2} | {k1, x} <- <<upeptidehit, dbsearch>>; {k2, y} <- <<uproteinhit, dbsearch>>; x = y]",
        )
        .unwrap();
        if let Expr::Comp { qualifiers, .. } = q {
            assert_eq!(qualifiers.len(), 3);
            assert!(matches!(qualifiers[2], Qualifier::Filter(_)));
        } else {
            panic!("expected comprehension");
        }
    }

    #[test]
    fn parse_range_void_any() {
        let q = parse("Range Void Any").unwrap();
        assert!(q.is_range_void_any());
        let q2 = parse("Range [k | k <- <<protein>>] Any").unwrap();
        assert!(!q2.is_range_void_any());
    }

    #[test]
    fn parse_function_applications() {
        let q = parse("count <<protein>>").unwrap();
        assert!(
            matches!(q, Expr::Apply { ref function, ref args } if function == "count" && args.len() == 1)
        );
        let q2 = parse("count(<<protein>>)").unwrap();
        assert!(matches!(q2, Expr::Apply { ref args, .. } if args.len() == 1));
        let q3 = parse("member(<<protein>>, 3)").unwrap();
        assert!(matches!(q3, Expr::Apply { ref args, .. } if args.len() == 2));
    }

    #[test]
    fn ident_not_builtin_is_variable() {
        let q = parse("protein").unwrap();
        assert!(matches!(q, Expr::Var(ref v) if v == "protein"));
    }

    #[test]
    fn parse_operators_with_precedence() {
        let q = parse("1 + 2 * 3 = 7 and true").unwrap();
        // Expect: ((1 + (2*3)) = 7) and true
        if let Expr::BinOp {
            op: BinOp::And,
            lhs,
            ..
        } = q
        {
            assert!(matches!(*lhs, Expr::BinOp { op: BinOp::Eq, .. }));
        } else {
            panic!("expected and at the top");
        }
    }

    #[test]
    fn parse_bag_literals() {
        assert_eq!(parse("[]").unwrap(), Expr::Bag(vec![]));
        let q = parse("[1, 2, 3]").unwrap();
        assert!(matches!(q, Expr::Bag(ref items) if items.len() == 3));
    }

    #[test]
    fn parse_let_and_if() {
        let q = parse("let x = 3 in if x > 2 then 'big' else 'small'").unwrap();
        assert!(matches!(q, Expr::Let { .. }));
    }

    #[test]
    fn parse_nested_comprehension() {
        let q = parse(
            "[ {k, count [x | {k2, x} <- <<peptidehit, score>>; k2 = k]} | k <- <<peptidehit>> ]",
        )
        .unwrap();
        assert!(matches!(q, Expr::Comp { .. }));
    }

    #[test]
    fn parse_wildcard_and_literal_patterns() {
        let q = parse("[k | {k, _} <- <<protein, accession_num>>]").unwrap();
        if let Expr::Comp { qualifiers, .. } = q {
            if let Qualifier::Generator { pattern, .. } = &qualifiers[0] {
                assert_eq!(pattern.bound_vars(), vec!["k"]);
            } else {
                panic!("expected generator");
            }
        }
        let q2 = parse("[k | {'PEDRO', k} <- <<uprotein>>]").unwrap();
        assert!(matches!(q2, Expr::Comp { .. }));
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("[k | k <- <<t>>] extra").is_err());
    }

    #[test]
    fn unbalanced_brackets_rejected() {
        assert!(parse("[k | k <- <<t>>").is_err());
        assert!(parse("{a, b").is_err());
        assert!(parse("<<a, >>").is_err());
    }

    #[test]
    fn scheme_with_three_parts() {
        let q = parse("<<sql, table, protein>>").unwrap();
        assert!(matches!(q, Expr::Scheme(ref s) if s.parts.len() == 3));
    }

    #[test]
    fn bag_union_and_difference_parse() {
        let q = parse("<<a>> ++ <<b>> -- <<c>>").unwrap();
        assert!(matches!(q, Expr::BinOp { .. }));
    }
}
