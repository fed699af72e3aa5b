//! Textual CNF query parser.
//!
//! A small query language so examples and tools can state queries naturally:
//!
//! ```text
//! car >= 2 AND (person >= 1 OR bus >= 1) AND truck <= 0
//! ```
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := clause ( "AND" clause )*
//! clause  := condition | "(" condition ( "OR" condition )* ")"
//! condition := IDENT OP INTEGER        OP := ">=" | "<=" | "="
//! ```
//!
//! Class identifiers are resolved against (and, once the whole query
//! parses, registered into) a [`ClassRegistry`].

use tvq_common::{ClassId, ClassRegistry, Error, QueryId, Result};

use crate::cnf::{Clause, CnfQuery};
use crate::condition::{CmpOp, Condition};

/// Parses a CNF query, registering its new class labels into `registry`.
/// The registry changes only when the parse succeeds; a query whose new
/// labels would not fit the 16-bit class-id space fails like any other
/// parse error.
pub fn parse_query(input: &str, id: QueryId, registry: &mut ClassRegistry) -> Result<CnfQuery> {
    let mut parser = Parser {
        input,
        tokens: tokenize(input)?,
        position: 0,
        registry,
        new_labels: ClassRegistry::new(),
    };
    let query = parser.parse_query(id)?;
    if parser.position != parser.tokens.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    query.validate().map_err(|message| Error::QueryParse {
        message,
        position: input.len(),
    })?;
    // Registered in order, each new label takes the id `class` gave it.
    for (_, label) in parser.new_labels.iter() {
        registry.register(label.clone());
    }
    Ok(query)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String, usize),
    Number(u32, usize),
    Op(CmpOp, usize),
    And(usize),
    Or(usize),
    LParen(usize),
    RParen(usize),
}

impl Token {
    fn position(&self) -> usize {
        match self {
            Token::Ident(_, p)
            | Token::Number(_, p)
            | Token::Op(_, p)
            | Token::And(p)
            | Token::Or(p)
            | Token::LParen(p)
            | Token::RParen(p) => *p,
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        match c {
            '(' => {
                tokens.push(Token::LParen(i));
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen(i));
                i += 1;
            }
            '>' | '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    let op = if c == '>' { CmpOp::Ge } else { CmpOp::Le };
                    tokens.push(Token::Op(op, i));
                    i += 2;
                } else {
                    return Err(Error::QueryParse {
                        message: format!("expected '{c}=' (strict inequalities are not supported)"),
                        position: i,
                    });
                }
            }
            '=' => {
                tokens.push(Token::Op(CmpOp::Eq, i));
                i += 1;
                // Tolerate '=='.
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let value: u32 = input[start..i].parse().map_err(|_| Error::QueryParse {
                    message: format!("integer out of range: {}", &input[start..i]),
                    position: start,
                })?;
                tokens.push(Token::Number(value, start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                match word.to_ascii_uppercase().as_str() {
                    "AND" => tokens.push(Token::And(start)),
                    "OR" => tokens.push(Token::Or(start)),
                    _ => tokens.push(Token::Ident(word.to_owned(), start)),
                }
            }
            other => {
                return Err(Error::QueryParse {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    position: usize,
    registry: &'a ClassRegistry,
    /// Labels `registry` does not know yet, numbered from 0 in first-use
    /// order: each will take its number past `registry`'s last id.
    new_labels: ClassRegistry,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        let position = self
            .tokens
            .get(self.position)
            .map(Token::position)
            .unwrap_or(self.input.len());
        Error::QueryParse {
            message: message.to_owned(),
            position,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.position)
    }

    /// The id `name` has, or will have once the query's new labels are
    /// registered after the known ones.
    fn class(&mut self, name: &str, position: usize) -> Result<ClassId> {
        if let Some(id) = self.registry.id(name) {
            return Ok(id);
        }
        let offset = self
            .new_labels
            .register(name)
            .map(|id| usize::from(id.raw()));
        let id = offset.and_then(|offset| u16::try_from(self.registry.len() + offset).ok());
        id.map(ClassId).ok_or_else(|| Error::QueryParse {
            message: format!("class {name:?} does not fit: all 65,536 class ids are taken"),
            position,
        })
    }

    fn parse_query(&mut self, id: QueryId) -> Result<CnfQuery> {
        let mut clauses = vec![self.parse_clause()?];
        while matches!(self.peek(), Some(Token::And(_))) {
            self.position += 1;
            clauses.push(self.parse_clause()?);
        }
        Ok(CnfQuery::new(id, clauses))
    }

    fn parse_clause(&mut self) -> Result<Clause> {
        if matches!(self.peek(), Some(Token::LParen(_))) {
            self.position += 1;
            let mut clause = vec![self.parse_condition()?];
            while matches!(self.peek(), Some(Token::Or(_))) {
                self.position += 1;
                clause.push(self.parse_condition()?);
            }
            if !matches!(self.peek(), Some(Token::RParen(_))) {
                return Err(self.error("expected ')'"));
            }
            self.position += 1;
            Ok(clause)
        } else {
            Ok(vec![self.parse_condition()?])
        }
    }

    fn parse_condition(&mut self) -> Result<Condition> {
        let class = match self.peek() {
            Some(Token::Ident(name, position)) => {
                let (name, position) = (name.clone(), *position);
                self.position += 1;
                self.class(&name, position)?
            }
            _ => return Err(self.error("expected a class name")),
        };
        let op = match self.peek() {
            Some(&Token::Op(op, _)) => {
                self.position += 1;
                op
            }
            _ => return Err(self.error("expected one of '>=', '<=', '='")),
        };
        let value = match self.peek() {
            Some(&Token::Number(value, _)) => {
                self.position += 1;
                value
            }
            _ => return Err(self.error("expected an integer threshold")),
        };
        Ok(Condition::new(class, op, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tvq_common::ClassCounts;

    fn counts(pairs: &[(&str, u32)], registry: &ClassRegistry) -> ClassCounts {
        let map: HashMap<ClassId, u32> = pairs
            .iter()
            .map(|&(label, n)| (registry.id(label).unwrap(), n))
            .collect();
        ClassCounts::from_map(map)
    }

    #[test]
    fn parses_simple_conjunction() {
        let mut registry = ClassRegistry::with_default_classes();
        let q = parse_query("car >= 2 AND person >= 1", QueryId(0), &mut registry).unwrap();
        assert_eq!(q.clauses.len(), 2);
        assert!(q.eval(&counts(&[("car", 2), ("person", 1)], &registry)));
        assert!(!q.eval(&counts(&[("car", 2)], &registry)));
    }

    #[test]
    fn parses_paper_q2_with_disjunctions() {
        let mut registry = ClassRegistry::with_default_classes();
        let q = parse_query(
            "(car >= 2 OR person <= 3) AND (car >= 3 OR person >= 2) AND car <= 5",
            QueryId(2),
            &mut registry,
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert_eq!(q.num_conditions(), 5);
        assert!(q.eval(&counts(&[("car", 3), ("person", 2)], &registry)));
        assert!(!q.eval(&counts(&[("car", 6), ("person", 2)], &registry)));
    }

    #[test]
    fn keywords_are_case_insensitive_and_equality_tolerates_double_equals() {
        let mut registry = ClassRegistry::with_default_classes();
        let q = parse_query(
            "(CAR >= 1 or bus == 2) and person = 0",
            QueryId(1),
            &mut registry,
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 2);
        assert!(q.eval(&counts(&[("car", 1), ("person", 0)], &registry)));
    }

    #[test]
    fn new_class_labels_are_registered() {
        let mut registry = ClassRegistry::with_default_classes();
        parse_query("bicycle >= 1", QueryId(0), &mut registry).unwrap();
        assert!(registry.id("bicycle").is_some());
    }

    #[test]
    fn unknown_class_labels_are_registered_not_rejected() {
        // The language auto-registers class labels (Section 5 queries range
        // over arbitrary detector vocabularies); an unknown label is only an
        // error where an identifier is not allowed at all.
        let mut registry = ClassRegistry::with_default_classes();
        assert!(registry.id("zeppelin").is_none());
        let q = parse_query("zeppelin >= 1", QueryId(0), &mut registry).unwrap();
        let zeppelin = registry.id("zeppelin").unwrap();
        assert!(q.classes().contains(&zeppelin));
        // ... but an identifier in operator position is a parse error.
        let err = parse_query("car person 2", QueryId(0), &mut registry).unwrap_err();
        assert!(err.to_string().contains("expected one of"));
    }

    #[test]
    fn malformed_comparators_are_rejected() {
        let mut registry = ClassRegistry::with_default_classes();
        for (input, fragment) in [
            ("car > 2", "strict"),
            ("car < 2", "strict"),
            ("car ! 2", "unexpected character"),
            ("car => 2", "strict"),
            ("car 2", "expected one of '>=', '<=', '='"),
        ] {
            let err = parse_query(input, QueryId(0), &mut registry).unwrap_err();
            let text = err.to_string();
            assert!(text.contains(fragment), "input {input:?}: got {text:?}");
        }
    }

    #[test]
    fn unbalanced_parentheses_are_rejected() {
        let mut registry = ClassRegistry::with_default_classes();
        for (input, fragment) in [
            ("(car >= 2", "')'"),
            ("(car >= 2 OR person >= 1", "')'"),
            ("car >= 2)", "trailing"),
            ("(car >= 2))", "trailing"),
            ("()", "class name"),
            ("(", "class name"),
            (")", "class name"),
        ] {
            let err = parse_query(input, QueryId(0), &mut registry).unwrap_err();
            let text = err.to_string();
            assert!(text.contains(fragment), "input {input:?}: got {text:?}");
        }
    }

    #[test]
    fn reports_errors_with_positions() {
        let mut registry = ClassRegistry::with_default_classes();
        for (input, fragment) in [
            ("car > 2", "strict"),
            ("car >= ", "integer"),
            (">= 2", "class name"),
            ("(car >= 2 AND person >= 1", "')'"),
            ("car >= 2 )", "trailing"),
            ("car >= 2 AND", "class name"),
            ("car ? 2", "unexpected character"),
            ("", "class name"),
        ] {
            let err = parse_query(input, QueryId(0), &mut registry).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains(fragment),
                "input {input:?}: expected {fragment:?} in {text:?}"
            );
        }
    }

    /// New labels take the ids the parse resolved them to, in first-use
    /// order, and a repeated new label resolves to one id.
    #[test]
    fn new_labels_register_in_first_use_order() {
        let mut registry = ClassRegistry::with_default_classes();
        let q = parse_query(
            "zebra >= 1 AND (yak >= 2 OR Zebra >= 3) AND car >= 1",
            QueryId(0),
            &mut registry,
        )
        .unwrap();
        assert_eq!(registry.id("zebra"), Some(ClassId(4)));
        assert_eq!(registry.id("yak"), Some(ClassId(5)));
        assert_eq!(q.classes(), [ClassId(1), ClassId(4), ClassId(5)]);
    }

    /// A parse that fails leaves the registry as it was, wherever it fails.
    #[test]
    fn failed_parses_register_nothing() {
        let mut registry = ClassRegistry::with_default_classes();
        for text in [
            "newlabel >=",
            "newlabel >= 1 AND",
            "(newlabel >= 1 OR other >= 2",
            "newlabel >= 1 trailing",
            "newlabel >= 1 AND other > 2",
        ] {
            assert!(
                parse_query(text, QueryId(0), &mut registry).is_err(),
                "{text}"
            );
            assert_eq!(registry.len(), 4, "{text}");
            assert_eq!(registry.id("newlabel"), None, "{text}");
        }
    }

    /// One query naming more new labels than the 16-bit class-id space has
    /// left fails as a parse error, registering none of them.
    #[test]
    fn running_out_of_class_ids_is_a_parse_error() {
        let mut registry = ClassRegistry::with_default_classes();
        let fits = 65_536 - registry.len();
        let text = |labels: usize| {
            (0..labels)
                .map(|i| format!("l{i} >= 1"))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let err = parse_query(&text(fits + 1), QueryId(0), &mut registry).unwrap_err();
        assert!(
            matches!(&err, Error::QueryParse { message, .. } if message.contains("65,536")),
            "{err}"
        );
        assert_eq!(registry.len(), 4);
        // Exactly filling the id space is fine.
        parse_query(&text(fits), QueryId(0), &mut registry).unwrap();
        assert_eq!(registry.len(), 65_536);
        assert_eq!(
            registry.id(format!("l{}", fits - 1)),
            Some(ClassId(u16::MAX))
        );
    }
}
