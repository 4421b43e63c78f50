//! Predicate AST and evaluation.
//!
//! Covers the operators the paper's example queries use: equality,
//! comparison, `BETWEEN`, `IN`, and boolean combinators. NULL semantics are
//! SQL-like: any comparison involving NULL is false (so `NOT` of a
//! NULL-comparison is true — three-valued logic is collapsed to two-valued,
//! which is indistinguishable for the paper's workloads, where filters never
//! target NULLs).

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean expression over a table's attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `attribute <op> literal`
    Compare {
        /// Attribute name.
        attribute: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: Value,
    },
    /// `attribute BETWEEN low AND high` (inclusive both ends).
    Between {
        /// Attribute name.
        attribute: String,
        /// Lower bound (inclusive).
        low: Value,
        /// Upper bound (inclusive).
        high: Value,
    },
    /// `attribute IN (v1, v2, ...)`
    In {
        /// Attribute name.
        attribute: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `attribute IS NULL`
    IsNull {
        /// Attribute name.
        attribute: String,
    },
    /// Conjunction; empty conjunction is `TRUE`.
    And(Vec<Predicate>),
    /// Disjunction; empty disjunction is `FALSE`.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Constant truth value (used for `SELECT *` without WHERE).
    Const(bool),
}

impl Predicate {
    /// `attribute = value` convenience constructor.
    pub fn eq(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            attribute: attribute.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `attribute <op> value` convenience constructor.
    pub fn cmp(attribute: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }

    /// `attribute BETWEEN low AND high` convenience constructor.
    pub fn between(
        attribute: impl Into<String>,
        low: impl Into<Value>,
        high: impl Into<Value>,
    ) -> Self {
        Predicate::Between {
            attribute: attribute.into(),
            low: low.into(),
            high: high.into(),
        }
    }

    /// `attribute IN (values...)` convenience constructor.
    pub fn in_list(attribute: impl Into<String>, values: Vec<Value>) -> Self {
        Predicate::In {
            attribute: attribute.into(),
            values,
        }
    }

    /// Conjunction constructor.
    pub fn and(preds: Vec<Predicate>) -> Self {
        Predicate::And(preds)
    }

    /// Disjunction constructor.
    pub fn or(preds: Vec<Predicate>) -> Self {
        Predicate::Or(preds)
    }

    /// Negation constructor.
    #[allow(clippy::should_implement_trait)]
    pub fn not(pred: Predicate) -> Self {
        Predicate::Not(Box::new(pred))
    }

    /// Whether `self` and `other` select the same rows of any table by
    /// construction: structural `==` with literals compared by
    /// [`Value::identical`]. Plain `==` is not enough to reuse a filtered
    /// result, because filtering orders values with `total_cmp`, under
    /// which `x < 0.0` and `x < -0.0` differ although `0.0 == -0.0`.
    pub fn identical(&self, other: &Predicate) -> bool {
        fn all(a: &[Predicate], b: &[Predicate]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.identical(y))
        }
        match (self, other) {
            (
                Predicate::Compare {
                    attribute: a,
                    op: o,
                    value: v,
                },
                Predicate::Compare {
                    attribute: b,
                    op: p,
                    value: w,
                },
            ) => a == b && o == p && v.identical(w),
            (
                Predicate::Between {
                    attribute: a,
                    low: l,
                    high: h,
                },
                Predicate::Between {
                    attribute: b,
                    low: m,
                    high: i,
                },
            ) => a == b && l.identical(m) && h.identical(i),
            (
                Predicate::In {
                    attribute: a,
                    values: v,
                },
                Predicate::In {
                    attribute: b,
                    values: w,
                },
            ) => a == b && v.len() == w.len() && v.iter().zip(w).all(|(x, y)| x.identical(y)),
            (Predicate::IsNull { attribute: a }, Predicate::IsNull { attribute: b }) => a == b,
            (Predicate::And(a), Predicate::And(b)) | (Predicate::Or(a), Predicate::Or(b)) => {
                all(a, b)
            }
            (Predicate::Not(a), Predicate::Not(b)) => a.identical(b),
            (Predicate::Const(a), Predicate::Const(b)) => a == b,
            _ => false,
        }
    }

    /// Feeds `self` to `state` so that [`Predicate::identical`] predicates
    /// hash alike — the key a cache of filtered results probes before it
    /// compares with `identical`.
    pub fn hash_identical<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        fn all<H: std::hash::Hasher>(preds: &[Predicate], state: &mut H) {
            state.write_usize(preds.len());
            for p in preds {
                p.hash_identical(state);
            }
        }
        match self {
            Predicate::Compare {
                attribute,
                op,
                value,
            } => {
                state.write_u8(0);
                attribute.hash(state);
                state.write_u8(*op as u8);
                value.hash_identical(state);
            }
            Predicate::Between {
                attribute,
                low,
                high,
            } => {
                state.write_u8(1);
                attribute.hash(state);
                low.hash_identical(state);
                high.hash_identical(state);
            }
            Predicate::In { attribute, values } => {
                state.write_u8(2);
                attribute.hash(state);
                state.write_usize(values.len());
                for v in values {
                    v.hash_identical(state);
                }
            }
            Predicate::IsNull { attribute } => {
                state.write_u8(3);
                attribute.hash(state);
            }
            Predicate::And(preds) => {
                state.write_u8(4);
                all(preds, state);
            }
            Predicate::Or(preds) => {
                state.write_u8(5);
                all(preds, state);
            }
            Predicate::Not(inner) => {
                state.write_u8(6);
                inner.hash_identical(state);
            }
            Predicate::Const(b) => {
                state.write_u8(7);
                state.write_u8(u8::from(*b));
            }
        }
    }

    /// Checks that all referenced attributes exist in `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            Predicate::Compare { attribute, .. }
            | Predicate::Between { attribute, .. }
            | Predicate::In { attribute, .. }
            | Predicate::IsNull { attribute } => {
                schema.index_of(attribute).map(|_| ())?;
                Ok(())
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().try_for_each(|p| p.validate(schema))
            }
            Predicate::Not(p) => p.validate(schema),
            Predicate::Const(_) => Ok(()),
        }
    }

    /// Attribute names referenced by this predicate (with duplicates).
    pub fn referenced_attributes(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Compare { attribute, .. }
            | Predicate::Between { attribute, .. }
            | Predicate::In { attribute, .. }
            | Predicate::IsNull { attribute } => out.push(attribute),
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().for_each(|p| p.collect_attributes(out))
            }
            Predicate::Not(p) => p.collect_attributes(out),
            Predicate::Const(_) => {}
        }
    }

    /// Structurally simplifies the predicate without changing its meaning:
    /// flattens nested `AND`/`OR`, drops neutral constants, collapses
    /// single-child combinators, folds double negation, and
    /// constant-folds `NOT TRUE`/`NOT FALSE`. Used when exporting user
    /// selections (e.g. faceted state) as readable SQL.
    pub fn simplify(self) -> Predicate {
        match self {
            Predicate::And(ps) => {
                let mut flat = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Predicate::Const(true) => {}
                        Predicate::Const(false) => return Predicate::Const(false),
                        Predicate::And(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Predicate::Const(true),
                    1 => flat.pop().unwrap_or(Predicate::Const(true)),
                    _ => Predicate::And(flat),
                }
            }
            Predicate::Or(ps) => {
                let mut flat = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Predicate::Const(false) => {}
                        Predicate::Const(true) => return Predicate::Const(true),
                        Predicate::Or(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Predicate::Const(false),
                    1 => flat.pop().unwrap_or(Predicate::Const(false)),
                    _ => Predicate::Or(flat),
                }
            }
            Predicate::Not(inner) => match inner.simplify() {
                Predicate::Const(b) => Predicate::Const(!b),
                Predicate::Not(inner2) => *inner2,
                other => Predicate::Not(Box::new(other)),
            },
            leaf => leaf,
        }
    }

    /// Evaluates the predicate against row `row` of `table`.
    pub fn eval(&self, table: &Table, row: usize) -> Result<bool> {
        match self {
            Predicate::Compare {
                attribute,
                op,
                value,
            } => {
                let cell = cell(table, attribute, row)?;
                if cell.is_null() || value.is_null() {
                    return Ok(false);
                }
                let ord = cell.total_cmp(value);
                Ok(match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                })
            }
            Predicate::Between {
                attribute,
                low,
                high,
            } => {
                let cell = cell(table, attribute, row)?;
                if cell.is_null() {
                    return Ok(false);
                }
                Ok(cell.total_cmp(low) != Ordering::Less
                    && cell.total_cmp(high) != Ordering::Greater)
            }
            Predicate::In { attribute, values } => {
                let cell = cell(table, attribute, row)?;
                if cell.is_null() {
                    return Ok(false);
                }
                Ok(values.iter().any(|v| cell.total_cmp(v) == Ordering::Equal))
            }
            Predicate::IsNull { attribute } => Ok(cell(table, attribute, row)?.is_null()),
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(table, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(table, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.eval(table, row)?),
            Predicate::Const(b) => Ok(*b),
        }
    }
}

fn cell(table: &Table, attribute: &str, row: usize) -> Result<Value> {
    let idx = table
        .schema()
        .index_of(attribute)
        .map_err(|_| Error::UnknownAttribute(attribute.to_owned()))?;
    Ok(table.value(row, idx))
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare {
                attribute,
                op,
                value,
            } => write!(f, "{attribute} {op} {value}"),
            Predicate::Between {
                attribute,
                low,
                high,
            } => write!(f, "{attribute} BETWEEN {low} AND {high}"),
            Predicate::In { attribute, values } => {
                write!(f, "{attribute} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::IsNull { attribute } => write!(f, "{attribute} IS NULL"),
            Predicate::And(ps) => join(f, ps, " AND "),
            Predicate::Or(ps) => join(f, ps, " OR "),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
            Predicate::Const(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

fn join(f: &mut fmt::Formatter<'_>, ps: &[Predicate], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn table() -> Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        b.push_row(vec!["Ford".into(), 25_000.into()]).unwrap();
        b.push_row(vec!["Jeep".into(), 31_000.into()]).unwrap();
        b.push_row(vec![Value::Null, 18_000.into()]).unwrap();
        b.finish()
    }

    #[test]
    fn compare_ops() {
        let t = table();
        assert!(Predicate::eq("Make", "Ford").eval(&t, 0).unwrap());
        assert!(!Predicate::eq("Make", "Ford").eval(&t, 1).unwrap());
        assert!(Predicate::cmp("Price", CmpOp::Gt, 30_000)
            .eval(&t, 1)
            .unwrap());
        assert!(Predicate::cmp("Price", CmpOp::Le, 25_000)
            .eval(&t, 0)
            .unwrap());
    }

    #[test]
    fn between_inclusive() {
        let t = table();
        let p = Predicate::between("Price", 25_000, 31_000);
        assert!(p.eval(&t, 0).unwrap());
        assert!(p.eval(&t, 1).unwrap());
        assert!(!p.eval(&t, 2).unwrap());
    }

    #[test]
    fn in_list_matches() {
        let t = table();
        let p = Predicate::in_list("Make", vec!["Jeep".into(), "Honda".into()]);
        assert!(!p.eval(&t, 0).unwrap());
        assert!(p.eval(&t, 1).unwrap());
    }

    #[test]
    fn null_comparisons_false() {
        let t = table();
        assert!(!Predicate::eq("Make", "Ford").eval(&t, 2).unwrap());
        assert!(Predicate::IsNull {
            attribute: "Make".into()
        }
        .eval(&t, 2)
        .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::or(vec![
            Predicate::eq("Make", "Jeep"),
            Predicate::cmp("Price", CmpOp::Lt, 20_000),
        ]);
        assert!(!p.eval(&t, 0).unwrap());
        assert!(p.eval(&t, 1).unwrap());
        assert!(p.eval(&t, 2).unwrap());
        assert!(Predicate::not(Predicate::Const(false)).eval(&t, 0).unwrap());
        // Empty AND is true, empty OR is false.
        assert!(Predicate::and(vec![]).eval(&t, 0).unwrap());
        assert!(!Predicate::or(vec![]).eval(&t, 0).unwrap());
    }

    #[test]
    fn simplify_flattens_and_folds() {
        // ((a AND TRUE) AND (b AND c)) → AND[a, b, c]
        let p = Predicate::and(vec![
            Predicate::and(vec![Predicate::eq("A", 1), Predicate::Const(true)]),
            Predicate::and(vec![Predicate::eq("B", 2), Predicate::eq("C", 3)]),
        ])
        .simplify();
        let Predicate::And(terms) = p else { panic!() };
        assert_eq!(terms.len(), 3);

        // OR with TRUE short-circuits; AND with FALSE short-circuits.
        assert_eq!(
            Predicate::or(vec![Predicate::eq("A", 1), Predicate::Const(true)]).simplify(),
            Predicate::Const(true)
        );
        assert_eq!(
            Predicate::and(vec![Predicate::eq("A", 1), Predicate::Const(false)]).simplify(),
            Predicate::Const(false)
        );
        // Single-child collapse + double negation.
        assert_eq!(
            Predicate::and(vec![Predicate::eq("A", 1)]).simplify(),
            Predicate::eq("A", 1)
        );
        assert_eq!(
            Predicate::not(Predicate::not(Predicate::eq("A", 1))).simplify(),
            Predicate::eq("A", 1)
        );
        assert_eq!(
            Predicate::not(Predicate::Const(false)).simplify(),
            Predicate::Const(true)
        );
        // Empty combinators keep their identities.
        assert_eq!(Predicate::and(vec![]).simplify(), Predicate::Const(true));
        assert_eq!(Predicate::or(vec![]).simplify(), Predicate::Const(false));
    }

    #[test]
    fn simplify_preserves_semantics() {
        let t = table();
        let gnarly = Predicate::not(Predicate::not(Predicate::or(vec![
            Predicate::and(vec![
                Predicate::eq("Make", "Jeep"),
                Predicate::Const(true),
            ]),
            Predicate::or(vec![Predicate::cmp("Price", CmpOp::Lt, 20_000)]),
            Predicate::Const(false),
        ])));
        let simple = gnarly.clone().simplify();
        for row in 0..t.num_rows() {
            assert_eq!(
                gnarly.eval(&t, row).unwrap(),
                simple.eval(&t, row).unwrap(),
                "row {row}"
            );
        }
    }

    #[test]
    fn referenced_attributes_collects() {
        let p = Predicate::and(vec![
            Predicate::eq("Make", "Ford"),
            Predicate::between("Price", 1, 2),
        ]);
        assert_eq!(p.referenced_attributes(), vec!["Make", "Price"]);
    }

    #[test]
    fn display_round_trip_shape() {
        let p = Predicate::and(vec![
            Predicate::eq("Make", "Ford"),
            Predicate::between("Price", 1, 2),
        ]);
        assert_eq!(p.to_string(), "(Make = Ford AND Price BETWEEN 1 AND 2)");
    }

    #[test]
    fn identical_tells_signed_zeros_apart() {
        let mut b = TableBuilder::new(vec![Field::new("X", DataType::Float)]).unwrap();
        for x in [-0.0, 0.0, 1.0] {
            b.push_row(vec![x.into()]).unwrap();
        }
        let t = b.finish();
        let neg = Predicate::cmp("X", CmpOp::Lt, -0.0);
        let pos = Predicate::cmp("X", CmpOp::Lt, 0.0);
        // `==` calls them equal, yet they select different rows.
        assert_eq!(neg, pos);
        assert_ne!(
            t.filter(&neg).unwrap().row_ids(),
            t.filter(&pos).unwrap().row_ids()
        );
        assert!(!neg.identical(&pos));
        assert!(neg.identical(&neg.clone()));
        let nested = Predicate::and(vec![Predicate::eq("X", 1.0), Predicate::not(pos.clone())]);
        assert!(nested.identical(&nested.clone()));
        assert!(!nested.identical(&Predicate::or(vec![
            Predicate::eq("X", 1.0),
            Predicate::not(pos)
        ])));
        assert!(!Predicate::eq("X", 1).identical(&Predicate::eq("X", 1.0)));
    }

    #[test]
    fn identical_predicates_hash_alike() {
        let hash = |p: &Predicate| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            p.hash_identical(&mut h);
            std::hash::Hasher::finish(&h)
        };
        let preds = [
            Predicate::cmp("X", CmpOp::Lt, -0.0),
            Predicate::cmp("X", CmpOp::Lt, 0.0),
            Predicate::cmp("X", CmpOp::Le, 0.0),
            Predicate::eq("X", 1),
            Predicate::eq("X", 1.0),
            Predicate::eq("X", f64::NAN),
            Predicate::eq("Y", "a"),
            Predicate::between("X", 1, 2),
            Predicate::in_list("X", vec![Value::Null, 1.into()]),
            Predicate::IsNull {
                attribute: "X".into(),
            },
            Predicate::and(vec![Predicate::eq("X", 1), Predicate::eq("Y", "a")]),
            Predicate::or(vec![Predicate::eq("X", 1), Predicate::eq("Y", "a")]),
            Predicate::not(Predicate::eq("X", 1)),
            Predicate::Const(true),
            Predicate::Const(false),
        ];
        for (i, a) in preds.iter().enumerate() {
            assert_eq!(hash(a), hash(&a.clone()), "{a}");
            for b in &preds[i + 1..] {
                assert!(!a.identical(b), "{a} vs {b}");
                assert_ne!(hash(a), hash(b), "{a} vs {b}");
            }
        }
    }
}
