//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The data types supported by the engine.
///
/// The paper's datasets mix categorical attributes (`Make`, `Drivetrain`,
/// mushroom attributes) with numeric ones (`Price`, `Mileage`, `Year`).
/// Numeric attributes are discretized into categorical bins before CAD View
/// construction (Section 2.2.1), but the storage layer keeps them typed so
/// range predicates (`BETWEEN`) evaluate on the raw values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// Dictionary-encoded categorical string.
    Categorical,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Categorical => write!(f, "CATEGORICAL"),
        }
    }
}

/// A dynamically-typed scalar value.
///
/// `Value` is the exchange type at API boundaries (row construction,
/// predicate literals, query results). Inside columns, values are stored in
/// typed, dictionary-encoded vectors — `Value` never appears in bulk storage.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// Categorical string value.
    Str(String),
}

impl Value {
    /// The data type this value naturally belongs to, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Categorical),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value: ints are widened to `f64`.
    ///
    /// Returns `None` for NULL and categorical values. Used by range
    /// predicates and histogram construction, both of which treat `Int` and
    /// `Float` uniformly.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String view of the value, if categorical.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Total ordering used for ORDER BY and BETWEEN semantics.
    ///
    /// NULL sorts before everything; numbers compare numerically across
    /// `Int`/`Float`; strings compare lexicographically; numbers sort before
    /// strings. This mirrors common SQL engine behaviour closely enough for
    /// the paper's workloads (no mixed-type columns exist in practice).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }

    /// `==` with floats compared by bit pattern, so `-0.0` and `0.0` (which
    /// [`Value::total_cmp`] orders apart) are different values and a NaN
    /// equals an identical NaN.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Feeds `self` to `state` so that [`Value::identical`] values hash
    /// alike: floats by bit pattern, and each variant under its own tag.
    pub fn hash_identical<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(v) => {
                state.write_u8(1);
                v.hash(state);
            }
            Value::Float(v) => {
                state.write_u8(2);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.5).data_type(), Some(DataType::Float));
        assert_eq!(
            Value::Str("x".into()).data_type(),
            Some(DataType::Categorical)
        );
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn as_f64_widens_ints() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("a".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn total_cmp_numbers_cross_type() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_cmp_null_first_strings_last() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(9)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("SUV".into()).to_string(), "SUV");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
