//! Columnar batch kernels: predicate evaluation over typed column slices.
//!
//! [`Predicate::eval`] materializes a dynamic [`Value`] per row and resolves
//! attribute names against the schema per row — fine for spot checks, far
//! too slow for the scan paths (`Table::filter`, `View::refine`,
//! `View::partition_by_code`). The kernels here evaluate a predicate over a
//! batch of row ids in one pass per leaf: column indices are resolved once,
//! categorical equality becomes a single dictionary lookup followed by a
//! `u32` compare against the raw code slice, and numeric comparisons run
//! directly over the typed `i64`/`f64` data with the null mask applied
//! inline. Results land in a reusable boolean mask or selection vector
//! (`Vec<u32>`), never in per-row `Value`s.
//!
//! The hot loops do not branch on the data. A numeric bound resolves once,
//! before the loop, into an inclusive range of `i64` keys (an Int cell's
//! value, or a Float cell's `total_cmp` order key), so every row costs a
//! NULL test and two key compares joined with non-short-circuit `&`.
//! Compaction packs 64 mask bytes into one word and emits the row behind
//! each set bit.
//!
//! Semantics are bit-for-bit those of [`Predicate::eval`] (SQL-ish NULL
//! handling: any comparison involving NULL is false; `total_cmp` value
//! ordering). Leaf shapes the kernels do not specialize — e.g. ordered
//! comparison of strings — fall back to a per-row `Value` compare with the
//! column pre-resolved, so they stay correct and still skip the per-row name
//! lookup. The equivalence is enforced by proptest in this module's tests.

use crate::column::Column;
use crate::dict::NULL_CODE;
use crate::error::{Error, Result};
use crate::predicate::{CmpOp, Predicate};
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;

/// Gathers `data[p]` for every position in `positions` into `out`
/// (cleared first), preserving order.
///
/// This is the selection kernel behind packed code extraction: the
/// clustering layer pulls each compare attribute's dictionary codes for
/// one pivot partition in a single sequential pass over the column before
/// narrowing them into a row-major code matrix. Returns `false` (with
/// `out` cleared) if any position is out of range — callers treat that as
/// "cannot pack" rather than a panic.
pub fn gather_into<T: Copy>(data: &[T], positions: &[usize], out: &mut Vec<T>) -> bool {
    out.clear();
    out.reserve(positions.len());
    for &p in positions {
        match data.get(p) {
            Some(&v) => out.push(v),
            None => {
                out.clear();
                return false;
            }
        }
    }
    true
}

/// [`gather_into`] returning a fresh vector (`None` on out-of-range).
pub fn gather<T: Copy>(data: &[T], positions: &[usize]) -> Option<Vec<T>> {
    let mut out = Vec::new();
    gather_into(data, positions, &mut out).then_some(out)
}

/// Filters `rows` by `predicate`, returning the selected row ids in order.
pub fn select(table: &Table, rows: &[u32], predicate: &Predicate) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    select_into(table, rows, predicate, &mut out)?;
    Ok(out)
}

/// Filters `rows` by `predicate` into `out`, a reusable selection vector.
///
/// `out` is cleared first; on return it holds the subset of `rows` (in input
/// order) for which the predicate is true.
pub fn select_into(
    table: &Table,
    rows: &[u32],
    predicate: &Predicate,
    out: &mut Vec<u32>,
) -> Result<()> {
    let mut mask = vec![false; rows.len()];
    eval_into(table, rows, predicate, &mut mask)?;
    out.clear();
    for (rows, mask) in rows.chunks(64).zip(mask.chunks(64)) {
        let mut word = mask
            .iter()
            .enumerate()
            .fold(0u64, |word, (i, &keep)| word | (u64::from(keep) << i));
        while word != 0 {
            out.push(rows[word.trailing_zeros() as usize]);
            word &= word - 1;
        }
    }
    Ok(())
}

/// Evaluates `predicate` over `rows`, writing one bool per input row into
/// `mask` (resized to `rows.len()`).
pub fn eval_mask(
    table: &Table,
    rows: &[u32],
    predicate: &Predicate,
    mask: &mut Vec<bool>,
) -> Result<()> {
    mask.clear();
    mask.resize(rows.len(), false);
    eval_into(table, rows, predicate, mask)
}

fn eval_into(table: &Table, rows: &[u32], predicate: &Predicate, mask: &mut [bool]) -> Result<()> {
    match predicate {
        Predicate::Compare {
            attribute,
            op,
            value,
        } => compare_mask(table, rows, attribute, *op, value, mask),
        Predicate::Between {
            attribute,
            low,
            high,
        } => between_mask(table, rows, attribute, low, high, mask),
        Predicate::In { attribute, values } => in_mask(table, rows, attribute, values, mask),
        Predicate::IsNull { attribute } => {
            let column = resolve(table, attribute)?;
            for (m, &row) in mask.iter_mut().zip(rows) {
                *m = column.is_null(row as usize);
            }
            Ok(())
        }
        Predicate::And(ps) => {
            mask.fill(true);
            let mut child = vec![false; rows.len()];
            for p in ps {
                eval_into(table, rows, p, &mut child)?;
                for (m, &c) in mask.iter_mut().zip(&child) {
                    *m &= c;
                }
            }
            Ok(())
        }
        Predicate::Or(ps) => {
            mask.fill(false);
            let mut child = vec![false; rows.len()];
            for p in ps {
                eval_into(table, rows, p, &mut child)?;
                for (m, &c) in mask.iter_mut().zip(&child) {
                    *m |= c;
                }
            }
            Ok(())
        }
        Predicate::Not(p) => {
            eval_into(table, rows, p, mask)?;
            for m in mask.iter_mut() {
                *m = !*m;
            }
            Ok(())
        }
        Predicate::Const(b) => {
            mask.fill(*b);
            Ok(())
        }
    }
}

fn resolve<'t>(table: &'t Table, attribute: &str) -> Result<&'t Column> {
    let idx = table
        .schema()
        .index_of(attribute)
        .map_err(|_| Error::UnknownAttribute(attribute.to_owned()))?;
    Ok(table.column(idx))
}

fn ord_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// `f64::total_cmp` as an `i64` order: `float_key(a).cmp(&float_key(b))`
/// equals `a.total_cmp(&b)` (the same bit flip `total_cmp` makes).
fn float_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The first `i64` at which the monotone `reached` turns true, or
/// `i64::MAX + 1` when it never does.
fn first_key(reached: impl Fn(i64) -> bool) -> i128 {
    let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX) + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid as i64) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A numeric column's data and null mask. Each cell reads as an `i64`
/// key ordered like `Value::total_cmp`: an Int cell is its value, a Float
/// cell its [`float_key`].
#[derive(Clone, Copy)]
enum Keys<'c> {
    Int(&'c [i64], &'c [bool]),
    Float(&'c [f64], &'c [bool]),
}

/// Where one bound cuts the keys: keys below `ge` compare `Less` with it,
/// keys from `gt` on compare `Greater`, and those between compare `Equal`.
#[derive(Clone, Copy)]
struct Cut {
    ge: i128,
    gt: i128,
}

/// The keys a comparison keeps: `lo..=hi` (empty when `lo > hi`), or
/// everything outside it for `!=`.
#[derive(Clone, Copy)]
struct KeyRange {
    lo: i64,
    hi: i64,
    outside: bool,
}

impl<'c> Keys<'c> {
    fn of(column: &'c Column) -> Option<Keys<'c>> {
        match column {
            Column::Int { data, nulls } => Some(Keys::Int(data, nulls)),
            Column::Float { data, nulls } => Some(Keys::Float(data, nulls)),
            Column::Categorical { .. } => None,
        }
    }

    /// Resolves a bound against this column's keys as
    /// [`Value::total_cmp`] orders a cell against it (an Int cell against
    /// a Float bound as `f64`); `None` when the bound is not numeric.
    fn cut(self, bound: &Value) -> Option<Cut> {
        match (self, bound) {
            (Keys::Int(..), &Value::Int(b)) => Some(Cut::at(b)),
            // `k as f64` is monotone in `k`, so each side of the bound is
            // one run of keys; search for where each run starts.
            (Keys::Int(..), &Value::Float(b)) => Some(Cut {
                ge: first_key(|k| (k as f64).total_cmp(&b) != Ordering::Less),
                gt: first_key(|k| (k as f64).total_cmp(&b) == Ordering::Greater),
            }),
            (Keys::Float(..), &Value::Int(b)) => Some(Cut::at(float_key(b as f64))),
            (Keys::Float(..), &Value::Float(b)) => Some(Cut::at(float_key(b))),
            _ => None,
        }
    }

    /// Writes, for every row, whether its cell is non-NULL with a key
    /// `keep` accepts.
    fn fill(self, rows: &[u32], mask: &mut [bool], keep: impl Fn(i64) -> bool) {
        match self {
            Keys::Int(data, nulls) => {
                for (m, &row) in mask.iter_mut().zip(rows) {
                    let row = row as usize;
                    *m = !nulls[row] & keep(data[row]);
                }
            }
            Keys::Float(data, nulls) => {
                for (m, &row) in mask.iter_mut().zip(rows) {
                    let row = row as usize;
                    *m = !nulls[row] & keep(float_key(data[row]));
                }
            }
        }
    }
}

impl Cut {
    /// The cut of a bound whose own key is `key`.
    fn at(key: i64) -> Cut {
        Cut {
            ge: key.into(),
            gt: i128::from(key) + 1,
        }
    }

    /// The keys `cell op bound` keeps.
    fn range(self, op: CmpOp) -> KeyRange {
        let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
        match op {
            CmpOp::Eq => KeyRange::new(self.ge, self.gt - 1, false),
            CmpOp::Ne => KeyRange::new(self.ge, self.gt - 1, true),
            CmpOp::Lt => KeyRange::new(min, self.ge - 1, false),
            CmpOp::Le => KeyRange::new(min, self.gt - 1, false),
            CmpOp::Gt => KeyRange::new(self.gt, max, false),
            CmpOp::Ge => KeyRange::new(self.ge, max, false),
        }
    }
}

impl KeyRange {
    /// `lo..=hi` over `i128` ends; any empty range becomes `1..=0`.
    fn new(lo: i128, hi: i128, outside: bool) -> KeyRange {
        match (i64::try_from(lo), i64::try_from(hi)) {
            (Ok(lo), Ok(hi)) if lo <= hi => KeyRange { lo, hi, outside },
            _ => KeyRange {
                lo: 1,
                hi: 0,
                outside,
            },
        }
    }

    #[inline]
    fn keeps(self, key: i64) -> bool {
        ((key >= self.lo) & (key <= self.hi)) != self.outside
    }
}

fn compare_mask(
    table: &Table,
    rows: &[u32],
    attribute: &str,
    op: CmpOp,
    value: &Value,
    mask: &mut [bool],
) -> Result<()> {
    let column = resolve(table, attribute)?;
    if value.is_null() {
        mask.fill(false);
        return Ok(());
    }
    if let Some(keys) = Keys::of(column) {
        if let Some(cut) = keys.cut(value) {
            let range = cut.range(op);
            keys.fill(rows, mask, |key| range.keeps(key));
            return Ok(());
        }
    }
    match (column, value) {
        // Categorical =/!= string: one dictionary lookup, then raw code
        // compares. A literal absent from the dictionary matches nothing
        // (Eq) or every non-NULL row (Ne).
        (Column::Categorical { codes, dict }, Value::Str(s))
            if matches!(op, CmpOp::Eq | CmpOp::Ne) =>
        {
            match dict.code(s) {
                Some(target) => {
                    let want_eq = op == CmpOp::Eq;
                    for (m, &row) in mask.iter_mut().zip(rows) {
                        let code = codes[row as usize];
                        *m = (code != NULL_CODE) & ((code == target) == want_eq);
                    }
                }
                None => {
                    if op == CmpOp::Eq {
                        mask.fill(false);
                    } else {
                        for (m, &row) in mask.iter_mut().zip(rows) {
                            *m = codes[row as usize] != NULL_CODE;
                        }
                    }
                }
            }
            Ok(())
        }
        // Remaining shapes (ordered string compares, cross-type oddities):
        // per-row Value compare with the column pre-resolved.
        _ => {
            for (m, &row) in mask.iter_mut().zip(rows) {
                let cell = column.get(row as usize);
                *m = !cell.is_null() && ord_matches(op, cell.total_cmp(value));
            }
            Ok(())
        }
    }
}

fn between_mask(
    table: &Table,
    rows: &[u32],
    attribute: &str,
    low: &Value,
    high: &Value,
    mask: &mut [bool],
) -> Result<()> {
    let column = resolve(table, attribute)?;
    if let Some(keys) = Keys::of(column) {
        if let (Some(low), Some(high)) = (keys.cut(low), keys.cut(high)) {
            let range = KeyRange::new(low.ge, high.gt - 1, false);
            keys.fill(rows, mask, |key| range.keeps(key));
            return Ok(());
        }
    }
    for (m, &row) in mask.iter_mut().zip(rows) {
        let cell = column.get(row as usize);
        *m = !cell.is_null()
            && cell.total_cmp(low) != Ordering::Less
            && cell.total_cmp(high) != Ordering::Greater;
    }
    Ok(())
}

fn in_mask(
    table: &Table,
    rows: &[u32],
    attribute: &str,
    values: &[Value],
    mask: &mut [bool],
) -> Result<()> {
    let column = resolve(table, attribute)?;
    // Numeric IN: each numeric literal is one `=` key range; other
    // literals can never equal a number.
    if let Some(keys) = Keys::of(column) {
        let ranges: Vec<KeyRange> = values
            .iter()
            .filter_map(|v| keys.cut(v))
            .map(|cut| cut.range(CmpOp::Eq))
            .collect();
        keys.fill(rows, mask, |key| ranges.iter().any(|r| r.keeps(key)));
        return Ok(());
    }
    // Categorical IN: resolve each string literal to its code once, mark
    // the wanted codes in a dictionary-sized bitmap, then test raw codes.
    // Non-string literals can never equal a string cell.
    if let Column::Categorical { codes, dict } = column {
        let mut wanted = vec![false; dict.len()];
        for v in values {
            if let Value::Str(s) = v {
                if let Some(code) = dict.code(s) {
                    wanted[code as usize] = true;
                }
            }
        }
        for (m, &row) in mask.iter_mut().zip(rows) {
            let code = codes[row as usize];
            *m = code != NULL_CODE && wanted[code as usize];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::table::TableBuilder;
    use crate::value::DataType;
    use proptest::prelude::*;

    fn table() -> Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Price", DataType::Int),
            Field::new("Rating", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<(Value, Value, Value)> = vec![
            ("Ford".into(), 25_000.into(), 4.5.into()),
            ("Jeep".into(), 31_000.into(), 3.0.into()),
            (Value::Null, 18_000.into(), Value::Null),
            ("Ford".into(), Value::Null, 2.5.into()),
            ("Honda".into(), 22_000.into(), 4.5.into()),
        ];
        for (m, p, r) in rows {
            b.push_row(vec![m, p, r]).unwrap();
        }
        b.finish()
    }

    /// Every kernel path must agree with the row-at-a-time reference.
    fn assert_matches_eval(t: &Table, p: &Predicate) {
        let rows: Vec<u32> = (0..t.num_rows() as u32).collect();
        let mut mask = Vec::new();
        eval_mask(t, &rows, p, &mut mask).unwrap();
        for &row in &rows {
            assert_eq!(
                mask[row as usize],
                p.eval(t, row as usize).unwrap(),
                "row {row} of {p}"
            );
        }
    }

    #[test]
    fn kernels_match_reference_eval() {
        let t = table();
        let cases = vec![
            Predicate::eq("Make", "Ford"),
            Predicate::cmp("Make", CmpOp::Ne, "Ford"),
            Predicate::eq("Make", "Tesla"), // absent from dictionary
            Predicate::cmp("Make", CmpOp::Ne, "Tesla"),
            Predicate::cmp("Make", CmpOp::Lt, "Honda"), // string ordering fallback
            Predicate::cmp("Price", CmpOp::Gt, 24_000),
            Predicate::cmp("Price", CmpOp::Le, 25_000.5),
            Predicate::cmp("Rating", CmpOp::Ge, 4),
            Predicate::cmp("Price", CmpOp::Eq, "Ford"), // cross-type fallback
            Predicate::eq("Price", Value::Null),
            Predicate::between("Price", 20_000, 30_000),
            Predicate::between("Rating", 2.5, 4.5),
            Predicate::between("Price", Value::Null, Value::Int(30_000)),
            Predicate::between("Make", "F", "H"),
            Predicate::in_list("Make", vec!["Jeep".into(), "Honda".into(), "Tesla".into()]),
            Predicate::in_list("Make", vec![1.into()]),
            Predicate::in_list("Price", vec![25_000.into(), 22_000.0.into()]),
            Predicate::in_list("Rating", vec![3.into(), 4.5.into(), "x".into()]),
            Predicate::IsNull {
                attribute: "Make".into(),
            },
            Predicate::not(Predicate::eq("Make", "Ford")),
            Predicate::and(vec![
                Predicate::eq("Make", "Ford"),
                Predicate::cmp("Price", CmpOp::Gt, 20_000),
            ]),
            Predicate::or(vec![
                Predicate::eq("Make", "Jeep"),
                Predicate::cmp("Rating", CmpOp::Ge, 4.5),
            ]),
            Predicate::Const(true),
            Predicate::Const(false),
            Predicate::and(vec![]),
            Predicate::or(vec![]),
        ];
        for p in &cases {
            assert_matches_eval(&t, p);
        }
    }

    /// The key ranges resolved before the loop keep `total_cmp` at the
    /// edges: Float bounds on Int cells past 2^53, NaN of either sign,
    /// signed zeros and infinities.
    #[test]
    fn resolved_bounds_keep_total_cmp_at_the_edges() {
        let mut b = TableBuilder::new(vec![
            Field::new("I", DataType::Int),
            Field::new("F", DataType::Float),
        ])
        .unwrap();
        let ints = [i64::MIN, -1, 0, 1, (1 << 53) + 1, i64::MAX, 7];
        let inf = f64::INFINITY;
        let floats = [f64::NAN, -f64::NAN, -0.0, 0.0, inf, -inf, 1.5];
        for (i, f) in ints.into_iter().zip(floats) {
            b.push_row(vec![i.into(), f.into()]).unwrap();
        }
        b.push_row(vec![Value::Null, Value::Null]).unwrap();
        let t = b.finish();
        let mut bounds: Vec<Value> = floats.map(Value::Float).into();
        bounds.push(Value::Float(9_007_199_254_740_993.0));
        bounds.extend(ints.map(Value::Int));
        for attr in ["I", "F"] {
            for bound in &bounds {
                for op in (0..6).map(decode_op) {
                    assert_matches_eval(&t, &Predicate::cmp(attr, op, bound.clone()));
                }
                for high in &bounds {
                    let (low, high) = (bound.clone(), high.clone());
                    assert_matches_eval(&t, &Predicate::between(attr, low.clone(), high.clone()));
                    assert_matches_eval(&t, &Predicate::in_list(attr, vec![low, high]));
                }
            }
        }
    }

    #[test]
    fn gather_preserves_order_and_checks_bounds() {
        let data = [10u32, 11, 12, 13];
        assert_eq!(gather(&data, &[3, 0, 0, 2]), Some(vec![13, 10, 10, 12]));
        assert_eq!(gather(&data, &[]), Some(vec![]));
        assert_eq!(gather(&data, &[1, 4]), None);
        let mut out = vec![99u32];
        assert!(!gather_into(&data, &[9], &mut out));
        assert!(out.is_empty(), "failed gather must not leave stale values");
    }

    #[test]
    fn select_into_reuses_buffer() {
        let t = table();
        let rows: Vec<u32> = (0..t.num_rows() as u32).collect();
        let mut out = vec![99, 99, 99];
        select_into(&t, &rows, &Predicate::eq("Make", "Ford"), &mut out).unwrap();
        assert_eq!(out, vec![0, 3]);
        select_into(&t, &rows, &Predicate::Const(false), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = table();
        let rows = [0u32];
        let mut mask = Vec::new();
        assert!(eval_mask(&t, &rows, &Predicate::eq("Nope", 1), &mut mask).is_err());
        assert!(eval_mask(
            &t,
            &rows,
            &Predicate::not(Predicate::eq("Nope", 1)),
            &mut mask
        )
        .is_err());
    }

    /// Decodes a seed into a literal spanning every `Value` shape the
    /// kernels specialize on (and a string absent from the dictionary).
    fn decode_value(seed: u64) -> Value {
        match seed % 6 {
            0 => Value::Null,
            1 => Value::Int((seed / 7) as i64 % 50_000 - 25_000),
            2 => Value::Float((seed / 7 % 1_000) as f64 / 100.0 - 5.0),
            3 => Value::Str("Ford".into()),
            4 => Value::Str("Jeep".into()),
            _ => Value::Str("Tesla".into()),
        }
    }

    fn decode_op(seed: u64) -> CmpOp {
        match seed % 6 {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    proptest! {
        #[test]
        fn random_leaves_match_reference(
            attr_idx in 0usize..3,
            op_seed in 0u64..6,
            value_seed in 0u64..u64::MAX,
            low_seed in 0u64..u64::MAX,
            high_seed in 0u64..u64::MAX,
        ) {
            let t = table();
            let attr = t.schema().field(attr_idx).name.clone();
            let value = decode_value(value_seed);
            assert_matches_eval(&t, &Predicate::Compare {
                attribute: attr.clone(),
                op: decode_op(op_seed),
                value: value.clone(),
            });
            assert_matches_eval(&t, &Predicate::Between {
                attribute: attr.clone(),
                low: decode_value(low_seed),
                high: decode_value(high_seed),
            });
            assert_matches_eval(&t, &Predicate::In {
                attribute: attr,
                values: vec![value],
            });
        }
    }
}
