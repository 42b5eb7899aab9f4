//! [`Row`]: one result tuple as a [`crate::ResultStream`] hands it out.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use triejax_relation::Value;

/// One result tuple of a stream, in head-variable order.
///
/// A row of up to [`Row::INLINE`] values lives inside the `Row` itself, so
/// pulling it from a stream allocates nothing; a wider one falls back to a
/// boxed slice. Either way it reads as a `&[Value]` ([`Deref`]), compares,
/// orders and hashes like that slice, equals a `Vec<Value>` of the same
/// values and converts into one.
///
/// # Example
///
/// ```
/// use triejax_join::Row;
///
/// let row = Row::from(&[3, 1, 4][..]);
/// assert_eq!(row.len(), 3); // through Deref to [Value]
/// assert_eq!(row, vec![3, 1, 4]);
/// assert!(row < Row::from(&[3, 2][..]));
/// assert_eq!(Vec::from(row), vec![3, 1, 4]);
/// ```
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        values: [Value; Row::INLINE],
    },
    Heap(Box<[Value]>),
}

impl Row {
    /// The most values a row holds without a heap allocation: every paper
    /// pattern binds at most four variables.
    pub const INLINE: usize = 6;

    #[inline]
    fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl From<&[Value]> for Row {
    #[inline]
    fn from(values: &[Value]) -> Self {
        if values.len() > Row::INLINE {
            return Row(Repr::Heap(values.into()));
        }
        // Element by element with a fixed trip count: a per-row memcpy call
        // of a variable length costs more than the row's whole copy.
        Row(Repr::Inline {
            len: values.len() as u8,
            values: std::array::from_fn(|i| values.get(i).copied().unwrap_or(0)),
        })
    }
}

impl From<Row> for Vec<Value> {
    fn from(row: Row) -> Self {
        match row.0 {
            Repr::Heap(values) => values.into_vec(),
            Repr::Inline { .. } => row.as_slice().to_vec(),
        }
    }
}

impl Deref for Row {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Row) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<Vec<Value>> for Row {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Row> for Vec<Value> {
    fn eq(&self, other: &Row) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_heap_rows_read_compare_and_convert_alike() {
        let narrow: Vec<Value> = (0..Row::INLINE as Value).collect();
        let wide: Vec<Value> = (0..=Row::INLINE as Value).collect();
        for values in [vec![], narrow, wide] {
            let row = Row::from(values.as_slice());
            assert!(matches!(row.0, Repr::Heap(_)) == (values.len() > Row::INLINE));
            assert_eq!(&*row, values.as_slice());
            assert_eq!(row, values);
            assert_eq!(values, row);
            assert_eq!(format!("{row:?}"), format!("{values:?}"));
            assert_eq!(Vec::from(row), values);
        }
    }

    #[test]
    fn rows_order_and_hash_like_their_slices() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let short = Row::from(&[1, 2][..]);
        let long = Row::from(&[1, 2, 0][..]);
        let wide = Row::from(&[1, 2, 3, 4, 5, 6, 7][..]);
        assert!(short < long && long < wide, "lexicographic, prefix first");
        assert_eq!(short.cmp(&short.clone()), std::cmp::Ordering::Equal);
        for row in [short, long, wide] {
            assert_eq!(hash(&|s| row.hash(s)), hash(&|s| row.as_slice().hash(s)));
        }
    }
}
