//! A miniature in-memory-database layer over an ELP2IM subarray — the
//! §6.3.2 table-scan scenario grown into the interface a database engine
//! would actually use: device-resident vertical columns, compound
//! predicates, and COUNT/SUM aggregation with the CPU doing only the
//! final counting (exactly the paper's split of work).

use crate::bitweaving::{compare_on_array, Predicate, VerticalLayout};
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;
use std::fmt;

/// A compound predicate over table columns.
#[derive(Debug, Clone)]
pub enum QueryPredicate {
    /// `column <op> constant`.
    Cmp {
        /// Column name.
        column: String,
        /// Comparison.
        pred: Predicate,
        /// Constant operand.
        constant: u64,
    },
    /// Conjunction.
    And(Box<QueryPredicate>, Box<QueryPredicate>),
    /// Disjunction.
    Or(Box<QueryPredicate>, Box<QueryPredicate>),
    /// Negation.
    Not(Box<QueryPredicate>),
}

impl QueryPredicate {
    /// `column <op> constant` leaf.
    pub fn cmp(column: &str, pred: Predicate, constant: u64) -> QueryPredicate {
        QueryPredicate::Cmp { column: column.to_string(), pred, constant }
    }

    /// `self AND other`.
    pub fn and(self, other: QueryPredicate) -> QueryPredicate {
        QueryPredicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: QueryPredicate) -> QueryPredicate {
        QueryPredicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn negate(self) -> QueryPredicate {
        QueryPredicate::Not(Box::new(self))
    }
}

impl fmt::Display for QueryPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryPredicate::Cmp { column, pred, constant } => {
                let op = match pred {
                    Predicate::Lt => "<",
                    Predicate::Le => "<=",
                    Predicate::Gt => ">",
                    Predicate::Ge => ">=",
                    Predicate::Eq => "=",
                    Predicate::Ne => "!=",
                };
                write!(f, "{column} {op} {constant}")
            }
            QueryPredicate::And(a, b) => write!(f, "({a} AND {b})"),
            QueryPredicate::Or(a, b) => write!(f, "({a} OR {b})"),
            QueryPredicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

struct Column {
    name: String,
    width: u32,
    values: Vec<u64>,
    planes: Vec<BatchHandle>,
}

/// A device-resident table with vertically laid out columns.
///
/// ```
/// use elp2im_apps::query::{InMemoryTable, QueryPredicate};
/// use elp2im_apps::bitweaving::Predicate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = InMemoryTable::new(4)?;
/// t.add_column("age", 7, &[25, 63, 17, 40])?;
/// t.add_column("score", 4, &[9, 2, 9, 5])?;
/// let q = QueryPredicate::cmp("age", Predicate::Ge, 18)
///     .and(QueryPredicate::cmp("score", Predicate::Gt, 4));
/// assert_eq!(t.count_where(&q)?, 2); // rows 0 and 3
/// # Ok(())
/// # }
/// ```
pub struct InMemoryTable {
    dev: DeviceArray,
    rows: usize,
    columns: Vec<Column>,
}

impl fmt::Debug for InMemoryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InMemoryTable")
            .field("rows", &self.rows)
            .field("columns", &self.columns.iter().map(|c| &c.name).collect::<Vec<_>>())
            .finish()
    }
}

impl InMemoryTable {
    /// Creates an empty table for `rows` records.
    ///
    /// # Errors
    ///
    /// Device construction cannot fail; kept fallible for future sharding.
    pub fn new(rows: usize) -> Result<Self, CoreError> {
        // One subarray whose rows hold a whole column plane.
        let dev = DeviceArray::new(BatchConfig {
            reserved_rows: 2,
            ..BatchConfig::subarray(rows.div_ceil(8).max(1), 512)
        });
        Ok(InMemoryTable { dev, rows, columns: Vec::new() })
    }

    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Adds a `width`-bit column, storing its bit-planes in the device.
    ///
    /// # Errors
    ///
    /// Capacity errors propagate.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the table's row count or a
    /// value does not fit `width` bits.
    pub fn add_column(&mut self, name: &str, width: u32, values: &[u64]) -> Result<(), CoreError> {
        assert_eq!(values.len(), self.rows, "one value per record");
        let layout = VerticalLayout::from_values(values, width);
        let planes =
            layout.planes().iter().map(|p| self.dev.store(p)).collect::<Result<Vec<_>, _>>()?;
        self.columns.push(Column {
            name: name.to_string(),
            width,
            values: values.to_vec(),
            planes,
        });
        Ok(())
    }

    fn column(&self, name: &str) -> Result<&Column, CoreError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| CoreError::UnknownColumn(name.to_string()))
    }

    /// Checks that every leaf of `q` names a known column and a constant
    /// that fits it, so a bad predicate fails before anything runs.
    fn check(&self, q: &QueryPredicate) -> Result<(), CoreError> {
        match q {
            QueryPredicate::Cmp { column, constant, .. } => {
                let width = self.column(column)?.width;
                if constant >> width != 0 {
                    return Err(CoreError::ConstantOutOfRange { constant: *constant, width });
                }
                Ok(())
            }
            QueryPredicate::And(a, b) | QueryPredicate::Or(a, b) => {
                self.check(a)?;
                self.check(b)
            }
            QueryPredicate::Not(p) => self.check(p),
        }
    }

    /// Evaluates a predicate in-DRAM, returning the selection mask handle.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownColumn`] for a column the table lacks, and
    /// [`CoreError::ConstantOutOfRange`] for a comparison constant wider
    /// than its column; both are reported before any device work.
    pub fn selection_mask(&mut self, q: &QueryPredicate) -> Result<BatchHandle, CoreError> {
        self.check(q)?;
        self.mask(q)
    }

    /// [`InMemoryTable::selection_mask`] of an already checked predicate.
    fn mask(&mut self, q: &QueryPredicate) -> Result<BatchHandle, CoreError> {
        match q {
            QueryPredicate::Cmp { column, pred, constant } => {
                let planes = self.column(column)?.planes.clone();
                compare_on_array(&mut self.dev, &planes, *pred, *constant, self.rows)
            }
            QueryPredicate::And(a, b) | QueryPredicate::Or(a, b) => {
                let op =
                    if matches!(q, QueryPredicate::And(..)) { LogicOp::And } else { LogicOp::Or };
                let ma = self.mask(a)?;
                let mb = self.mask(b)?;
                let (m, _) = self.dev.binary(op, ma, mb)?;
                self.dev.release(ma)?;
                self.dev.release(mb)?;
                Ok(m)
            }
            QueryPredicate::Not(p) => {
                let mp = self.mask(p)?;
                let (m, _) = self.dev.not(mp)?;
                self.dev.release(mp)?;
                Ok(m)
            }
        }
    }

    /// `SELECT COUNT(*) WHERE q` — predicate in-DRAM, count on the CPU
    /// (the paper's division of labor).
    ///
    /// # Errors
    ///
    /// See [`InMemoryTable::selection_mask`].
    pub fn count_where(&mut self, q: &QueryPredicate) -> Result<usize, CoreError> {
        let mask = self.selection_mask(q)?;
        let n = self.dev.load(mask)?.count_ones();
        self.dev.release(mask)?;
        Ok(n)
    }

    /// `SELECT SUM(column) WHERE q` — ANDs each bit-plane with the
    /// selection in-DRAM; the CPU weighs the plane popcounts by 2^bit.
    ///
    /// # Errors
    ///
    /// See [`InMemoryTable::selection_mask`].
    pub fn sum_where(&mut self, column: &str, q: &QueryPredicate) -> Result<u64, CoreError> {
        let (planes, width) = {
            let c = self.column(column)?;
            (c.planes.clone(), c.width)
        };
        let mask = self.selection_mask(q)?;
        let mut sum = 0u64;
        for (i, &plane) in planes.iter().enumerate() {
            let (selected, _) = self.dev.binary(LogicOp::And, plane, mask)?;
            let ones = self.dev.load(selected)?.count_ones() as u64;
            self.dev.release(selected)?;
            let bit = width - 1 - i as u32; // planes are MSB first
            sum += ones << bit;
        }
        self.dev.release(mask)?;
        Ok(sum)
    }

    /// `SELECT value, COUNT(*) GROUP BY column [WHERE q]` — one in-DRAM
    /// equality scan per distinct value (BitWeaving's group-by strategy
    /// for low-cardinality columns).
    ///
    /// # Errors
    ///
    /// See [`InMemoryTable::selection_mask`].
    pub fn group_count(
        &mut self,
        column: &str,
        filter: Option<&QueryPredicate>,
    ) -> Result<Vec<(u64, usize)>, CoreError> {
        let width = self.column(column)?.width;
        let mask = match filter {
            Some(q) => Some(self.selection_mask(q)?),
            None => None,
        };
        let mut groups = Vec::new();
        for value in 0..(1u64 << width) {
            let q = QueryPredicate::cmp(column, Predicate::Eq, value);
            let m = self.selection_mask(&q)?;
            let counted = match mask {
                Some(f) => {
                    let (joint, _) = self.dev.binary(LogicOp::And, m, f)?;
                    let n = self.dev.load(joint)?.count_ones();
                    self.dev.release(joint)?;
                    n
                }
                None => self.dev.load(m)?.count_ones(),
            };
            self.dev.release(m)?;
            if counted > 0 {
                groups.push((value, counted));
            }
        }
        if let Some(f) = mask {
            self.dev.release(f)?;
        }
        Ok(groups)
    }

    /// Scalar reference evaluation (for verification).
    pub fn count_where_scalar(&self, q: &QueryPredicate) -> usize {
        (0..self.rows).filter(|&r| self.eval_scalar(q, r)).count()
    }

    /// Scalar reference SUM.
    pub fn sum_where_scalar(&self, column: &str, q: &QueryPredicate) -> u64 {
        let c = self.column(column).expect("known column");
        (0..self.rows).filter(|&r| self.eval_scalar(q, r)).map(|r| c.values[r]).sum()
    }

    fn eval_scalar(&self, q: &QueryPredicate, row: usize) -> bool {
        match q {
            QueryPredicate::Cmp { column, pred, constant } => {
                let c = self.column(column).expect("known column");
                pred.eval(c.values[row], *constant)
            }
            QueryPredicate::And(a, b) => self.eval_scalar(a, row) && self.eval_scalar(b, row),
            QueryPredicate::Or(a, b) => self.eval_scalar(a, row) || self.eval_scalar(b, row),
            QueryPredicate::Not(p) => !self.eval_scalar(p, row),
        }
    }

    /// Substrate statistics accumulated by all queries so far.
    pub fn device_stats(&self) -> &elp2im_dram::stats::RunStats {
        self.dev.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn table(rows: usize) -> InMemoryTable {
        let mut rng = workload::rng(31);
        let mut t = InMemoryTable::new(rows).unwrap();
        t.add_column("age", 7, &workload::random_values(&mut rng, rows, 7)).unwrap();
        t.add_column("score", 5, &workload::random_values(&mut rng, rows, 5)).unwrap();
        t.add_column("region", 3, &workload::random_values(&mut rng, rows, 3)).unwrap();
        t
    }

    #[test]
    fn simple_counts_match_scalar() {
        let mut t = table(256);
        for (pred, c) in
            [(Predicate::Lt, 40u64), (Predicate::Ge, 90), (Predicate::Eq, 17), (Predicate::Ne, 17)]
        {
            let q = QueryPredicate::cmp("age", pred, c);
            assert_eq!(t.count_where(&q).unwrap(), t.count_where_scalar(&q), "{q}");
        }
    }

    #[test]
    fn compound_predicates_match_scalar() {
        let mut t = table(200);
        let q = QueryPredicate::cmp("age", Predicate::Ge, 18)
            .and(QueryPredicate::cmp("score", Predicate::Gt, 12))
            .or(QueryPredicate::cmp("region", Predicate::Eq, 3)
                .and(QueryPredicate::cmp("age", Predicate::Lt, 65).negate()));
        assert_eq!(t.count_where(&q).unwrap(), t.count_where_scalar(&q), "{q}");
    }

    #[test]
    fn sums_match_scalar() {
        let mut t = table(128);
        let q = QueryPredicate::cmp("score", Predicate::Ge, 8);
        assert_eq!(t.sum_where("age", &q).unwrap(), t.sum_where_scalar("age", &q), "{q}");
        // Sum over everything (tautology).
        let all = QueryPredicate::cmp("age", Predicate::Ge, 0);
        assert_eq!(t.sum_where("score", &all).unwrap(), t.sum_where_scalar("score", &all));
    }

    #[test]
    fn group_counts_match_scalar() {
        let mut t = table(300);
        let groups = t.group_count("region", None).unwrap();
        let total: usize = groups.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 300, "every record belongs to one group");
        for &(value, n) in &groups {
            let q = QueryPredicate::cmp("region", Predicate::Eq, value);
            assert_eq!(n, t.count_where_scalar(&q), "group {value}");
        }
        // Filtered group-by.
        let filter = QueryPredicate::cmp("age", Predicate::Lt, 64);
        let filtered = t.group_count("region", Some(&filter)).unwrap();
        for &(value, n) in &filtered {
            let q = QueryPredicate::cmp("region", Predicate::Eq, value).and(filter.clone());
            assert_eq!(n, t.count_where_scalar(&q), "filtered group {value}");
        }
    }

    #[test]
    fn unknown_column_is_an_error() {
        let mut t = table(16);
        let q = QueryPredicate::cmp("salary", Predicate::Lt, 10);
        assert_eq!(t.count_where(&q), Err(CoreError::UnknownColumn("salary".into())));
        assert_eq!(t.group_count("salary", None), Err(CoreError::UnknownColumn("salary".into())));
    }

    #[test]
    fn oversized_constant_is_an_error() {
        let mut t = table(16);
        // "region" is 3 bits wide: 7 fits, 8 does not.
        assert!(t.count_where(&QueryPredicate::cmp("region", Predicate::Le, 7)).is_ok());
        let q = QueryPredicate::cmp("age", Predicate::Ge, 0).and(QueryPredicate::cmp(
            "region",
            Predicate::Lt,
            8,
        ));
        assert_eq!(t.count_where(&q), Err(CoreError::ConstantOutOfRange { constant: 8, width: 3 }));
    }

    #[test]
    fn device_stats_accumulate() {
        let mut t = table(64);
        let before = t.device_stats().total_commands();
        let q = QueryPredicate::cmp("age", Predicate::Lt, 50);
        let _ = t.count_where(&q).unwrap();
        assert!(t.device_stats().total_commands() > before);
    }

    #[test]
    fn predicate_display_reads_like_sql() {
        let q = QueryPredicate::cmp("age", Predicate::Ge, 18)
            .and(QueryPredicate::cmp("score", Predicate::Lt, 5).negate());
        assert_eq!(q.to_string(), "(age >= 18 AND NOT (score < 5))");
    }
}
