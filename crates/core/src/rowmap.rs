//! Data-row allocation within a subarray.
//!
//! ELP2IM's headline capacity advantage (§5.2, Fig. 9) is that only one
//! physical row per subarray is reserved (the dual-contact row), versus
//! Ambit's 8-row B-group + 2-row C-group; the allocator tracks how many
//! rows are usable for data.

use crate::error::CoreError;

/// A free-list allocator over a subarray's data rows.
///
/// ```
/// use elp2im_core::rowmap::RowAllocator;
/// let mut alloc = RowAllocator::new(4);
/// let r0 = alloc.alloc().unwrap();
/// let r1 = alloc.alloc().unwrap();
/// assert_ne!(r0, r1);
/// alloc.free(r0).unwrap();
/// assert_eq!(alloc.live(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RowAllocator {
    total: usize,
    free: Vec<usize>,
    /// Packed bitset: bit `i` set iff row `i` is allocated.
    allocated: Vec<u64>,
}

impl RowAllocator {
    /// An allocator over `rows` data rows, all initially free.
    pub fn new(rows: usize) -> Self {
        RowAllocator {
            total: rows,
            free: (0..rows).rev().collect(),
            allocated: vec![0; rows.div_ceil(64)],
        }
    }

    /// Total data rows managed.
    pub fn capacity(&self) -> usize {
        self.total
    }

    /// Currently allocated row count.
    pub fn live(&self) -> usize {
        self.total - self.free.len()
    }

    /// Whether `row` is currently allocated.
    pub fn is_allocated(&self, row: usize) -> bool {
        self.allocated.get(row / 64).is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// The allocated rows as a packed bitset (bit `i` of word `i / 64` is
    /// row `i`).
    pub(crate) fn allocated_words(&self) -> &[u64] {
        &self.allocated
    }

    /// Allocates a free row.
    ///
    /// # Errors
    ///
    /// [`CoreError::CapacityExceeded`] when every row is in use.
    pub fn alloc(&mut self) -> Result<usize, CoreError> {
        let row = self.free.pop().ok_or(CoreError::CapacityExceeded { rows: self.total })?;
        self.allocated[row / 64] |= 1 << (row % 64);
        Ok(row)
    }

    /// Frees a previously allocated row.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] if the row is not currently allocated.
    pub fn free(&mut self, row: usize) -> Result<(), CoreError> {
        if !self.is_allocated(row) {
            return Err(CoreError::InvalidHandle(row));
        }
        self.allocated[row / 64] &= !(1 << (row % 64));
        self.free.push(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let mut a = RowAllocator::new(3);
        let rows: Vec<_> = (0..3).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(a.live(), 3);
        assert!(matches!(a.alloc(), Err(CoreError::CapacityExceeded { rows: 3 })));
        // All distinct.
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn free_and_reuse() {
        let mut a = RowAllocator::new(2);
        let r = a.alloc().unwrap();
        a.free(r).unwrap();
        assert!(!a.is_allocated(r));
        let r2 = a.alloc().unwrap();
        let _ = a.alloc().unwrap();
        assert!(a.is_allocated(r2));
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = RowAllocator::new(2);
        let r = a.alloc().unwrap();
        a.free(r).unwrap();
        assert!(matches!(a.free(r), Err(CoreError::InvalidHandle(_))));
        assert!(matches!(a.free(99), Err(CoreError::InvalidHandle(99))));
    }
}
