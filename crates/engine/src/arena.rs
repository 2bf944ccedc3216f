//! The append-only chunked arena behind every per-row array of a
//! [`crate::SketchStore`].
//!
//! Rows live in fixed-size chunks of [`CHUNK_ROWS`] rows behind `Arc`.
//! A full chunk is **sealed**: immutable forever and shared by every
//! clone. Only the open tail chunk is written, copy-on-write: when a
//! clone still holds it, the next append first copies it into a fresh
//! buffer of full chunk capacity. Sealed chunks are grouped into
//! `Arc`-shared blocks of `BLOCK_CHUNKS`, so the pointer lists a clone
//! shares are copied only in small pieces: the open block's list
//! (fewer than `BLOCK_CHUNKS` pointers) when a chunk seals, the list of
//! full blocks when a block fills.
//!
//! So cloning an arena copies three pointers, whatever its size — that
//! is what makes snapshot publication O(1) in the store size — and an
//! append costs at most one copy of the open chunk plus, amortized,
//! O(1 + n / (`CHUNK_ROWS` · `BLOCK_CHUNKS`)²) pointer copies. Row
//! order and row contents are exactly those of a flat `Vec`.

use std::sync::Arc;

/// Rows per store chunk: a power of two, so a row index splits into
/// chunk and offset with a shift and a mask.
pub const CHUNK_ROWS: usize = 64;

/// Sealed chunks per block.
const BLOCK_CHUNKS: usize = 64;

type Chunk<T> = Arc<Vec<T>>;
type Block<T> = Arc<Vec<Chunk<T>>>;

/// An append-only sequence of equal-length rows, stored in
/// `Arc`-shared chunks of [`CHUNK_ROWS`] rows (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Arena<T> {
    /// Elements per row, fixed by the first row pushed.
    stride: usize,
    /// Number of rows.
    rows: usize,
    /// Full blocks, each `BLOCK_CHUNKS` sealed chunks of exactly
    /// `CHUNK_ROWS * stride` elements.
    blocks: Arc<Vec<Block<T>>>,
    /// The open block: sealed chunks after the last full block.
    sealed: Block<T>,
    /// The open chunk: the last `rows % CHUNK_ROWS` rows.
    tail: Chunk<T>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self {
            stride: 0,
            rows: 0,
            blocks: Arc::default(),
            sealed: Arc::default(),
            tail: Arc::default(),
        }
    }
}

/// The chunk slices of an arena, oldest first (the open tail last,
/// possibly empty).
pub(crate) struct Chunks<'a, T> {
    arena: &'a Arena<T>,
    next: usize,
}

impl<'a, T: Copy> Iterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        if self.next > self.arena.rows / CHUNK_ROWS {
            return None;
        }
        self.next += 1;
        Some(self.arena.chunk(self.next - 1))
    }
}

impl<T: Copy> Arena<T> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Rows held in sealed chunks (the open tail starts here).
    pub(crate) fn sealed_rows(&self) -> usize {
        self.rows / CHUNK_ROWS * CHUNK_ROWS
    }

    /// Chunk `c`'s elements: a sealed chunk, or the open tail for
    /// `c == rows / CHUNK_ROWS`.
    fn chunk(&self, c: usize) -> &[T] {
        let block = self.blocks.get(c / BLOCK_CHUNKS).unwrap_or(&self.sealed);
        block.get(c % BLOCK_CHUNKS).unwrap_or(&self.tail)
    }

    /// One row's elements.
    ///
    /// # Panics
    /// If `row` is out of range.
    pub(crate) fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of range ({})", self.rows);
        let offset = row % CHUNK_ROWS;
        &self.chunk(row / CHUNK_ROWS)[offset * self.stride..(offset + 1) * self.stride]
    }

    /// The first element of a row (the whole row when the stride is 1).
    ///
    /// # Panics
    /// If `row` is out of range.
    pub(crate) fn at(&self, row: usize) -> T {
        self.row(row)[0]
    }

    /// The open tail chunk's elements.
    pub(crate) fn tail(&self) -> &[T] {
        &self.tail
    }

    /// Every chunk's elements, in row order.
    pub(crate) fn chunks(&self) -> Chunks<'_, T> {
        Chunks {
            arena: self,
            next: 0,
        }
    }

    /// Append a row; returns whether it sealed a chunk.
    ///
    /// # Panics
    /// If `row`'s length differs from the first row's.
    pub(crate) fn push(&mut self, row: &[T]) -> bool {
        if self.rows == 0 {
            self.stride = row.len();
        }
        assert_eq!(row.len(), self.stride, "every arena row has one stride");
        let capacity = CHUNK_ROWS * self.stride;
        if Arc::get_mut(&mut self.tail).is_none() {
            // A clone still reads the open chunk: copy it, with room
            // for the whole chunk so the copy is never regrown.
            let mut open = Vec::with_capacity(capacity);
            open.extend_from_slice(&self.tail);
            self.tail = Arc::new(open);
        }
        let tail = Arc::get_mut(&mut self.tail).expect("the open chunk is unshared after the copy");
        if tail.capacity() < capacity {
            tail.reserve_exact(capacity - tail.len());
        }
        tail.extend_from_slice(row);
        self.rows += 1;
        if !self.rows.is_multiple_of(CHUNK_ROWS) {
            return false;
        }
        let full = std::mem::take(&mut self.tail);
        let sealed = Arc::make_mut(&mut self.sealed);
        sealed.push(full);
        if sealed.len() == BLOCK_CHUNKS {
            let block = std::mem::take(&mut self.sealed);
            Arc::make_mut(&mut self.blocks).push(block);
        }
        true
    }
}

impl<'a, T: Copy> IntoIterator for &'a Arena<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<Chunks<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, stride: usize) -> Arena<u64> {
        let mut arena = Arena::default();
        for r in 0..rows {
            let row: Vec<u64> = (0..stride).map(|j| (r * stride + j) as u64).collect();
            arena.push(&row);
        }
        arena
    }

    #[test]
    fn rows_and_iteration_match_a_flat_vec() {
        let block = BLOCK_CHUNKS * CHUNK_ROWS;
        for rows in [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            3 * CHUNK_ROWS + 5,
            block,
            2 * block + CHUNK_ROWS + 3,
        ] {
            let arena = filled(rows, 3);
            assert_eq!(arena.len(), rows);
            let flat: Vec<u64> = (0..(rows * 3) as u64).collect();
            assert_eq!(arena.into_iter().copied().collect::<Vec<_>>(), flat);
            for r in 0..rows {
                assert_eq!(arena.row(r), &flat[r * 3..(r + 1) * 3]);
            }
            assert_eq!(arena.sealed_rows(), rows / CHUNK_ROWS * CHUNK_ROWS);
            assert_eq!(arena.tail().len(), (rows % CHUNK_ROWS) * 3);
            assert_eq!(arena.chunks().count(), rows / CHUNK_ROWS + 1);
        }
    }

    #[test]
    fn clones_share_sealed_chunks_and_never_see_later_rows() {
        let mut arena = filled(CHUNK_ROWS + 2, 2);
        let frozen = arena.clone();
        assert!(Arc::ptr_eq(&arena.sealed, &frozen.sealed));
        assert!(Arc::ptr_eq(&arena.tail, &frozen.tail));
        // Appending copies the shared open chunk, at full capacity.
        arena.push(&[7, 7]);
        assert!(!Arc::ptr_eq(&arena.tail, &frozen.tail));
        assert_eq!(arena.tail.capacity(), CHUNK_ROWS * 2);
        // Sealing copies the shared pointer lists, never the chunks,
        // and a full block moves into the block list whole.
        while arena.len() < BLOCK_CHUNKS * CHUNK_ROWS + 1 {
            arena.push(&[9, 9]);
        }
        assert!(Arc::ptr_eq(&arena.blocks[0][0], &frozen.sealed[0]));
        assert_eq!(arena.sealed.len(), 0);
        let flat = filled(CHUNK_ROWS + 2, 2);
        assert_eq!(frozen.len(), CHUNK_ROWS + 2);
        for r in 0..frozen.len() {
            assert_eq!(frozen.row(r), flat.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_past_the_end_panic_even_inside_the_open_chunk() {
        let arena = filled(3, 1);
        let _ = arena.row(3);
    }

    #[test]
    fn zero_stride_rows_are_counted() {
        let mut arena: Arena<f64> = Arena::default();
        for _ in 0..CHUNK_ROWS + 1 {
            arena.push(&[]);
        }
        assert_eq!(arena.len(), CHUNK_ROWS + 1);
        assert!(arena.row(CHUNK_ROWS).is_empty());
    }
}
