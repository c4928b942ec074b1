//! CPU/NPU shared memory buffers with one-way cache coherence.
//!
//! The paper's runtime communicates between llama.cpp on the CPU and the NPU
//! operator library through `rpcmem` shared memory (a dmabuf wrapper). On
//! Snapdragon SoCs coherence is one-way: NPU writes become visible to the
//! CPU, but after the CPU writes, the NPU's cache must be explicitly
//! invalidated ("we manually clear the cache before NPU polls", Section 6).
//! [`SharedBuffer`] models that protocol and faults any NPU read of a
//! region the CPU dirtied but did not clean — turning a class of silent
//! data-corruption bugs into test failures.

use crate::error::{SimError, SimResult};

/// A CPU/NPU shared memory region (rpcmem/dmabuf analog).
#[derive(Debug)]
pub struct SharedBuffer {
    id: u64,
    data: Vec<u8>,
    /// CPU wrote since the last cache clean; NPU reads are stale.
    cpu_dirty: bool,
}

impl SharedBuffer {
    /// Allocates a zeroed shared buffer of `size` bytes.
    pub fn new(id: u64, size: usize) -> Self {
        SharedBuffer {
            id,
            data: vec![0u8; size],
            cpu_dirty: false,
        }
    }

    /// Buffer identifier (dmabuf fd analog).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes from the CPU side. Marks the buffer dirty: the NPU must not
    /// read until [`SharedBuffer::cache_clean`] is called.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn cpu_write(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.cpu_dirty = true;
    }

    /// Reads from the CPU side. NPU writes are immediately visible (the
    /// one-way coherent direction), so this never faults.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn cpu_read(&self, offset: usize, len: usize) -> &[u8] {
        &self.data[offset..offset + len]
    }

    /// Flushes CPU caches so the NPU observes the latest CPU writes.
    pub fn cache_clean(&mut self) {
        self.cpu_dirty = false;
    }

    /// Reads from the NPU side.
    ///
    /// Returns [`SimError::CoherenceViolation`] if the CPU wrote since the
    /// last [`SharedBuffer::cache_clean`]: real hardware would silently
    /// return stale bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn npu_read(&self, offset: usize, len: usize) -> SimResult<&[u8]> {
        if self.cpu_dirty {
            return Err(SimError::CoherenceViolation { buffer: self.id });
        }
        Ok(&self.data[offset..offset + len])
    }

    /// Writes from the NPU side; visible to the CPU without maintenance.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn npu_write(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_handoff_roundtrips() {
        let mut buf = SharedBuffer::new(7, 64);
        buf.cpu_write(0, &[1, 2, 3, 4]);
        buf.cache_clean();
        assert_eq!(buf.npu_read(0, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn strict_mode_faults_stale_reads() {
        let mut buf = SharedBuffer::new(9, 64);
        buf.cpu_write(0, &[1]);
        let err = buf.npu_read(0, 1).unwrap_err();
        assert_eq!(err, SimError::CoherenceViolation { buffer: 9 });
    }

    #[test]
    fn npu_writes_are_cpu_visible_without_maintenance() {
        let mut buf = SharedBuffer::new(1, 16);
        buf.npu_write(4, &[9, 9]);
        assert_eq!(buf.cpu_read(4, 2), &[9, 9]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_cpu_write_panics() {
        let mut buf = SharedBuffer::new(1, 4);
        buf.cpu_write(2, &[0, 0, 0]);
    }
}
