//! Shared, immutable page frames.
//!
//! A [`PageFrame`] is the zero-copy counterpart of [`crate::page::Page`]:
//! instead of owning a freshly copied `Vec<u8>`, it holds a cheaply
//! clonable reference to bytes that live elsewhere — an `Arc<[u8]>` shared
//! with the in-memory store, or a slice of an `mmap`ed region of the data
//! file. Cloning a frame is a reference-count bump; the page bytes are
//! copied at most once, and for the memory-store and mmap paths not at all.
//!
//! Frames are immutable. Writers keep using [`crate::page::Page`] (and the
//! stores keep their copy-on-write discipline: the memory store replaces the
//! shared buffer on write rather than mutating it), so a frame observed by a
//! reader never changes underneath it.

use crate::mmap::Mapping;
use crate::page::PageId;
use std::sync::Arc;

/// Where a frame's bytes live.
#[derive(Debug, Clone)]
enum FrameBytes {
    /// A shared heap buffer (memory store, and the copy a store without a
    /// shareable representation reads into).
    Shared(Arc<[u8]>),
    /// A window into an `mmap`ed region of the data file.
    Mapped {
        map: Arc<Mapping>,
        offset: usize,
        len: usize,
    },
}

/// A cheaply-clonable, immutable view of one page's bytes.
#[derive(Debug, Clone)]
pub struct PageFrame {
    id: PageId,
    copied: bool,
    bytes: FrameBytes,
}

impl PageFrame {
    /// Wraps bytes that were copied out of the store (the legacy path and
    /// the fallback for stores without a shared representation).
    pub fn copied(id: PageId, data: Vec<u8>) -> PageFrame {
        PageFrame {
            id,
            copied: true,
            bytes: FrameBytes::Shared(data.into()),
        }
    }

    /// Wraps a buffer shared with the store — no bytes were copied.
    pub fn shared(id: PageId, data: Arc<[u8]>) -> PageFrame {
        PageFrame {
            id,
            copied: false,
            bytes: FrameBytes::Shared(data),
        }
    }

    /// Wraps a window of an `mmap`ed file region — no bytes were copied.
    ///
    /// The caller asserts `offset + len` lies within both the mapping and
    /// the file's current length (see the safety contract in [`crate::mmap`]).
    pub fn mapped(id: PageId, map: Arc<Mapping>, offset: usize, len: usize) -> PageFrame {
        debug_assert!(offset + len <= map.len());
        PageFrame {
            id,
            copied: false,
            bytes: FrameBytes::Mapped { map, offset, len },
        }
    }

    /// The page this frame holds.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// The page bytes.
    pub fn data(&self) -> &[u8] {
        match &self.bytes {
            FrameBytes::Shared(data) => data,
            FrameBytes::Mapped { map, offset, len } => &map.data()[*offset..*offset + *len],
        }
    }

    /// Length of the page in bytes.
    pub fn len(&self) -> usize {
        match &self.bytes {
            FrameBytes::Shared(data) => data.len(),
            FrameBytes::Mapped { len, .. } => *len,
        }
    }

    /// Whether the frame holds an empty page.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether producing this frame copied the page bytes (`true` on the
    /// legacy/fallback path) or shared them zero-copy (`false`).
    pub fn is_copied(&self) -> bool {
        self.copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copied_frames_own_their_bytes() {
        let frame = PageFrame::copied(3, vec![1, 2, 3]);
        assert_eq!(frame.id(), 3);
        assert_eq!(frame.data(), &[1, 2, 3]);
        assert_eq!(frame.len(), 3);
        assert!(frame.is_copied());
    }

    #[test]
    fn shared_frames_alias_the_buffer() {
        let bytes: Arc<[u8]> = vec![9u8; 8].into();
        let frame = PageFrame::shared(0, Arc::clone(&bytes));
        assert!(!frame.is_copied());
        let clone = frame.clone();
        assert_eq!(clone.data().as_ptr(), frame.data().as_ptr());
        assert_eq!(Arc::strong_count(&bytes), 3);
    }
}
