//! Shared, immutable page frames.
//!
//! A [`PageFrame`] is the zero-copy counterpart of [`crate::page::Page`]:
//! instead of owning a freshly copied `Vec<u8>`, it holds an `Arc<[u8]>` —
//! either the buffer the in-memory store keeps the page in, or the one
//! buffer a file store reads the page into. Cloning a frame is a
//! reference-count bump; the page bytes are copied at most once (the file
//! store's read) and for the memory store not at all.
//!
//! Frames are immutable, and they are the only way a page is read. Writers
//! keep using [`crate::page::Page`] — a new one, or one copied from a frame
//! ([`PageFrame::to_page`]) — and the stores keep their copy-on-write
//! discipline (the memory store replaces the shared buffer on write rather
//! than mutating it), so a frame observed by a reader never changes
//! underneath it.

use crate::page::{Page, PageId};
use std::sync::Arc;

/// A cheaply-clonable, immutable view of one page's bytes.
#[derive(Debug, Clone)]
pub struct PageFrame {
    id: PageId,
    copied: bool,
    bytes: Arc<[u8]>,
}

impl PageFrame {
    /// Wraps a buffer the page bytes were copied into by this read (the
    /// file store's read, and the fallback for stores without a shared
    /// representation).
    pub fn copied(id: PageId, data: Arc<[u8]>) -> PageFrame {
        PageFrame {
            id,
            copied: true,
            bytes: data,
        }
    }

    /// Wraps a buffer shared with the store — no bytes were copied.
    pub fn shared(id: PageId, data: Arc<[u8]>) -> PageFrame {
        PageFrame {
            id,
            copied: false,
            bytes: data,
        }
    }

    /// The page this frame holds.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// The page bytes.
    pub fn data(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the page in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame holds an empty page.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether producing this frame copied the page bytes (`true` for a
    /// file-store read) or shared them zero-copy (`false`).
    pub fn is_copied(&self) -> bool {
        self.copied
    }

    /// A writable [`Page`] holding a copy of the frame's bytes.
    pub fn to_page(&self) -> Page {
        Page {
            id: self.id,
            data: self.bytes.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copied_frames_own_their_bytes() {
        let frame = PageFrame::copied(3, vec![1, 2, 3].into());
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
