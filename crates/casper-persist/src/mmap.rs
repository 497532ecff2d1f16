//! Read-only memory mapping for snapshot segments, with no external crate.
//!
//! The workspace is offline, so instead of `memmap2` this module declares
//! the two libc symbols it needs (`mmap`/`munmap` — std already links
//! libc on unix) and wraps them in a safe, immutable, `Deref<[u8]>` view.
//! On non-unix targets (or 32-bit unix, where `off_t` width is uncertain)
//! it degrades to reading the file into an owned buffer — the durability
//! semantics are identical, only the zero-copy property is lost.
//!
//! # Safety contract
//!
//! A mapping stays valid only while the underlying file keeps its length.
//! Snapshot segments satisfy this by construction: a segment is written
//! once, fsynced, and never modified afterwards — checkpoints append *new*
//! segments and pruning only ever unlinks whole files (an unlinked file
//! stays readable through an existing mapping on unix).

use std::fs::File;
use std::io;
use std::ops::Deref;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(target_os = "linux")]
mod writeback_sys {
    use std::os::raw::{c_int, c_uint};

    pub const SYNC_FILE_RANGE_WRITE: c_uint = 2;

    extern "C" {
        pub fn sync_file_range(fd: c_int, offset: i64, nbytes: i64, flags: c_uint) -> c_int;
    }
}

/// Ask the kernel to *start* writing back `len` bytes of `file` at
/// `offset`, without blocking and — crucially — without a journal commit.
/// Best-effort, Linux-only (`sync_file_range(SYNC_FILE_RANGE_WRITE)`);
/// a no-op elsewhere.
///
/// Large sequential writers (the checkpoint segment writer) call this
/// periodically so dirty pages drain as they are produced: on
/// `data=ordered` filesystems, a later journal commit — including one
/// forced by a *concurrent* WAL fsync on the commit path — otherwise has
/// to flush the entire accumulated segment in one burst, stalling every
/// commit in flight (the same discipline as RocksDB's `bytes_per_sync`).
pub fn initiate_writeback(file: &std::fs::File, offset: u64, len: u64) {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        // SAFETY: valid fd; sync_file_range has no memory-safety
        // obligations; errors (e.g. unsupported fs) are ignorable.
        unsafe {
            writeback_sys::sync_file_range(
                file.as_raw_fd(),
                offset as i64,
                len as i64,
                writeback_sys::SYNC_FILE_RANGE_WRITE,
            );
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (file, offset, len);
    }
}

/// An immutable byte view of a whole file: memory-mapped where possible,
/// heap-copied otherwise.
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: `Mapped { ptr, len }` is a PROT_READ/MAP_PRIVATE mapping that is
// never mutated and is unmapped only in `Drop`, which runs once on
// whichever thread owns it, so moving the raw pointer to another thread is
// sound; `Owned` is a plain `Vec<u8>`, which is `Send`.
unsafe impl Send for Mmap {}
// SAFETY: `&Mmap` only hands out `&[u8]` views of either variant, and the
// mapping behind `ptr` is read-only, so any number of threads may read it
// at once; `Vec<u8>` is `Sync`.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Wrap an owned buffer in the `Mmap` interface. Used by the
    /// fault-injecting VFS, whose `simulate_crash` rewrites files in
    /// place — a live real mapping of such a file would alias the
    /// rewrite, so under fault injection every "mapping" is a copy.
    pub fn from_owned(bytes: Vec<u8>) -> Self {
        Self {
            inner: Inner::Owned(bytes),
        }
    }

    /// Map `file` read-only (or fall back to reading it into memory).
    pub fn map(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds usize"))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            if len == 0 {
                return Ok(Self {
                    inner: Inner::Owned(Vec::new()),
                });
            }
            // SAFETY: fd is a valid open file descriptor, length matches
            // the file's current size, and the mapping is read-only.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                inner: Inner::Mapped {
                    ptr: ptr as *const u8,
                    len,
                },
            })
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut buf = Vec::with_capacity(len);
            let mut f = file.try_clone()?;
            // The clone shares the original handle's cursor; the view must
            // cover the whole file regardless of what the caller read.
            f.seek(SeekFrom::Start(0))?;
            f.read_to_end(&mut buf)?;
            Ok(Self {
                inner: Inner::Owned(buf),
            })
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: ptr/len came from a successful mmap that lives until
            // Drop, and segment files are never truncated or rewritten.
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Owned(v) => v,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: exactly the region returned by mmap, unmapped once.
            unsafe {
                sys::munmap(ptr as *mut _, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents_byte_exact() {
        let dir = std::env::temp_dir().join("casper_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        {
            let mut f = std::fs::File::create(&path).unwrap();
            f.write_all(&payload).unwrap();
        }
        let f = std::fs::File::open(&path).unwrap();
        let map = Mmap::map(&f).unwrap();
        assert_eq!(&*map, &payload[..]);
        // Unlinking must not invalidate the live mapping (unix semantics;
        // the owned fallback trivially satisfies this).
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map[0..4], payload[0..4]);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = std::env::temp_dir().join("casper_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let map = Mmap::map(&f).unwrap();
        assert!(map.is_empty());
    }
}
