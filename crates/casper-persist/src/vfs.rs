//! The storage VFS: every byte this crate reads or writes goes through a
//! [`Vfs`], so the whole persistence stack can run unmodified on top of
//! either the real filesystem ([`RealVfs`]) or the deterministic
//! fault-injection harness ([`crate::fault::FaultVfs`]) — the SQLite
//! test-VFS idea.
//!
//! The production path pays nothing for the indirection: [`VfsHandle`] is
//! a two-variant enum whose `Real` arm compiles to the exact `std::fs`
//! calls the crate made before, and [`VfsFile`] wraps a real
//! [`std::fs::File`] plus an `Option` fault hook that is `None` outside
//! tests (one branch per operation, no allocation, no dynamic dispatch).
//!
//! Operations are deliberately the crate's *actual* I/O vocabulary rather
//! than a general filesystem API: whole-file read, create/open, open for
//! positional reads ([`VfsReader`], how segments are read), rename,
//! remove, directory fsync. Anything the persistence layer does not do
//! (hard links, permissions, memory maps) is not modeled, which keeps the
//! fault harness honest — it intercepts every operation the production
//! code can perform, and production and harness run the same read path.

use crate::fault::FaultVfs;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The filesystem operations the persistence layer performs. Implemented
/// by [`RealVfs`] (plain `std::fs`) and [`crate::fault::FaultVfs`]
/// (deterministic fault injection + crash simulation); production code
/// holds a [`VfsHandle`] so the dispatch is a branch, not a vtable.
pub trait Vfs {
    /// Read a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<VfsFile>;
    /// Create a file that must not already exist.
    fn create_new(&self, path: &Path) -> io::Result<VfsFile>;
    /// Open an existing file for reading and writing.
    fn open_rw(&self, path: &Path) -> io::Result<VfsFile>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory, making its entries (created, renamed and removed
    /// names) durable.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Open an existing file for positional reads.
    fn open_read(&self, path: &Path) -> io::Result<VfsReader>;
}

/// The production VFS: plain `std::fs`. Zero overhead over calling
/// `std::fs` directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<VfsFile> {
        Ok(VfsFile::real(File::create(path)?, path))
    }

    fn create_new(&self, path: &Path) -> io::Result<VfsFile> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(VfsFile::real(file, path))
    }

    fn open_rw(&self, path: &Path) -> io::Result<VfsFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(VfsFile::real(file, path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn open_read(&self, path: &Path) -> io::Result<VfsReader> {
        VfsReader::open(path, None)
    }
}

/// The VFS a [`crate::DurableTable`] (and everything under it) routes I/O
/// through. Enum dispatch instead of `dyn Vfs` so the `Real` arm inlines
/// to direct `std::fs` calls and the handle stays `Clone` + cheap to pass
/// into background checkpoint jobs.
#[derive(Debug, Clone, Default)]
pub enum VfsHandle {
    /// The real filesystem (production default).
    #[default]
    Real,
    /// The deterministic fault-injection harness (tests, benches, CI).
    Fault(Arc<FaultVfs>),
}

impl VfsHandle {
    /// Wrap a fault harness into a handle.
    pub fn fault(vfs: Arc<FaultVfs>) -> Self {
        VfsHandle::Fault(vfs)
    }
}

impl Vfs for VfsHandle {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self {
            VfsHandle::Real => RealVfs.read(path),
            VfsHandle::Fault(f) => f.read(path),
        }
    }

    fn create(&self, path: &Path) -> io::Result<VfsFile> {
        match self {
            VfsHandle::Real => RealVfs.create(path),
            VfsHandle::Fault(f) => f.create(path),
        }
    }

    fn create_new(&self, path: &Path) -> io::Result<VfsFile> {
        match self {
            VfsHandle::Real => RealVfs.create_new(path),
            VfsHandle::Fault(f) => f.create_new(path),
        }
    }

    fn open_rw(&self, path: &Path) -> io::Result<VfsFile> {
        match self {
            VfsHandle::Real => RealVfs.open_rw(path),
            VfsHandle::Fault(f) => f.open_rw(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self {
            VfsHandle::Real => RealVfs.rename(from, to),
            VfsHandle::Fault(f) => f.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self {
            VfsHandle::Real => RealVfs.remove(path),
            VfsHandle::Fault(f) => f.remove(path),
        }
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        match self {
            VfsHandle::Real => RealVfs.fsync_dir(dir),
            VfsHandle::Fault(f) => f.fsync_dir(dir),
        }
    }

    fn open_read(&self, path: &Path) -> io::Result<VfsReader> {
        match self {
            VfsHandle::Real => RealVfs.open_read(path),
            VfsHandle::Fault(f) => f.open_read(path),
        }
    }
}

/// An open file handle obtained through a [`Vfs`]. Always backed by a real
/// [`File`]; when it was opened through a [`crate::fault::FaultVfs`] every
/// operation first consults the fault schedule, and every successful fsync
/// records the file's bytes in the harness's durable-content shadow (the
/// state a simulated crash rolls back to).
#[derive(Debug)]
pub struct VfsFile {
    file: File,
    path: PathBuf,
    fault: Option<Arc<FaultVfs>>,
}

impl VfsFile {
    pub(crate) fn real(file: File, path: &Path) -> Self {
        Self {
            file,
            path: path.to_path_buf(),
            fault: None,
        }
    }

    pub(crate) fn faulted(file: File, path: &Path, fault: Arc<FaultVfs>) -> Self {
        Self {
            file,
            path: path.to_path_buf(),
            fault: Some(fault),
        }
    }

    /// Path the handle was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write all of `buf`, honoring short-write and error injections.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match &self.fault {
            None => self.file.write_all(buf),
            Some(f) => f.file_write_all(&self.path, &mut self.file, buf),
        }
    }

    /// Fsync file data (`fdatasync` semantics). A successful sync under the
    /// fault harness checkpoints the file's bytes as crash-durable.
    pub fn sync_data(&mut self) -> io::Result<()> {
        match &self.fault {
            None => self.file.sync_data(),
            Some(f) => f.file_sync(&self.path, &self.file),
        }
    }

    /// Fsync file data and metadata.
    pub fn sync_all(&mut self) -> io::Result<()> {
        match &self.fault {
            None => self.file.sync_all(),
            Some(f) => f.file_sync(&self.path, &self.file),
        }
    }

    /// Truncate (or extend) the file.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// Reposition the file cursor.
    pub fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }

    /// Ask the kernel to *start* writing back `len` bytes at `offset`
    /// (`sync_file_range(SYNC_FILE_RANGE_WRITE)`): it does not block and
    /// forces no journal commit. The checkpoint's segment writer calls it
    /// after each record so dirty pages drain as they are produced;
    /// otherwise a journal commit forced by a concurrent WAL fsync on
    /// `data=ordered` filesystems must flush the whole accumulated
    /// segment at once (RocksDB's `bytes_per_sync` discipline). The hint
    /// carries no durability, so it ignores errors and the fault schedule.
    #[allow(unsafe_code)]
    pub fn start_writeback(&self, offset: u64, len: u64) {
        use std::os::raw::{c_int, c_uint};
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn sync_file_range(fd: c_int, offset: i64, nbytes: i64, flags: c_uint) -> c_int;
        }
        const SYNC_FILE_RANGE_WRITE: c_uint = 2;
        // SAFETY: the descriptor is open for the lifetime of `self.file`,
        // and sync_file_range reads no caller memory; its result is unused.
        unsafe {
            sync_file_range(
                self.file.as_raw_fd(),
                offset as i64,
                len as i64,
                SYNC_FILE_RANGE_WRITE,
            )
        };
    }
}

/// A read-only handle obtained through [`Vfs::open_read`]: a real
/// [`File`] read by position, plus the fault hook of the [`FaultVfs`] it
/// was opened through (`None` on the real filesystem). Segments are read
/// this way — restore's header check, first-touch hydration, rehydration,
/// the compaction copy and the scrub — so every one of those reads can
/// fail, and fails as an [`io::Error`], never as a signal.
#[derive(Debug)]
pub struct VfsReader {
    file: File,
    path: PathBuf,
    size: u64,
    fault: Option<Arc<FaultVfs>>,
}

impl VfsReader {
    pub(crate) fn open(path: &Path, fault: Option<Arc<FaultVfs>>) -> io::Result<Self> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        Ok(Self {
            file,
            path: path.to_path_buf(),
            size,
            fault,
        })
    }

    /// The file's length in bytes when it was opened.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Fill `buf` from the bytes at `offset`; a read past the end fails
    /// with [`io::ErrorKind::UnexpectedEof`].
    pub fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if let Some(f) = &self.fault {
            f.file_read(&self.path)?;
        }
        self.file.read_exact_at(buf, offset)
    }
}
