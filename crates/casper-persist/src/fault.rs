//! Deterministic fault injection for the storage VFS, SQLite-test-VFS
//! style.
//!
//! [`FaultVfs`] implements [`Vfs`] on top of the real filesystem and adds
//! two orthogonal capabilities:
//!
//! 1. **A deterministic fault schedule.** [`FaultRule`]s match an
//!    operation kind ([`VfsOp`]), optionally a path substring, and
//!    optionally the Nth matching call, and inject `EIO`/`ENOSPC`
//!    (optionally after a short write of K bytes). Rules never consult a
//!    clock or OS randomness, so a schedule replays identically run after
//!    run; [`FaultVfs::with_seed`] carries a seed plus an xorshift
//!    generator tests use to derive *varied but reproducible* schedules.
//! 2. **A crash-durability shadow model.** The harness tracks, per file,
//!    the bytes that were on disk at the last *successful* fsync, and
//!    keeps directory entries (created / renamed / removed names) in a
//!    pending log until the parent directory is fsynced.
//!    [`FaultVfs::simulate_crash`] rolls the real directory back to
//!    exactly that durable state: un-fsynced bytes vanish, un-fsynced
//!    dirents vanish (a created file disappears even if its *data* was
//!    fsynced — POSIX lets that happen), committed state survives. This
//!    is what makes "a failed fsync silently dropped dirty pages"
//!    (fsyncgate) testable: the write landed in the real file, the rule
//!    failed the fsync, and the simulated crash reverts the bytes.
//!
//! With an empty schedule the harness performs byte-for-byte the same
//! filesystem operations as [`crate::vfs::RealVfs`] (the zero-drift CI
//! check relies on this); the only intentional difference is that `mmap`
//! returns an owned copy of the file, because a later `simulate_crash`
//! rewrites files in place and a live real mapping would alias them.

use crate::mmap::Mmap;
use crate::vfs::{Vfs, VfsFile};
use casper_obs::CounterDef;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The error an injected fault surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultErr {
    /// `EIO` — generic I/O failure (bad sector, dropped interconnect).
    Eio,
    /// `ENOSPC` — no space left on device.
    Enospc,
}

impl FaultErr {
    fn to_io(self) -> io::Error {
        // Raw OS errno values so callers observe exactly what a real
        // kernel would hand back (matchable via `io::Error::raw_os_error`).
        io::Error::from_raw_os_error(match self {
            FaultErr::Eio => 5,
            FaultErr::Enospc => 28,
        })
    }
}

/// Operation kinds a [`FaultRule`] can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOp {
    /// Whole-file reads and mmap.
    Read,
    /// File writes.
    Write,
    /// File fsync (`sync_data` / `sync_all`).
    Fsync,
    /// Directory fsync.
    FsyncDir,
    /// File creation (`create` / `create_new`) and opens.
    Open,
    /// Rename.
    Rename,
    /// File removal.
    Remove,
}

/// One entry of the deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation kind the rule intercepts.
    pub op: VfsOp,
    /// Only paths containing this substring match (`None` = every path).
    pub path_substr: Option<String>,
    /// Fire on the Nth matching call (1-based); `None` fires on every
    /// matching call (until `times` is exhausted).
    pub nth: Option<u64>,
    /// For `Write` rules: bytes actually written before the error — the
    /// short-write torn-page model. `None` writes nothing.
    pub short_bytes: Option<usize>,
    /// Error to inject.
    pub err: FaultErr,
    /// How many times the rule may fire (`u64::MAX` = persistent fault).
    pub times: u64,
}

impl FaultRule {
    /// A rule failing the Nth fsync of paths containing `substr`.
    pub fn nth_fsync(substr: &str, nth: u64, err: FaultErr) -> Self {
        Self {
            op: VfsOp::Fsync,
            path_substr: Some(substr.to_string()),
            nth: Some(nth),
            short_bytes: None,
            err,
            times: 1,
        }
    }

    /// A rule failing every operation of `op` on paths containing
    /// `substr`, forever (persistent fault).
    pub fn on_path(op: VfsOp, substr: &str, err: FaultErr) -> Self {
        Self {
            op,
            path_substr: Some(substr.to_string()),
            nth: None,
            short_bytes: None,
            err,
            times: u64::MAX,
        }
    }

    /// A rule that short-writes `short` bytes of the Nth matching write to
    /// paths containing `substr`, then fails it.
    pub fn short_write(substr: &str, nth: u64, short: usize, err: FaultErr) -> Self {
        Self {
            op: VfsOp::Write,
            path_substr: Some(substr.to_string()),
            nth: Some(nth),
            short_bytes: Some(short),
            err,
            times: 1,
        }
    }
}

/// Counters exposed by [`FaultVfs::counters`] (deterministic — they only
/// advance with VFS calls, never with wall-clock time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// File fsync calls observed (successful or failed).
    pub fsyncs: u64,
    /// Directory fsync calls observed.
    pub dir_fsyncs: u64,
    /// Write calls observed.
    pub writes: u64,
    /// Faults injected so far.
    pub injected: u64,
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    /// Matching calls seen so far (drives `nth`).
    seen: u64,
    /// Times the rule has fired.
    fired: u64,
}

/// A directory entry change not yet made durable by a parent-dir fsync.
#[derive(Debug)]
enum DirentOp {
    Create(PathBuf),
    Rename {
        from: PathBuf,
        to: PathBuf,
        /// Durable content of `from`'s inode at rename time. Carried in
        /// the op because durable content is a property of the *inode*,
        /// not the name: a later create may reuse `from` (a retried
        /// write-atomic reuses its temp name), and resolving at commit
        /// time would hand the first rename the second inode's bytes.
        content: Vec<u8>,
        /// Durable content `to` held before being replaced (`None`: `to`
        /// did not exist).
        replaced: Option<Vec<u8>>,
    },
    Remove {
        path: PathBuf,
        /// Durable content at removal time, restored if the crash beats
        /// the directory fsync.
        content: Vec<u8>,
    },
}

#[derive(Debug, Default)]
struct State {
    rules: Vec<RuleState>,
    counters: FaultCounters,
    /// Human-readable log of injected faults, for assertions and reports.
    injected_log: Vec<String>,
    /// Per-file bytes as of the last successful fsync.
    durable: HashMap<PathBuf, Vec<u8>>,
    /// Dirent changes awaiting a parent-directory fsync.
    pending: Vec<DirentOp>,
}

impl State {
    /// Whether `path`'s dirent is itself still pending (its durable
    /// content, if any, predates nothing).
    fn dirent_pending(&self, path: &Path) -> bool {
        self.pending.iter().any(|op| match op {
            DirentOp::Create(p) => p == path,
            DirentOp::Rename { to, .. } => to == path,
            DirentOp::Remove { .. } => false,
        })
    }

    /// First sight of a pre-existing file: everything on disk now is
    /// assumed durable (the harness only models what happens *after* it
    /// starts watching).
    fn track_existing(&mut self, path: &Path) {
        if path.exists() && !self.durable.contains_key(path) && !self.dirent_pending(path) {
            let bytes = std::fs::read(path).unwrap_or_default();
            self.durable.insert(path.to_path_buf(), bytes);
        }
    }

    /// Consult the schedule: does `op` on `path` fault now?
    fn arm(&mut self, op: VfsOp, path: &Path) -> Option<(FaultErr, Option<usize>)> {
        let path_str = path.to_string_lossy();
        for rs in &mut self.rules {
            if rs.rule.op != op {
                continue;
            }
            if let Some(s) = &rs.rule.path_substr {
                if !path_str.contains(s.as_str()) {
                    continue;
                }
            }
            rs.seen += 1;
            let due = match rs.rule.nth {
                Some(n) => rs.seen == n,
                None => true,
            };
            if due && rs.fired < rs.rule.times {
                static OBS_FAULTS: CounterDef = CounterDef::new("casper_fault_injections_total");
                rs.fired += 1;
                self.counters.injected += 1;
                OBS_FAULTS.inc();
                self.injected_log.push(format!(
                    "{op:?} #{} on {path_str}: injected {:?}",
                    rs.seen, rs.rule.err
                ));
                return Some((rs.rule.err, rs.rule.short_bytes));
            }
        }
        None
    }
}

/// The fault-injecting VFS. See the module docs for the model; construct
/// with [`FaultVfs::new`] (empty schedule) or [`FaultVfs::with_seed`],
/// then [`FaultVfs::inject`] rules and hand an `Arc` of it to
/// [`crate::VfsHandle::fault`].
#[derive(Debug)]
pub struct FaultVfs {
    seed: u64,
    state: Mutex<State>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultVfs {
    /// Harness with an empty schedule (faults can be injected later).
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Harness carrying a schedule seed (see [`FaultVfs::pick`]).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            state: Mutex::new(State::default()),
        }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic value in `lo..hi` derived from the seed and `salt`
    /// (splitmix64 finalizer — tests use this to vary *which* fsync/write
    /// a seeded schedule kills without any runtime randomness).
    pub fn pick(&self, salt: u64, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        let mut z = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        lo + z % (hi - lo)
    }

    /// Add a rule to the schedule.
    pub fn inject(&self, rule: FaultRule) {
        self.state.lock().unwrap().rules.push(RuleState {
            rule,
            seen: 0,
            fired: 0,
        });
    }

    /// Drop every rule (the shadow durability state is kept).
    pub fn clear_faults(&self) {
        self.state.lock().unwrap().rules.clear();
    }

    /// Deterministic operation counters.
    pub fn counters(&self) -> FaultCounters {
        self.state.lock().unwrap().counters
    }

    /// Human-readable log of every fault injected so far.
    pub fn injected_faults(&self) -> Vec<String> {
        self.state.lock().unwrap().injected_log.clone()
    }

    /// Roll the real directory tree back to the crash-durable state: undo
    /// pending dirent operations (newest first), then restore every
    /// tracked file to its last-fsynced bytes. After this returns, the
    /// on-disk state is exactly what a machine reboot after a power cut
    /// would leave, and the shadow model matches it.
    pub fn simulate_crash(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let pending: Vec<DirentOp> = st.pending.drain(..).collect();
        for op in pending.into_iter().rev() {
            match op {
                DirentOp::Create(p) => {
                    let _ = std::fs::remove_file(&p);
                    st.durable.remove(&p);
                }
                DirentOp::Rename {
                    from, to, replaced, ..
                } => {
                    let _ = std::fs::rename(&to, &from);
                    match replaced {
                        Some(content) => std::fs::write(&to, content)?,
                        None => {
                            let _ = std::fs::remove_file(&to);
                        }
                    }
                }
                DirentOp::Remove { path, content } => {
                    std::fs::write(&path, content)?;
                }
            }
        }
        for (path, content) in &st.durable {
            std::fs::write(path, content)?;
        }
        Ok(())
    }

    // -- hooks called by `VfsFile` ------------------------------------

    pub(crate) fn file_write_all(
        &self,
        path: &Path,
        file: &mut File,
        buf: &[u8],
    ) -> io::Result<()> {
        let fault = {
            let mut st = self.state.lock().unwrap();
            st.counters.writes += 1;
            st.arm(VfsOp::Write, path)
        };
        match fault {
            None => file.write_all(buf),
            Some((err, short)) => {
                // Torn write: the first `short` bytes land for real (they
                // may even become durable if a later fsync covers them),
                // then the error surfaces.
                if let Some(k) = short {
                    let k = k.min(buf.len());
                    file.write_all(&buf[..k])?;
                }
                Err(err.to_io())
            }
        }
    }

    pub(crate) fn file_sync(&self, path: &Path, _file: &File) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.counters.fsyncs += 1;
        if let Some((err, _)) = st.arm(VfsOp::Fsync, path) {
            // The failed fsync does NOT advance the durable shadow: the
            // dirty pages it covered are considered dropped, exactly the
            // fsyncgate failure mode. (The bytes stay visible in the real
            // file — the page cache reads clean — until simulate_crash.)
            return Err(err.to_io());
        }
        let bytes = std::fs::read(path)?;
        st.durable.insert(path.to_path_buf(), bytes);
        Ok(())
    }
}

/// The [`Vfs`] implementation lives on `Arc<FaultVfs>` (not `FaultVfs`
/// itself) because every [`VfsFile`] it hands out keeps a reference back
/// to the harness for its per-operation hooks.
impl Vfs for Arc<FaultVfs> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some((err, _)) = self.state.lock().unwrap().arm(VfsOp::Read, path) {
            return Err(err.to_io());
        }
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<VfsFile> {
        {
            let mut st = self.state.lock().unwrap();
            if let Some((err, _)) = st.arm(VfsOp::Open, path) {
                return Err(err.to_io());
            }
            // Shadow bookkeeping before the truncating create: a
            // pre-existing file's durable content must be captured first.
            if path.exists() {
                st.track_existing(path);
            } else {
                st.pending.push(DirentOp::Create(path.to_path_buf()));
            }
        }
        Ok(VfsFile::faulted(
            File::create(path)?,
            path,
            Arc::clone(self),
        ))
    }

    fn create_new(&self, path: &Path) -> io::Result<VfsFile> {
        let mut st = self.state.lock().unwrap();
        if let Some((err, _)) = st.arm(VfsOp::Open, path) {
            return Err(err.to_io());
        }
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        st.pending.push(DirentOp::Create(path.to_path_buf()));
        drop(st);
        Ok(VfsFile::faulted(file, path, Arc::clone(self)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<VfsFile> {
        let mut st = self.state.lock().unwrap();
        if let Some((err, _)) = st.arm(VfsOp::Open, path) {
            return Err(err.to_io());
        }
        st.track_existing(path);
        drop(st);
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(VfsFile::faulted(file, path, Arc::clone(self)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        if let Some((err, _)) = st.arm(VfsOp::Rename, from) {
            return Err(err.to_io());
        }
        st.track_existing(from);
        let content = st.durable.get(from).cloned().unwrap_or_default();
        let replaced = if to.exists() {
            st.track_existing(to);
            st.durable.get(to).cloned()
        } else {
            None
        };
        std::fs::rename(from, to)?;
        st.pending.push(DirentOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            content,
            replaced,
        });
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        if let Some((err, _)) = st.arm(VfsOp::Remove, path) {
            return Err(err.to_io());
        }
        st.track_existing(path);
        let content = st.durable.get(path).cloned().unwrap_or_default();
        std::fs::remove_file(path)?;
        st.pending.push(DirentOp::Remove {
            path: path.to_path_buf(),
            content,
        });
        Ok(())
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.counters.dir_fsyncs += 1;
        if let Some((err, _)) = st.arm(VfsOp::FsyncDir, dir) {
            return Err(err.to_io());
        }
        // Commit every pending dirent op under `dir`, in order.
        let pending = std::mem::take(&mut st.pending);
        for op in pending {
            let parent_matches = match &op {
                DirentOp::Create(p) | DirentOp::Remove { path: p, .. } => p.parent() == Some(dir),
                DirentOp::Rename { to, .. } => to.parent() == Some(dir),
            };
            if !parent_matches {
                st.pending.push(op);
                continue;
            }
            match op {
                DirentOp::Create(p) => {
                    // Dirent durable; content durable only as far as its
                    // own fsyncs got (none yet → empty file after crash).
                    st.durable.entry(p).or_default();
                }
                DirentOp::Rename {
                    from, to, content, ..
                } => {
                    // The committed name gets the inode's bytes as they
                    // were durable at rename time; the old name's shadow
                    // entry (if any) described that same inode and is
                    // gone with the dirent.
                    st.durable.remove(&from);
                    st.durable.insert(to, content);
                }
                DirentOp::Remove { path, .. } => {
                    st.durable.remove(&path);
                }
            }
        }
        File::open(dir)?.sync_all()
    }

    fn mmap(&self, path: &Path) -> io::Result<Mmap> {
        if let Some((err, _)) = self.state.lock().unwrap().arm(VfsOp::Read, path) {
            return Err(err.to_io());
        }
        // Owned, not mapped: simulate_crash rewrites files in place, which
        // would alias (and UB) a live real mapping of the same file.
        Ok(Mmap::from_owned(std::fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_deterministically() {
        let vfs = Arc::new(FaultVfs::new());
        vfs.inject(FaultRule::nth_fsync("probe", 2, FaultErr::Eio));
        let dir = std::env::temp_dir().join("casper_faultvfs_rules");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap(); // fsync #1 passes
        f.write_all(b"def").unwrap();
        let err = f.sync_data().unwrap_err(); // fsync #2 injected
        assert_eq!(err.raw_os_error(), Some(5));
        f.sync_data().unwrap(); // rule exhausted
        assert_eq!(vfs.counters().injected, 1);
    }

    #[test]
    fn crash_drops_unfsynced_bytes_and_pending_dirents() {
        let vfs = Arc::new(FaultVfs::new());
        let dir = std::env::temp_dir().join("casper_faultvfs_crash");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // File A: created, dirent + 4 bytes durable, 4 more bytes not.
        let a = dir.join("a.bin");
        let mut fa = vfs.create(&a).unwrap();
        fa.write_all(b"AAAA").unwrap();
        fa.sync_data().unwrap();
        vfs.fsync_dir(&dir).unwrap();
        fa.write_all(b"BBBB").unwrap(); // never fsynced

        // File B: created + fsynced data, but the dirent never committed.
        let b = dir.join("b.bin");
        let mut fb = vfs.create(&b).unwrap();
        fb.write_all(b"CCCC").unwrap();
        fb.sync_data().unwrap();

        vfs.simulate_crash().unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), b"AAAA");
        assert!(!b.exists(), "un-fsynced dirent must not survive the crash");
    }

    #[test]
    fn crash_reverts_uncommitted_rename() {
        let vfs = Arc::new(FaultVfs::new());
        let dir = std::env::temp_dir().join("casper_faultvfs_rename");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dst = dir.join("CURRENT");
        std::fs::write(&dst, b"old").unwrap();
        let tmp = dir.join("CURRENT.tmp");
        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"new").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(&tmp, &dst).unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"new");
        // No directory fsync: the swing is not durable.
        vfs.simulate_crash().unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"old");
    }
}
