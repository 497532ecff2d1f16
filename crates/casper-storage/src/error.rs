//! The one error type of every Casper surface: storage operations, query
//! execution (`Table`, `TableReader`, `DurableTable`), transactions,
//! resource governance and persistence all return [`StorageError`], so a
//! failure has one spelling whichever entry point observed it.

use std::fmt;

/// Errors surfaced by every fallible Casper call.
#[derive(Debug)]
pub enum StorageError {
    /// The chunk has no free slot left (live values + ghost slots have
    /// reached physical capacity). Chunk splitting is out of scope for this
    /// reproduction; callers should size chunks with slack via
    /// [`crate::ChunkConfig::capacity_slack`], or grow a full one.
    ChunkFull {
        /// Physical capacity of the chunk in slots.
        capacity: usize,
    },
    /// A partitioning specification did not cover the chunk exactly.
    InvalidSpec {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A payload row had the wrong number of columns.
    PayloadArity {
        /// Columns the chunk stores.
        expected: usize,
        /// Columns the caller supplied.
        got: usize,
    },
    /// Persisted state failed a checksum, length, or structural-invariant
    /// check while being restored. Surfaced as a typed error (never a
    /// panic) so recovery code can reject a damaged snapshot/WAL and fall
    /// back to an older generation.
    Corrupt {
        /// Human-readable description of the first violation found.
        reason: String,
    },
    /// A chunk's persisted record was found damaged (by a scrub pass)
    /// while the chunk itself was never hydrated: its data exists nowhere
    /// in memory to heal from, so hydration is refused with this typed
    /// error instead of failing the record's CRC mid-query.
    Quarantined {
        /// Index of the quarantined chunk.
        chunk: u64,
        /// Why its record was quarantined (the scrub finding).
        reason: String,
    },
    /// A query's deadline expired at a chunk boundary. Cooperative: the
    /// scan loop noticed the expiry and unwound cleanly, leaving all
    /// shared state (snapshots, hydration, fences) untouched.
    DeadlineExceeded,
    /// A query's cancel token was flipped at a chunk boundary. Same
    /// cooperative unwind guarantees as [`StorageError::DeadlineExceeded`].
    Cancelled,
    /// No governor query slot became available within the bounded wait.
    Overloaded {
        /// How long the query waited before being shed.
        waited_ms: u64,
    },
    /// A governed query panicked; execution was isolated and the serving
    /// loop stays alive.
    Panicked {
        /// The panic payload, stringified.
        detail: String,
        /// The chunk the query routed to, when identifiable (point-shaped
        /// operations) — callers quarantine it.
        chunk: Option<usize>,
    },
    /// First-committer-wins transaction validation failed on this key.
    Conflict {
        /// The contended key.
        key: u64,
    },
    /// The durable table is in degraded read-only mode: persistent
    /// durability failure means new writes cannot be made durable. Reads
    /// keep serving from memory; writes fail with this error until the
    /// table's `reactivate` proves the storage healthy again.
    Degraded {
        /// Why the table degraded (the original failure chain).
        reason: String,
    },
    /// Filesystem failure (open, write, fsync, rename…).
    Io(std::io::Error),
}

impl StorageError {
    /// A [`StorageError::Corrupt`] with `reason`.
    pub fn corrupt(reason: impl Into<String>) -> Self {
        StorageError::Corrupt {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ChunkFull { capacity } => {
                write!(f, "chunk is full (capacity {capacity} slots)")
            }
            StorageError::InvalidSpec { reason } => {
                write!(f, "invalid partition spec: {reason}")
            }
            StorageError::PayloadArity { expected, got } => {
                write!(f, "payload row has {got} columns, chunk stores {expected}")
            }
            StorageError::Corrupt { reason } => {
                write!(f, "corrupt persisted state: {reason}")
            }
            StorageError::Quarantined { chunk, reason } => {
                write!(
                    f,
                    "chunk {chunk} is quarantined (damaged on disk, no \
                     in-memory copy): {reason}"
                )
            }
            StorageError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            StorageError::Cancelled => write!(f, "query cancelled"),
            StorageError::Overloaded { waited_ms } => {
                write!(f, "overloaded: no query slot after {waited_ms}ms")
            }
            StorageError::Panicked { detail, chunk } => match chunk {
                Some(c) => write!(f, "query panicked in chunk {c}: {detail}"),
                None => write!(f, "query panicked: {detail}"),
            },
            StorageError::Conflict { key } => write!(f, "write-write conflict on key {key}"),
            StorageError::Degraded { reason } => write!(
                f,
                "durable table is degraded (read-only): {reason}; \
                 fix the storage and call reactivate()"
            ),
            StorageError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::ChunkFull { capacity: 128 };
        assert!(e.to_string().contains("128"));
        let e = StorageError::Overloaded { waited_ms: 17 };
        assert!(e.to_string().contains("17ms"));
        let e = StorageError::Panicked {
            detail: "boom".into(),
            chunk: Some(9),
        };
        assert!(e.to_string().contains("boom") && e.to_string().contains("chunk 9"));
        let e = StorageError::Conflict { key: 300 };
        assert!(e.to_string().contains("300"));
        let e = StorageError::Degraded {
            reason: "disk gone".into(),
        };
        assert!(e.to_string().contains("disk gone") && e.to_string().contains("reactivate"));
        let e = StorageError::from(std::io::Error::other("no space"));
        assert!(e.to_string().contains("no space"));
        assert!(
            std::error::Error::source(&e).is_some(),
            "io error is the source"
        );
    }
}
