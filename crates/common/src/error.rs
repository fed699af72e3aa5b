//! Crate-wide error and result types.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the temporal video query crates.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A window or duration specification is inconsistent
    /// (for example `duration > window` or a zero-length window).
    InvalidWindow {
        /// Window length in frames.
        window: usize,
        /// Duration threshold in frames.
        duration: usize,
    },
    /// A frame arrived out of order: frame identifiers must be presented to
    /// the maintainers in strictly increasing order.
    OutOfOrderFrame {
        /// The most recently accepted frame.
        last: u64,
        /// The frame that violated the ordering.
        got: u64,
    },
    /// A class label was used that is not registered in the [`crate::ClassRegistry`].
    UnknownClass(String),
    /// A query references a class identifier that does not exist.
    UnknownClassId(u16),
    /// A textual query could not be parsed.
    QueryParse {
        /// Human-readable description of the parse failure.
        message: String,
        /// Byte offset in the input at which the failure was detected.
        position: usize,
    },
    /// Wrapper around I/O errors raised by sockets, threads and the store.
    Io(std::io::Error),
    /// A configuration value was outside its legal range.
    InvalidConfig(String),
    /// A persistent artifact (WAL record, snapshot) could not be decoded:
    /// truncated input, malformed field, or a codec version this build does
    /// not understand.
    Codec(String),
    /// A persistent artifact failed its integrity check (CRC mismatch,
    /// impossible length): the bytes on disk are not what was written.
    /// Corrupt records are reported, never silently replayed.
    Corrupt(String),
    /// The durability store could not be opened or operated (directory
    /// missing, lock held by another live engine, no usable snapshot).
    Store(String),
    /// One share of a multi-feed batch failed: its thread panicked (losing
    /// every feed it carried) or could not be spawned.
    ShardLost {
        /// Index of the failed share within its batch.
        worker: usize,
        /// Frames in the failed share.
        queue_depth: usize,
    },
    /// A multi-feed fleet lost this feed: a share carrying it panicked. The
    /// fleet can never serve it again and refuses every batch holding it,
    /// and every report.
    FeedLost(crate::FeedId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidWindow { window, duration } => write!(
                f,
                "invalid window specification: duration {duration} must be between 0 and window {window}, and window must be positive"
            ),
            Error::OutOfOrderFrame { last, got } => write!(
                f,
                "frame {got} arrived out of order (last accepted frame was {last})"
            ),
            Error::UnknownClass(label) => write!(f, "unknown class label {label:?}"),
            Error::UnknownClassId(id) => write!(f, "unknown class id {id}"),
            Error::QueryParse { message, position } => {
                write!(f, "query parse error at byte {position}: {message}")
            }
            Error::Io(err) => write!(f, "I/O error: {err}"),
            Error::InvalidConfig(message) => write!(f, "invalid configuration: {message}"),
            Error::Codec(message) => write!(f, "codec error: {message}"),
            Error::Corrupt(message) => write!(f, "corrupt store data: {message}"),
            Error::Store(message) => write!(f, "store error: {message}"),
            Error::ShardLost {
                worker,
                queue_depth,
            } => {
                write!(
                    f,
                    "multi-feed share {worker} failed with {queue_depth} \
                     frame(s) (panic or spawn failure)"
                )
            }
            Error::FeedLost(feed) => write!(f, "{feed} was lost"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::InvalidWindow {
            window: 10,
            duration: 20,
        };
        let msg = e.to_string();
        assert!(msg.contains("20"));
        assert!(msg.contains("10"));

        let e = Error::OutOfOrderFrame { last: 7, got: 3 };
        assert!(e.to_string().contains("out of order"));

        let e = Error::UnknownClass("bicycle".into());
        assert!(e.to_string().contains("bicycle"));

        let e = Error::QueryParse {
            message: "expected integer".into(),
            position: 14,
        };
        assert!(e.to_string().contains("14"));

        let e = Error::ShardLost {
            worker: 2,
            queue_depth: 17,
        };
        assert!(e.to_string().contains("share 2"));
        assert!(
            e.to_string().contains("17 frame(s)"),
            "the error names the failed share's queue depth: {e}"
        );

        let e = Error::FeedLost(crate::FeedId(5));
        assert!(e.to_string().contains("feed5"), "{e}");
    }

    #[test]
    fn io_errors_preserve_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let err = Error::from(io);
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn non_io_errors_have_no_source() {
        let err = Error::UnknownClassId(9);
        assert!(std::error::Error::source(&err).is_none());
    }
}
