//! Error type of the UV-diagram crate.

use std::fmt;

/// Errors reported by UV-diagram construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UvError {
    /// A configuration parameter is outside its valid range.
    InvalidConfig(&'static str),
    /// An object id was not found in the dataset / index.
    UnknownObject(u32),
    /// An insert used an object id that is already live.
    DuplicateObject(u32),
    /// An object has non-finite coordinates, a negative or non-finite
    /// radius, or a histogram pdf with no bars or a negative or non-finite
    /// bar, or an update places it where the domain could only grow to
    /// cover it by passing the largest finite coordinate.
    InvalidObject(u32),
    /// A subscription client id was not found in the subscription table.
    UnknownClient(u64),
    /// A subscribe used a client id that is already registered.
    DuplicateClient(u64),
    /// A point has a non-finite coordinate (e.g. a subscription position).
    InvalidPoint,
    /// An underlying I/O operation failed (snapshot file access).
    Io(String),
    /// A snapshot failed structural validation: bad magic, a checksum or
    /// section-framing mismatch, a truncated stream, or decoded state that
    /// violates an invariant. The payload describes the first violation.
    SnapshotCorrupt(String),
    /// The snapshot was written by an unsupported format version.
    SnapshotVersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The snapshot's configuration fingerprint does not match its persisted
    /// configuration (or, via [`crate::UvSystem::load_snapshot_expecting`],
    /// the configuration the caller requires).
    ConfigMismatch,
}

impl fmt::Display for UvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UvError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            UvError::UnknownObject(id) => write!(f, "unknown object id {id}"),
            UvError::DuplicateObject(id) => write!(f, "object id {id} is already live"),
            UvError::InvalidObject(id) => {
                write!(
                    f,
                    "object {id} has a non-finite position, a negative radius or an invalid pdf"
                )
            }
            UvError::UnknownClient(id) => write!(f, "unknown subscription client id {id}"),
            UvError::DuplicateClient(id) => {
                write!(f, "subscription client id {id} is already registered")
            }
            UvError::InvalidPoint => write!(f, "point has a non-finite coordinate"),
            UvError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            UvError::SnapshotCorrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            UvError::SnapshotVersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            UvError::ConfigMismatch => {
                write!(f, "snapshot configuration does not match the expected one")
            }
        }
    }
}

impl From<std::io::Error> for UvError {
    /// Decoder-reported malformation (`InvalidData`) and premature
    /// end-of-input both mean the snapshot bytes cannot be trusted; anything
    /// else is an environmental I/O failure.
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => {
                UvError::SnapshotCorrupt(e.to_string())
            }
            _ => UvError::Io(e.to_string()),
        }
    }
}

impl std::error::Error for UvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            UvError::InvalidConfig("x").to_string(),
            "invalid configuration: x"
        );
        assert_eq!(UvError::UnknownObject(3).to_string(), "unknown object id 3");
        assert_eq!(
            UvError::DuplicateObject(4).to_string(),
            "object id 4 is already live"
        );
        assert!(UvError::InvalidObject(5).to_string().contains("object 5"));
        assert_eq!(
            UvError::UnknownClient(6).to_string(),
            "unknown subscription client id 6"
        );
        assert_eq!(
            UvError::DuplicateClient(7).to_string(),
            "subscription client id 7 is already registered"
        );
        assert!(UvError::InvalidPoint.to_string().contains("non-finite"));
        assert!(UvError::Io("disk on fire".into())
            .to_string()
            .contains("disk on fire"));
        assert!(UvError::SnapshotCorrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let v = UvError::SnapshotVersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9') && v.to_string().contains('1'));
        assert!(UvError::ConfigMismatch
            .to_string()
            .contains("configuration"));
    }

    #[test]
    fn io_errors_map_by_kind() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            UvError::from(Error::new(ErrorKind::InvalidData, "bad byte")),
            UvError::SnapshotCorrupt(_)
        ));
        assert!(matches!(
            UvError::from(Error::new(ErrorKind::UnexpectedEof, "short read")),
            UvError::SnapshotCorrupt(_)
        ));
        assert!(matches!(
            UvError::from(Error::new(ErrorKind::PermissionDenied, "nope")),
            UvError::Io(_)
        ));
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(UvError::InvalidPoint);
        assert!(e.source().is_none());
    }
}
