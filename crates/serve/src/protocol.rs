//! Length-prefixed JSON framing.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian unsigned length followed by exactly that many bytes of
//! UTF-8 JSON. The prefix makes the protocol self-delimiting over a
//! stream socket without scanning for terminators, so request bodies may
//! contain arbitrary netlist text (including newlines).
//!
//! Frames larger than [`MAX_FRAME_LEN`] are rejected before any body
//! bytes are read: a malicious or corrupt length prefix must not make
//! the server allocate gigabytes.

use std::io::{self, Read, Write};

/// Largest accepted frame body, bytes. Generous for any fig deck or
/// sweep result (the largest bench response is well under 1 MiB) while
/// still bounding per-connection memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Errors surfaced by the frame reader.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed mid-frame, or EOF arrived after a
    /// partial header/body (a clean EOF *between* frames is not an
    /// error — `read_frame` reports it as `Ok(None)`).
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge {
        /// Length the peer declared.
        declared: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame i/o error: {e}"),
            Self::TooLarge { declared } => {
                write!(f, "frame length {declared} exceeds maximum {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Read one frame body. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed after the last complete message); EOF in
/// the middle of a header or body is an [`FrameError::Io`] with kind
/// `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    // Hand-rolled read_exact for the first byte so a boundary EOF is
    // distinguishable from a truncated header.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(
                    io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame header").into(),
                )
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { declared });
    }
    let mut body = vec![0u8; declared];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write one frame (header + body) and flush.
///
/// # Errors
///
/// A body over [`MAX_FRAME_LEN`] is an [`io::ErrorKind::InvalidInput`]
/// error, returned before any byte is written: the peer's reader would
/// reject the frame anyway. Otherwise, the stream's own errors.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame body of {} bytes exceeds maximum {MAX_FRAME_LEN}",
                body.len()
            ),
        ));
    }
    let header = (body.len() as u32).to_be_bytes();
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::prop::prelude::*;
    use carbon_runtime::prop::vec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any body round-trips, and the reader stops exactly at the
        /// end of its frame.
        #[test]
        fn random_bodies_round_trip(body in vec(0u8..=255, 0..=4096)) {
            let mut buf = Vec::new();
            write_frame(&mut buf, &body).unwrap();
            prop_assert_eq!(buf.len(), 4 + body.len());
            let mut r = buf.as_slice();
            match read_frame(&mut r) {
                Ok(Some(got)) => prop_assert_eq!(got, body),
                other => return Err(TestCaseError::fail(format!("read back {other:?}"))),
            }
            prop_assert!(matches!(read_frame(&mut r), Ok(None)), "clean eof after the frame");
        }

        /// Every strict prefix of a frame reads as nothing at zero
        /// bytes and as `UnexpectedEof` otherwise, never as a body.
        #[test]
        fn strict_prefixes_are_none_or_unexpected_eof(body in vec(0u8..=255, 0..=4096)) {
            let mut frame = Vec::new();
            write_frame(&mut frame, &body).unwrap();
            for cut in 0..frame.len() {
                let mut r = &frame[..cut];
                match read_frame(&mut r) {
                    Ok(None) if cut == 0 => {}
                    Err(FrameError::Io(e))
                        if cut > 0 && e.kind() == io::ErrorKind::UnexpectedEof => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "{cut}-byte prefix read as {other:?}"
                        )))
                    }
                }
            }
        }

        /// Every length prefix above the maximum is refused before any
        /// body byte is read.
        #[test]
        fn oversized_headers_are_too_large(
            declared in (u32::try_from(MAX_FRAME_LEN).unwrap() + 1)..=u32::MAX,
        ) {
            let header = declared.to_be_bytes();
            match read_frame(&mut header.as_slice()) {
                Err(FrameError::TooLarge { declared: d }) => {
                    prop_assert_eq!(d, declared as usize);
                }
                other => return Err(TestCaseError::fail(format!("read as {other:?}"))),
            }
        }
    }

    #[test]
    fn oversized_body_is_refused_before_any_byte_is_written() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![b' '; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("16777217"), "{err}");
        assert!(out.is_empty(), "wrote {} bytes", out.len());
    }

    #[test]
    fn round_trips_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "snowman \u{2603}".as_bytes()).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"id\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "snowman \u{2603}".as_bytes()
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_unexpected_eof() {
        let mut r: &[u8] = &[0, 0, 1];
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = buf.as_slice();
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        match read_frame(&mut r) {
            Err(FrameError::TooLarge { declared }) => assert_eq!(declared, 0xffff_ffff),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
