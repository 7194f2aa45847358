//! Length-prefixed JSON framing.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian unsigned length followed by exactly that many bytes of
//! UTF-8 JSON. The prefix makes the protocol self-delimiting over a
//! stream socket without scanning for terminators, so request bodies may
//! contain arbitrary netlist text (including newlines). [`write_frame`]
//! sends the prefix and the body in one write, so a frame that fits a
//! segment crosses a socket as one; [`read_frame`] accepts a frame
//! split anywhere.
//!
//! Frames larger than [`MAX_FRAME_LEN`] are rejected before any body
//! bytes are read: a malicious or corrupt length prefix must not make
//! the server allocate gigabytes.

use std::io::{self, IoSlice, Read, Write};

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

/// Write one frame (header + body) in one write, then flush.
///
/// The length prefix and the body go to the writer together as one
/// [`Write::write_vectored`] call, so the body is never copied and a
/// socket sends a frame that fits one segment as one. Both peers set
/// `TCP_NODELAY`, so every write leaves as its own segment, and a
/// reader blocked in `read` wakes once per segment: a frame written in
/// two parts costs the other peer a second wake-up. A short write
/// resumes where it stopped, `Interrupted` is retried, and a write
/// that accepts zero bytes is an [`io::ErrorKind::WriteZero`] error.
///
/// # Errors
///
/// A body over [`MAX_FRAME_LEN`] is an [`io::ErrorKind::InvalidInput`]
/// error, returned before any byte is written: the peer's reader would
/// reject the frame anyway. Otherwise, `WriteZero` or the stream's own
/// errors.
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
    let mut slices = [IoSlice::new(&header), IoSlice::new(body)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match w.write_vectored(unsent) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::prop::prelude::*;
    use carbon_runtime::prop::vec;

    /// A writer that follows a script, one entry per write call and
    /// cycling: `0` returns `Interrupted`, and `n` accepts at most `n`
    /// bytes, gathered across the offered slices. Once it holds `limit`
    /// bytes, every call returns `Ok(0)`.
    struct Scripted {
        script: Vec<usize>,
        limit: usize,
        calls: usize,
        zeros: usize,
        bytes: Vec<u8>,
    }

    impl Scripted {
        fn new(script: Vec<usize>, limit: usize) -> Self {
            Self {
                script,
                limit,
                calls: 0,
                zeros: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let step = self.script[self.calls % self.script.len()];
            self.calls += 1;
            if step == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let before = self.bytes.len();
            let end = before + step.min(self.limit - before);
            if end == before {
                self.zeros += 1;
                return Ok(0);
            }
            for buf in bufs {
                let take = buf.len().min(end - self.bytes.len());
                self.bytes.extend_from_slice(&buf[..take]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame_of(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

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

        /// A writer that takes a few bytes per call and is sometimes
        /// interrupted still receives exactly `length prefix ‖ body`.
        #[test]
        fn short_and_interrupted_writes_deliver_the_whole_frame(
            body in vec(0u8..=255, 0..=512),
            script in vec(0usize..9, 1..=16),
        ) {
            prop_assume!(script.iter().any(|&step| step > 0));
            let mut w = Scripted::new(script, usize::MAX);
            write_frame(&mut w, &body).unwrap();
            prop_assert_eq!(w.bytes, frame_of(&body));
        }

        /// A writer that stops accepting bytes makes the frame a
        /// `WriteZero` error after one zero-byte write, not a loop.
        #[test]
        fn a_zero_byte_write_is_write_zero(
            body in vec(0u8..=255, 0..=512),
            cut in 0usize..516,
        ) {
            let frame = frame_of(&body);
            let budget = cut % frame.len();
            let mut w = Scripted::new(vec![usize::MAX], budget);
            let err = write_frame(&mut w, &body).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::WriteZero);
            prop_assert_eq!(w.zeros, 1);
            prop_assert_eq!(w.bytes.as_slice(), &frame[..budget]);
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
    fn a_frame_is_one_write_call() {
        let mut w = Scripted::new(vec![usize::MAX], usize::MAX);
        let bodies: [&[u8]; 3] = [b"{\"id\":1}", b"", &[b'x'; 70_000]];
        for body in bodies {
            write_frame(&mut w, body).unwrap();
        }
        assert_eq!(w.calls, bodies.len(), "one write call per frame");
        assert_eq!(w.bytes, bodies.map(frame_of).concat());
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
