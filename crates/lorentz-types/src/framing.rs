//! Shared frame codec for every length-prefixed byte stream in the workspace.
//!
//! Three subsystems frame payloads onto a byte stream or an append-only
//! file, and before this module each hand-rolled the layout:
//!
//! * the TCP client front end (`lorentz-serve::wire`): `[4 len u32 BE][payload]`;
//! * the signal WAL (`lorentz-core::personalizer::wal`):
//!   `[4 magic "LSIG"][4 len u32 LE][4 CRC32C u32 LE][payload]`;
//! * the replication stream, which carries the WAL's frames verbatim over a
//!   socket so the follower decodes exactly the bytes the leader fsynced.
//!
//! [`FrameCodec`] captures the layout as data (optional magic, length
//! endianness, optional CRC32C, payload cap) so cap enforcement, torn-frame
//! detection, and checksum validation are implemented once. Both historical
//! byte layouts are preserved bit-for-bit: [`FrameCodec::wire`] and
//! [`FrameCodec::wal`] encode exactly what the hand-rolled versions did, so
//! on-disk WALs and on-wire clients need no migration.
//!
//! Two decode surfaces are offered because the two call sites differ:
//!
//! * **Buffer decode** ([`FrameCodec::decode`]) for the WAL, which slurps a
//!   file and walks frames, treating an incomplete tail as a torn write;
//! * **Stream decode** ([`FrameCodec::read_frame`]) for sockets, which
//!   distinguishes a clean close at a frame boundary ([`StreamError::Closed`])
//!   from a connection dropped mid-frame ([`StreamError::Truncated`]).

use std::io::{self, Read, Write};

/// Hard ceiling any codec will accept, regardless of configuration.
pub const ABSOLUTE_MAX_PAYLOAD: usize = 1 << 30;

/// The slice-by-8 tables of CRC-32C (Castagnoli, reflected polynomial
/// 0x82F63B78): `T[0][b]` is the CRC of the byte `b`, and `T[k][b]` is that
/// CRC advanced over `k` more zero bytes, so eight table lookups fold eight
/// input bytes into the register at once.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// CRC-32C (Castagnoli) over `bytes`, the checksum used by every framed
/// byte stream in the workspace (store snapshots, the signal WAL, and the
/// replication stream). Eight bytes per step (slice-by-8), then the tail
/// one byte at a time.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Byte order of the u32 length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenEndian {
    /// Big-endian length prefix (network order; the client wire protocol).
    Big,
    /// Little-endian length prefix (the WAL's on-disk layout).
    Little,
}

/// A frame-layout description: optional 4-byte magic, a u32 length prefix,
/// an optional CRC32C of the payload, and a payload cap enforced *before*
/// any payload bytes are buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCodec {
    magic: Option<[u8; 4]>,
    len_endian: LenEndian,
    checksum: bool,
    max_payload: usize,
}

/// Structural frame violations shared by buffer and stream decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared payload length exceeds the codec's cap. Detected from
    /// the header alone, before any payload is buffered.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The codec's configured cap.
        max: usize,
    },
    /// The frame did not start with the codec's magic bytes.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The payload failed its CRC32C check.
    ChecksumMismatch {
        /// Checksum recorded in the frame header.
        expected: u32,
        /// Checksum computed over the received payload.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Result of decoding one frame out of an in-memory buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete frame: its payload and the total bytes consumed
    /// (header + payload).
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Total encoded size of the frame, header included.
        consumed: usize,
    },
    /// The buffer ends before the frame does (a torn tail, or simply the
    /// end of what has been written so far).
    Incomplete {
        /// Bytes available past the decode offset.
        got: usize,
        /// The declared payload length, when the header itself was intact.
        declared: Option<usize>,
    },
}

/// Errors from stream ([`Read`]) decoding.
#[derive(Debug)]
pub enum StreamError {
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// The stream closed mid-frame (inside the header or the payload).
    Truncated,
    /// A structural violation: oversized frame, bad magic, bad checksum.
    Frame(FrameError),
    /// An I/O error other than EOF.
    Io(io::Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Closed => write!(f, "stream closed at a frame boundary"),
            StreamError::Truncated => write!(f, "stream closed mid-frame"),
            StreamError::Frame(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<FrameError> for StreamError {
    fn from(e: FrameError) -> Self {
        StreamError::Frame(e)
    }
}

impl FrameCodec {
    /// The client wire layout: `[4 len u32 BE][payload]`, no magic, no
    /// checksum (TCP already checksums; the JSON payloads are self-framing).
    pub fn wire(max_payload: usize) -> Self {
        FrameCodec {
            magic: None,
            len_endian: LenEndian::Big,
            checksum: false,
            max_payload: max_payload.min(ABSOLUTE_MAX_PAYLOAD),
        }
    }

    /// The WAL layout: `[4 magic][4 len u32 LE][4 CRC32C u32 LE][payload]`.
    pub fn wal(magic: [u8; 4], max_payload: usize) -> Self {
        FrameCodec {
            magic: Some(magic),
            len_endian: LenEndian::Little,
            checksum: true,
            max_payload: max_payload.min(ABSOLUTE_MAX_PAYLOAD),
        }
    }

    /// Bytes of header preceding the payload.
    pub fn header_len(&self) -> usize {
        (if self.magic.is_some() { 4 } else { 0 }) + 4 + (if self.checksum { 4 } else { 0 })
    }

    /// The payload cap this codec enforces.
    pub fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// Frame `payload`, appending header + payload to `out`.
    ///
    /// # Panics
    /// Panics if `payload` exceeds the codec's cap — encoding an oversized
    /// frame is a programming error, not a runtime condition.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        assert!(
            payload.len() <= self.max_payload,
            "frame payload of {} bytes exceeds cap of {}",
            payload.len(),
            self.max_payload
        );
        if let Some(magic) = self.magic {
            out.extend_from_slice(&magic);
        }
        let len = payload.len() as u32;
        match self.len_endian {
            LenEndian::Big => out.extend_from_slice(&len.to_be_bytes()),
            LenEndian::Little => out.extend_from_slice(&len.to_le_bytes()),
        }
        if self.checksum {
            out.extend_from_slice(&crc32c(payload).to_le_bytes());
        }
        out.extend_from_slice(payload);
    }

    /// Frame `payload` into a fresh buffer.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + payload.len());
        self.encode_into(payload, &mut out);
        out
    }

    /// Decode the frame starting at `buf[offset..]`.
    ///
    /// Returns [`Decoded::Incomplete`] when the buffer ends before the frame
    /// does — callers decide whether that means "torn tail, truncate" (WAL
    /// open) or "wait for more bytes" (tailer).
    pub fn decode<'a>(&self, buf: &'a [u8], offset: usize) -> Result<Decoded<'a>, FrameError> {
        let rest = &buf[offset.min(buf.len())..];
        let header_len = self.header_len();
        if rest.len() < header_len {
            return Ok(Decoded::Incomplete {
                got: rest.len(),
                declared: None,
            });
        }
        let mut pos = 0;
        if let Some(magic) = self.magic {
            let found: [u8; 4] = rest[..4].try_into().expect("4-byte slice");
            if found != magic {
                return Err(FrameError::BadMagic { found });
            }
            pos += 4;
        }
        let len_bytes: [u8; 4] = rest[pos..pos + 4].try_into().expect("4-byte slice");
        let len = match self.len_endian {
            LenEndian::Big => u32::from_be_bytes(len_bytes),
            LenEndian::Little => u32::from_le_bytes(len_bytes),
        } as usize;
        pos += 4;
        if len > self.max_payload {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_payload,
            });
        }
        let expected = if self.checksum {
            let crc_bytes: [u8; 4] = rest[pos..pos + 4].try_into().expect("4-byte slice");
            pos += 4;
            Some(u32::from_le_bytes(crc_bytes))
        } else {
            None
        };
        if rest.len() < pos + len {
            return Ok(Decoded::Incomplete {
                got: rest.len(),
                declared: Some(len),
            });
        }
        let payload = &rest[pos..pos + len];
        if let Some(expected) = expected {
            let actual = crc32c(payload);
            if actual != expected {
                return Err(FrameError::ChecksumMismatch { expected, actual });
            }
        }
        Ok(Decoded::Frame {
            payload,
            consumed: pos + len,
        })
    }

    /// Read one frame from a stream.
    ///
    /// EOF before the first header byte is [`StreamError::Closed`]; EOF
    /// anywhere inside the frame is [`StreamError::Truncated`]. The length
    /// is validated against the cap before any payload is buffered, and
    /// `ErrorKind::Interrupted` is retried.
    pub fn read_frame(&self, reader: &mut impl Read) -> Result<Vec<u8>, StreamError> {
        let mut header = vec![0u8; self.header_len()];
        read_exact_or_eof(reader, &mut header)?;
        let mut pos = 0;
        if let Some(magic) = self.magic {
            let found: [u8; 4] = header[..4].try_into().expect("4-byte slice");
            if found != magic {
                return Err(FrameError::BadMagic { found }.into());
            }
            pos += 4;
        }
        let len_bytes: [u8; 4] = header[pos..pos + 4].try_into().expect("4-byte slice");
        let len = match self.len_endian {
            LenEndian::Big => u32::from_be_bytes(len_bytes),
            LenEndian::Little => u32::from_le_bytes(len_bytes),
        } as usize;
        pos += 4;
        if len > self.max_payload {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_payload,
            }
            .into());
        }
        let expected = if self.checksum {
            let crc_bytes: [u8; 4] = header[pos..pos + 4].try_into().expect("4-byte slice");
            Some(u32::from_le_bytes(crc_bytes))
        } else {
            None
        };
        let mut payload = vec![0u8; len];
        read_body(reader, &mut payload)?;
        if let Some(expected) = expected {
            let actual = crc32c(&payload);
            if actual != expected {
                return Err(FrameError::ChecksumMismatch { expected, actual }.into());
            }
        }
        Ok(payload)
    }

    /// Frame `payload` onto a stream and flush.
    pub fn write_frame(&self, writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        if payload.len() > self.max_payload {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds cap of {}",
                    payload.len(),
                    self.max_payload
                ),
            ));
        }
        let frame = self.encode(payload);
        writer.write_all(&frame)?;
        writer.flush()
    }
}

/// Read exactly `buf.len()` bytes; EOF at byte 0 is `Closed`, EOF later is
/// `Truncated`, `Interrupted` is retried.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), StreamError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    StreamError::Closed
                } else {
                    StreamError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StreamError::Io(e)),
        }
    }
    Ok(())
}

/// Like [`read_exact_or_eof`] but EOF anywhere (including byte 0) is
/// `Truncated`: the header already committed us to a frame.
fn read_body(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), StreamError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(StreamError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StreamError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32c_matches_known_vector() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// CRC-32C one bit at a time: the definition the tables are built from.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0x82F6_3B78
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Slice-by-8 equals the bitwise definition at every length up to
        /// 2 KiB, from every start offset within an 8-byte word.
        #[test]
        fn crc32c_equals_the_bitwise_reference(
            buf in collection::vec(any::<u8>(), 8..=2056),
            start in 0usize..8,
            len in 0usize..=2048,
        ) {
            let bytes = &buf[start..(start + len).min(buf.len())];
            prop_assert_eq!(crc32c(bytes), crc32c_bitwise(bytes));
        }
    }

    #[test]
    fn wire_layout_is_len_be_then_payload() {
        let codec = FrameCodec::wire(1 << 20);
        let frame = codec.encode(b"hello");
        assert_eq!(&frame[..4], &5u32.to_be_bytes());
        assert_eq!(&frame[4..], b"hello");
    }

    #[test]
    fn wal_layout_is_magic_len_crc_payload() {
        let codec = FrameCodec::wal(*b"LSIG", 1 << 24);
        let frame = codec.encode(b"hello");
        assert_eq!(&frame[..4], b"LSIG");
        assert_eq!(&frame[4..8], &5u32.to_le_bytes());
        assert_eq!(&frame[8..12], &crc32c(b"hello").to_le_bytes());
        assert_eq!(&frame[12..], b"hello");
    }

    #[test]
    fn buffer_decode_roundtrips_and_reports_torn_tail() {
        let codec = FrameCodec::wal(*b"LSIG", 1 << 24);
        let mut buf = codec.encode(b"one");
        codec.encode_into(b"two", &mut buf);
        let Decoded::Frame { payload, consumed } = codec.decode(&buf, 0).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(payload, b"one");
        let Decoded::Frame {
            payload,
            consumed: c2,
        } = codec.decode(&buf, consumed).unwrap()
        else {
            panic!("expected a frame");
        };
        assert_eq!(payload, b"two");
        assert_eq!(consumed + c2, buf.len());
        // Torn tail: every strict prefix of a frame decodes as Incomplete,
        // with the declared length surfaced once the header is whole.
        let frame = codec.encode(b"torn");
        for cut in 0..frame.len() {
            match codec.decode(&frame[..cut], 0).unwrap() {
                Decoded::Incomplete { got, declared } => {
                    assert_eq!(got, cut);
                    assert_eq!(
                        declared,
                        if cut >= codec.header_len() {
                            Some(4)
                        } else {
                            None
                        }
                    );
                }
                other => panic!("cut {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn buffer_decode_rejects_corruption() {
        let codec = FrameCodec::wal(*b"LSIG", 16);
        let mut frame = codec.encode(b"payload");
        frame[12] ^= 0x01;
        assert!(matches!(
            codec.decode(&frame, 0),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        let mut bad_magic = codec.encode(b"payload");
        bad_magic[0] = b'X';
        assert!(matches!(
            codec.decode(&bad_magic, 0),
            Err(FrameError::BadMagic { .. })
        ));
        let mut oversized = codec.encode(b"payload");
        oversized[4..8].copy_from_slice(&64u32.to_le_bytes());
        assert!(matches!(
            codec.decode(&oversized, 0),
            Err(FrameError::TooLarge { len: 64, max: 16 })
        ));
    }

    #[test]
    fn stream_read_distinguishes_closed_from_truncated() {
        let codec = FrameCodec::wire(1 << 20);
        let frame = codec.encode(b"abc");
        let mut cursor = io::Cursor::new(frame.clone());
        assert_eq!(codec.read_frame(&mut cursor).unwrap(), b"abc");
        assert!(matches!(
            codec.read_frame(&mut cursor),
            Err(StreamError::Closed)
        ));
        let mut torn = io::Cursor::new(frame[..5].to_vec());
        assert!(matches!(
            codec.read_frame(&mut torn),
            Err(StreamError::Truncated)
        ));
        let mut mid_header = io::Cursor::new(frame[..2].to_vec());
        assert!(matches!(
            codec.read_frame(&mut mid_header),
            Err(StreamError::Truncated)
        ));
    }

    #[test]
    fn stream_read_rejects_oversized_before_buffering() {
        let codec = FrameCodec::wire(8);
        let mut raw = Vec::new();
        raw.extend_from_slice(&1024u32.to_be_bytes());
        let mut cursor = io::Cursor::new(raw);
        assert!(matches!(
            codec.read_frame(&mut cursor),
            Err(StreamError::Frame(FrameError::TooLarge {
                len: 1024,
                max: 8
            }))
        ));
    }
}
