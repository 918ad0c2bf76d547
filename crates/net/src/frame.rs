//! Length-prefixed, CRC-guarded frames over any byte stream.
//!
//! Layout: `len: u32 LE` ‖ `crc32: u32 LE` ‖ `payload: len bytes`,
//! with the same CRC-32 (ISO-HDLC) the WAL uses for its records — one
//! checksum algorithm for everything that crosses a trust boundary.

use std::io::{Read, Write};

use bftree_wal::crc32;

use crate::NetError;

/// Upper bound on a frame payload (16 MiB) — rejects garbage lengths
/// before they become allocations.
pub const MAX_FRAME: usize = 16 << 20;

/// Write one frame (header + payload) to `w`. Flushing is the
/// caller's business — pipelined clients batch many frames per flush.
/// A payload over [`MAX_FRAME`] is refused with
/// [`std::io::ErrorKind::InvalidInput`] before any byte is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload from `r`, verifying length sanity and
/// checksum. `Ok(None)` on clean EOF at a frame boundary (the peer
/// hung up between requests); mid-frame EOF and checksum mismatches
/// are errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NetError> {
    let mut header = [0u8; 8];
    match r.read_exact(&mut header[..1]) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other.map_err(NetError::Io)?,
    }
    r.read_exact(&mut header[1..]).map_err(NetError::Io)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(NetError::Frame {
            why: "frame length exceeds MAX_FRAME",
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(NetError::Io)?;
    if crc32(&payload) != want_crc {
        return Err(NetError::Frame {
            why: "frame checksum mismatch",
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for payload in [&b""[..], b"x", &[0xAB; 1000]] {
            buf.clear();
            write_frame(&mut buf, payload).unwrap();
            let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }).unwrap().is_none());

        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(read_frame(&mut { cut }), Err(NetError::Io(_))));
    }

    #[test]
    fn corruption_is_caught() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0x40;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(NetError::Frame { .. })
        ));

        // Oversized payloads are refused without writing anything.
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty());

        // Absurd length field.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(NetError::Frame { .. })
        ));
    }
}
