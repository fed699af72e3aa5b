//! Wire framing for the query server.
//!
//! Every message in either direction is one *frame*: a 4-byte big-endian
//! length prefix followed by that many bytes of UTF-8 text. Requests are
//! single-line commands (`ADD car >= 1`); responses start with `OK` or
//! `ERR` and may span multiple lines (POLL returns one `EVENT` line per
//! delivered match). The codec is deliberately std-only — no serde, no
//! async runtime — so the server binary stays dependency-free.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload. A command is a query string or
/// one frame's detections; a megabyte is orders of magnitude above any
/// legitimate message and keeps a corrupt length prefix from allocating
/// gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Writes one length-prefixed frame as a single `write_all`: prefix and
/// payload handed over separately leave a socket as two segments, and the
/// second then waits for the peer's delayed ACK of the first.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = match u32::try_from(bytes.len()) {
        Ok(len) if bytes.len() <= MAX_FRAME_LEN => len,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME_LEN", bytes.len()),
            ))
        }
    };
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame's raw bytes. Returns `Ok(None)` on a
/// clean EOF (the peer closed between frames); EOF *inside* a frame is an
/// error. An announced length above [`MAX_FRAME_LEN`] is rejected before
/// any payload buffer is allocated — a corrupt or hostile prefix cannot
/// cost more than the 4 header bytes already read.
pub fn read_frame_bytes(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (limit {MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads one length-prefixed frame as UTF-8 text. Same contract as
/// [`read_frame_bytes`], plus an `InvalidData` error when the payload is
/// not valid UTF-8 — note the frame *was* fully consumed in that case, so
/// callers that want to keep the connection alive (the server does: it
/// replies `ERR` instead of hanging up) can resynchronise on the next
/// frame boundary.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<String>> {
    match read_frame_bytes(reader)? {
        None => Ok(None),
        Some(payload) => String::from_utf8(payload)
            .map(Some)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "ADD car >= 1").unwrap();
        write_frame(&mut buffer, "").unwrap();
        write_frame(&mut buffer, "snow ❄ unicode").unwrap();
        let mut cursor = Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), "ADD car >= 1");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), "");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), "snow ❄ unicode");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "STATS").unwrap();
        buffer.truncate(6); // header + one payload byte
        let mut cursor = Cursor::new(&buffer[..]);
        assert!(read_frame(&mut cursor).is_err());
        let mut header_only = Cursor::new(&buffer[..2]);
        assert!(read_frame(&mut header_only).is_err());
    }

    #[test]
    fn oversized_announcements_are_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut cursor = Cursor::new(buffer);
        assert!(read_frame(&mut cursor).is_err());
        let long = "x".repeat(MAX_FRAME_LEN + 1);
        assert!(write_frame(&mut Vec::new(), &long).is_err());
    }
}
