//! Payload primitives of the wire formats: little-endian integers and
//! `u32`-length-prefixed UTF-8 strings. One set of writers and one
//! bounds-checked reader, under both [`crate::widget::WireWidget`] and
//! `lux-server`'s protocol messages.

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub fn put_vec(out: &mut Vec<u8>, items: &[String]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        put_str(out, s);
    }
}

pub fn put_opt(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

/// Bounds-checked reader over a payload. Every accessor returns `Err` on
/// truncation, never panics; element counts are validated against the
/// remaining buffer so a hostile length prefix cannot trigger a huge
/// allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated payload at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "non-UTF-8 string in payload".to_string())
    }

    pub fn vec(&mut self) -> Result<Vec<String>, String> {
        let n = self.u32()? as usize;
        // Each element needs at least its 4-byte length prefix.
        if n > (self.buf.len() - self.pos) / 4 {
            return Err(format!("element count {n} exceeds remaining payload"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.str()?);
        }
        Ok(v)
    }

    pub fn opt(&mut self) -> Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    /// The payload must have been consumed exactly.
    pub fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing byte(s) after payload")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_length_prefixes_are_refused_before_allocating() {
        // A string and a list that each claim u32::MAX elements.
        let claim = u32::MAX.to_le_bytes();
        assert!(Reader::new(&claim).str().is_err());
        assert!(Reader::new(&claim).vec().is_err());
        // A count the remaining bytes could not hold even as empty strings.
        let mut short = 3u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[0; 8]);
        assert!(Reader::new(&short).vec().is_err());
    }
}
