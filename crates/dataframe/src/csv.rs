//! CSV reading and writing with type inference.
//!
//! Hand-rolled (no external dependency): supports quoted fields, embedded
//! commas/newlines/escaped quotes, and per-column type inference over
//! int -> float -> datetime -> bool -> string, with empty fields as nulls.
//!
//! Two parsing modes:
//! - **strict** (the default, [`read_csv_str`] and friends): any ragged
//!   record or unterminated quote aborts the read with an error.
//! - **permissive** ([`read_csv_str_permissive`] and friends): malformed
//!   records are repaired — short records padded with nulls, long records
//!   truncated, an unterminated quote closed at end of input — and every
//!   repair is recorded in a [`ParseReport`] so callers can surface data
//!   quality instead of losing the whole file to one bad row.

use std::fmt;
use std::io::{BufRead, Write};

use crate::column::Column;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::value::{parse_datetime, Value};

/// One recoverable defect found while reading CSV in permissive mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIssue {
    /// 1-based record number in the file; the header is record 1, so the
    /// dataframe row for a data-record issue is `row - 2`.
    pub row: usize,
    /// What was wrong and how it was repaired.
    pub reason: String,
}

impl fmt::Display for ParseIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record {}: {}", self.row, self.reason)
    }
}

/// Every repair performed by a permissive CSV read. Empty means the file
/// was clean and the permissive result is identical to a strict read.
#[derive(Debug, Clone, Default)]
pub struct ParseReport {
    pub issues: Vec<ParseIssue>,
}

impl ParseReport {
    /// True when no repairs were needed.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Number of repaired records.
    pub fn len(&self) -> usize {
        self.issues.len()
    }

    pub fn is_empty(&self) -> bool {
        self.issues.is_empty()
    }

    fn push(&mut self, row: usize, reason: impl Into<String>) {
        self.issues.push(ParseIssue {
            row,
            reason: reason.into(),
        });
    }
}

impl fmt::Display for ParseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean parse (no issues)");
        }
        writeln!(f, "{} malformed record(s) repaired:", self.len())?;
        for issue in &self.issues {
            writeln!(f, "  {issue}")?;
        }
        Ok(())
    }
}

/// Parse CSV text into a dataframe. The first record is the header.
pub fn read_csv_str(text: &str) -> Result<DataFrame> {
    let records = parse_records(text)?;
    let mut it = records.into_iter();
    let header = it
        .next()
        .ok_or_else(|| Error::Parse("empty CSV input".into()))?;
    let ncols = header.len();
    let mut raw: Vec<Vec<Option<String>>> = vec![Vec::new(); ncols];
    for (line_no, rec) in it.enumerate() {
        if rec.len() != ncols {
            return Err(Error::Parse(format!(
                "record {} has {} fields, expected {ncols}",
                line_no + 2,
                rec.len()
            )));
        }
        for (c, field) in rec.into_iter().enumerate() {
            raw[c].push(if field.is_empty() { None } else { Some(field) });
        }
    }

    assemble(header, raw)
}

/// Longest cell a permissive read will ingest, in bytes. Cells beyond this
/// are truncated (at a char boundary) and reported — a single megabyte-long
/// field must not become an unbounded string in every downstream clone.
pub const MAX_CELL_BYTES: usize = 4096;

/// Parse CSV text leniently: malformed records are repaired instead of
/// aborting the read. Short records are padded with nulls, long records
/// truncated to the header width, over-long cells truncated to
/// [`MAX_CELL_BYTES`], and an unterminated quoted field is closed at end of
/// input; each repair lands in the returned [`ParseReport`]. A clean file
/// yields the same frame as [`read_csv_str`] with an empty report.
pub fn read_csv_str_permissive(text: &str) -> Result<(DataFrame, ParseReport)> {
    let scan = scan_records(text)?;
    let mut report = ParseReport::default();
    if scan.unterminated {
        report.push(
            scan.records.len(),
            "unterminated quoted field; closed at end of input",
        );
    }
    let mut it = scan.records.into_iter();
    let mut header = it
        .next()
        .ok_or_else(|| Error::Parse("empty CSV input".into()))?;
    for field in &mut header {
        cap_cell(field, 1, &mut report);
    }
    let ncols = header.len();
    let mut raw: Vec<Vec<Option<String>>> = vec![Vec::new(); ncols];
    for (line_no, mut rec) in it.enumerate() {
        if rec.len() < ncols {
            report.push(
                line_no + 2,
                format!(
                    "{} fields, expected {ncols}; missing fields read as nulls",
                    rec.len()
                ),
            );
            rec.resize(ncols, String::new());
        } else if rec.len() > ncols {
            report.push(
                line_no + 2,
                format!(
                    "{} fields, expected {ncols}; extra fields dropped",
                    rec.len()
                ),
            );
            rec.truncate(ncols);
        }
        for (c, mut field) in rec.into_iter().enumerate() {
            cap_cell(&mut field, line_no + 2, &mut report);
            raw[c].push(if field.is_empty() { None } else { Some(field) });
        }
    }
    // The unterminated-quote issue is recorded before the per-record walk;
    // present the report in file order.
    report.issues.sort_by_key(|i| i.row);

    Ok((assemble(header, raw)?, report))
}

/// Truncate `field` to [`MAX_CELL_BYTES`] at a char boundary, recording the
/// truncation against record `row`.
fn cap_cell(field: &mut String, row: usize, report: &mut ParseReport) {
    if field.len() <= MAX_CELL_BYTES {
        return;
    }
    let mut cut = MAX_CELL_BYTES;
    while !field.is_char_boundary(cut) {
        cut -= 1;
    }
    let dropped = field.len() - cut;
    field.truncate(cut);
    report.push(
        row,
        format!("cell longer than {MAX_CELL_BYTES} bytes; truncated ({dropped} bytes dropped)"),
    );
}

fn assemble(header: Vec<String>, raw: Vec<Vec<Option<String>>>) -> Result<DataFrame> {
    let cols: Vec<(String, Column)> = header
        .into_iter()
        .zip(raw)
        .map(|(name, fields)| (name, infer_column(&fields)))
        .collect();
    DataFrame::from_columns(cols)
}

/// Read CSV from any buffered reader.
pub fn read_csv<R: BufRead>(reader: R) -> Result<DataFrame> {
    read_csv_str(&slurp(reader)?)
}

/// Read CSV from any buffered reader in permissive mode.
pub fn read_csv_permissive<R: BufRead>(reader: R) -> Result<(DataFrame, ParseReport)> {
    read_csv_str_permissive(&slurp(reader)?)
}

/// Read CSV from a file path.
pub fn read_csv_path(path: &std::path::Path) -> Result<DataFrame> {
    read_csv(open(path)?)
}

/// Read CSV from a file path in permissive mode.
pub fn read_csv_path_permissive(path: &std::path::Path) -> Result<(DataFrame, ParseReport)> {
    read_csv_permissive(open(path)?)
}

fn open(path: &std::path::Path) -> Result<std::io::BufReader<std::fs::File>> {
    let file =
        std::fs::File::open(path).map_err(|e| Error::Parse(format!("open {path:?}: {e}")))?;
    Ok(std::io::BufReader::new(file))
}

fn slurp<R: BufRead>(mut reader: R) -> Result<String> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| Error::Parse(format!("io error: {e}")))?;
    Ok(text)
}

/// Serialize a dataframe as CSV (header + rows; nulls as empty fields).
pub fn write_csv<W: Write>(df: &DataFrame, out: &mut W) -> std::io::Result<()> {
    let header: Vec<String> = df.column_names().iter().map(|n| quote(n)).collect();
    writeln!(out, "{}", header.join(","))?;
    for r in 0..df.num_rows() {
        let row: Vec<String> = (0..df.num_columns())
            .map(|c| {
                let v = df.column_at(c).value(r);
                if v.is_null() {
                    String::new()
                } else {
                    quote(&v.to_string())
                }
            })
            .collect();
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Split CSV text into records of fields, honoring quotes. Strict: an
/// unterminated quoted field is an error.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let scan = scan_records(text)?;
    if scan.unterminated {
        return Err(Error::Parse("unterminated quoted field".into()));
    }
    Ok(scan.records)
}

struct ScanOutcome {
    records: Vec<Vec<String>>,
    /// The last record ended inside an open quote (closed at end of input).
    unterminated: bool,
}

/// The shared record scanner. Never fails on malformed quoting — it reports
/// an open quote at end of input through [`ScanOutcome::unterminated`] and
/// lets the strict/permissive wrappers decide whether that is fatal.
fn scan_records(text: &str) -> Result<ScanOutcome> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(ch) = chars.next() {
        saw_any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(ch),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(ch),
            }
        }
    }
    if !saw_any {
        return Err(Error::Parse("empty CSV input".into()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    // Drop a trailing fully-empty record produced by a final newline (not
    // one produced by closing an unterminated quote — that one is real).
    if !in_quotes
        && records
            .last()
            .is_some_and(|r| r.len() == 1 && r[0].is_empty())
    {
        records.pop();
    }
    Ok(ScanOutcome {
        records,
        unterminated: in_quotes,
    })
}

/// Infer the best column type for the raw string fields.
fn infer_column(fields: &[Option<String>]) -> Column {
    let mut all_int = true;
    let mut all_float = true;
    let mut all_datetime = true;
    let mut all_bool = true;
    let mut any_value = false;
    for f in fields.iter().flatten() {
        any_value = true;
        let t = f.trim();
        if all_int && t.parse::<i64>().is_err() {
            all_int = false;
        }
        if all_float && t.parse::<f64>().is_err() {
            all_float = false;
        }
        if all_datetime && parse_datetime(t).is_none() {
            all_datetime = false;
        }
        if all_bool && !matches!(t.to_ascii_lowercase().as_str(), "true" | "false") {
            all_bool = false;
        }
        if !all_int && !all_float && !all_datetime && !all_bool {
            break;
        }
    }
    if !any_value {
        // all nulls: default to string
        let mut col = Column::empty(crate::value::DType::Str);
        for _ in fields {
            col.push_value(&Value::Null).unwrap();
        }
        return col;
    }

    let values: Vec<Value> = fields
        .iter()
        .map(|f| match f {
            None => Value::Null,
            Some(s) => {
                let t = s.trim();
                if all_int {
                    Value::Int(t.parse().unwrap())
                } else if all_float {
                    Value::Float(t.parse().unwrap())
                } else if all_datetime {
                    Value::DateTime(parse_datetime(t).unwrap())
                } else if all_bool {
                    Value::Bool(t.eq_ignore_ascii_case("true"))
                } else {
                    Value::str(s)
                }
            }
        })
        .collect();
    Column::from_values(&values).expect("inferred values are homogeneous")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DType;

    #[test]
    fn basic_read_with_inference() {
        let df = read_csv_str("a,b,c,d\n1,2.5,x,2020-01-01\n2,3.5,y,2020-01-02\n").unwrap();
        assert_eq!(df.num_rows(), 2);
        let types: Vec<DType> = df.schema().iter().map(|(_, t)| *t).collect();
        assert_eq!(
            types,
            vec![DType::Int64, DType::Float64, DType::Str, DType::DateTime]
        );
    }

    #[test]
    fn empty_fields_are_nulls() {
        let df = read_csv_str("a,b\n1,\n,2\n").unwrap();
        assert_eq!(df.column("a").unwrap().null_count(), 1);
        assert_eq!(df.column("b").unwrap().null_count(), 1);
        assert_eq!(df.schema()[0].1, DType::Int64);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let df = read_csv_str("name,msg\nAl,\"hello, \"\"world\"\"\"\nBo,plain\n").unwrap();
        assert_eq!(df.value(0, "msg").unwrap(), Value::str("hello, \"world\""));
    }

    #[test]
    fn quoted_field_with_newline() {
        let df = read_csv_str("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.value(0, "a").unwrap(), Value::str("line1\nline2"));
    }

    #[test]
    fn mixed_types_fall_back_to_string() {
        let df = read_csv_str("a\n1\nfoo\n").unwrap();
        assert_eq!(df.schema()[0].1, DType::Str);
    }

    #[test]
    fn int_and_float_mix_becomes_float() {
        let df = read_csv_str("a\n1\n2.5\n").unwrap();
        assert_eq!(df.schema()[0].1, DType::Float64);
    }

    #[test]
    fn bool_inference() {
        let df = read_csv_str("a\ntrue\nFalse\n").unwrap();
        assert_eq!(df.schema()[0].1, DType::Bool);
        assert_eq!(df.value(1, "a").unwrap(), Value::Bool(false));
    }

    #[test]
    fn ragged_record_errors() {
        assert!(read_csv_str("a,b\n1\n").is_err());
        assert!(read_csv_str("").is_err());
        assert!(read_csv_str("a\n\"unterminated\n").is_err());
    }

    #[test]
    fn permissive_pads_short_records_with_nulls() {
        let (df, report) = read_csv_str_permissive("a,b,c\n1,2,3\n4\n5,6,7\n").unwrap();
        assert_eq!(df.num_rows(), 3);
        assert_eq!(df.value(1, "a").unwrap(), Value::Int(4));
        assert!(df.value(1, "b").unwrap().is_null());
        assert!(df.value(1, "c").unwrap().is_null());
        assert_eq!(report.len(), 1);
        assert_eq!(report.issues[0].row, 3); // header is record 1
        assert!(report.issues[0].reason.contains("1 fields, expected 3"));
    }

    #[test]
    fn permissive_truncates_long_records() {
        let (df, report) = read_csv_str_permissive("a,b\n1,2\n3,4,99,100\n").unwrap();
        assert_eq!(df.num_rows(), 2);
        assert_eq!(df.num_columns(), 2);
        assert_eq!(df.value(1, "b").unwrap(), Value::Int(4));
        assert_eq!(report.len(), 1);
        assert!(report.issues[0].reason.contains("extra fields dropped"));
    }

    #[test]
    fn permissive_closes_unterminated_quote() {
        let (df, report) = read_csv_str_permissive("a,b\n1,\"unterminated\n").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.value(0, "b").unwrap(), Value::str("unterminated\n"));
        assert_eq!(report.len(), 1);
        assert!(report.issues[0].reason.contains("unterminated"));
    }

    #[test]
    fn permissive_clean_file_matches_strict_with_empty_report() {
        let text = "a,b\n1,x\n2,y\n";
        let strict = read_csv_str(text).unwrap();
        let (lenient, report) = read_csv_str_permissive(text).unwrap();
        assert!(report.is_clean());
        assert_eq!(format!("{report}"), "clean parse (no issues)");
        assert_eq!(lenient.num_rows(), strict.num_rows());
        assert_eq!(lenient.schema(), strict.schema());
    }

    #[test]
    fn permissive_caps_huge_cells() {
        let huge = "x".repeat(MAX_CELL_BYTES * 3);
        let text = format!("a,b\n1,{huge}\n2,ok\n");
        let (df, report) = read_csv_str_permissive(&text).unwrap();
        let v = df.value(0, "b").unwrap();
        assert_eq!(v.to_string().len(), MAX_CELL_BYTES);
        assert_eq!(report.len(), 1);
        assert_eq!(report.issues[0].row, 2);
        assert!(report.issues[0].reason.contains("truncated"));
        // strict mode is untouched
        assert!(read_csv_str(&text).is_ok());
    }

    #[test]
    fn cell_cap_respects_char_boundaries() {
        // 3-byte chars straddling the cap must not split mid-char
        let huge = "é".repeat(MAX_CELL_BYTES); // 2 bytes each
        let text = format!("a\n{huge}\n");
        let (df, report) = read_csv_str_permissive(&text).unwrap();
        let v = df.value(0, "a").unwrap().to_string();
        assert!(v.len() <= MAX_CELL_BYTES);
        assert!(v.chars().all(|c| c == 'é'));
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn permissive_still_rejects_empty_input() {
        assert!(read_csv_str_permissive("").is_err());
    }

    #[test]
    fn report_display_lists_each_issue() {
        let (_, report) = read_csv_str_permissive("a,b\n1\n2,3,4\n").unwrap();
        let rendered = format!("{report}");
        assert!(rendered.contains("2 malformed record(s)"));
        assert!(rendered.contains("record 2:"));
        assert!(rendered.contains("record 3:"));
    }

    #[test]
    fn crlf_line_endings() {
        let df = read_csv_str("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(df.num_rows(), 2);
    }

    #[test]
    fn roundtrip_write_read() {
        let df = read_csv_str("a,b\n1,\"x,y\"\n,plain\n").unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let df2 = read_csv_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(df2.num_rows(), df.num_rows());
        assert_eq!(df2.value(0, "b").unwrap(), Value::str("x,y"));
        assert!(df2.value(1, "a").unwrap().is_null());
    }
}
