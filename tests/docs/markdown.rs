//! Just enough Markdown reading for the document checks: headings, and the
//! `--flags` a command is written with. Shared by `tests/docs.rs` and
//! `crates/experiments/tests/check.rs`.

use std::collections::BTreeSet;

/// The text of every heading outside fenced code blocks, without its `#`s.
pub fn headings(md: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim());
        }
    }
    out
}

/// Every `--flag` token in `text` (a trailing `-` is not part of it).
pub fn flags(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.starts_with("--") && t[2..].starts_with(|c: char| c.is_ascii_lowercase()))
        .map(|t| t.trim_end_matches('-').to_string())
        .collect()
}

/// Where `cmd` is invoked in `text`: the byte after the first occurrence
/// that stands as a command word (after the start, a space or a `/`, and
/// before a space or the end).
fn after_command<'a>(text: &'a str, cmd: &str) -> Option<&'a str> {
    let mut from = 0;
    while let Some(at) = text[from..].find(cmd).map(|p| p + from) {
        let end = at + cmd.len();
        if (at == 0 || text[..at].ends_with(|c: char| c.is_whitespace() || c == '/'))
            && (end == text.len() || text[end..].starts_with(char::is_whitespace))
        {
            return Some(&text[end..]);
        }
        from = end;
    }
    None
}

/// Every `--flag` written after a `cmd` invocation: inside an inline code
/// span up to its closing backtick, and in a fenced code block to the end
/// of the command, `\` continuation lines included. Prose is not read.
pub fn flags_after(md: &str, cmd: &str) -> BTreeSet<String> {
    fn spans(paragraph: &mut String, cmd: &str, out: &mut BTreeSet<String>) {
        for span in paragraph.split('`').skip(1).step_by(2) {
            if let Some(rest) = after_command(span, cmd) {
                out.extend(flags(rest));
            }
        }
        paragraph.clear();
    }
    let mut out = BTreeSet::new();
    let mut fenced = false;
    let mut continued = false;
    let mut paragraph = String::new();
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            spans(&mut paragraph, cmd, &mut out);
            fenced = !fenced;
            continued = false;
        } else if fenced {
            let rest = if continued {
                Some(line)
            } else {
                after_command(line, cmd)
            };
            if let Some(rest) = rest {
                out.extend(flags(rest));
            }
            continued = rest.is_some() && line.trim_end().ends_with('\\');
        } else if line.trim().is_empty() {
            spans(&mut paragraph, cmd, &mut out);
        } else {
            paragraph.push_str(line);
            paragraph.push('\n');
        }
    }
    spans(&mut paragraph, cmd, &mut out);
    out
}
