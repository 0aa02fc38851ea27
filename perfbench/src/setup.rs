//! Cold set-up.  `setup_s` is what a process pays once before timing
//! starts, so each repetition runs in a fresh process: the parent starts
//! its own executable again with [`PROBE_FLAG`], the child sets the
//! workload up once and reports, and the parent takes the median over
//! the children.  A repetition inside one process would be warm after
//! the first (allocator, page tables, lazy caches) and read as a copy
//! of the op time.

use std::process::{Command, Stdio};

/// The flag that makes a run a single set-up probe.
pub const PROBE_FLAG: &str = "--setup-probe";

/// What one child measured.
pub struct Probe {
    pub secs: f64,
    /// The reference kernel's time right after the set-up, for host
    /// normalization.
    pub ref_us: f64,
    /// Whether the set-up's first op passed its output gate.
    pub ok: bool,
}

/// A child's one result line.
pub fn report(probe: &Probe) {
    println!(
        "setup: {} {} {}",
        probe.secs,
        probe.ref_us,
        u8::from(probe.ok)
    );
}

fn parse(stdout: &str) -> Option<Probe> {
    let line = stdout.lines().rev().find(|l| l.starts_with("setup: "))?;
    let mut fields = line["setup: ".len()..].split_whitespace();
    Some(Probe {
        secs: fields.next()?.parse().ok()?,
        ref_us: fields.next()?.parse().ok()?,
        ok: fields.next()? == "1",
    })
}

/// Run `reps` probes, one fresh process each, one after the other; each
/// child has ended before the next starts.
pub fn cold(reps: usize) -> Result<Vec<Probe>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    (0..reps)
        .map(|_| {
            let out = Command::new(&exe)
                .args(&args)
                .args([PROBE_FLAG, "1"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting a set-up probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match parse(&stdout) {
                Some(probe) if out.status.success() => Ok(probe),
                _ => Err(format!("set-up probe failed ({})", out.status)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_line_round_trips() {
        let probe = parse("knobs: x\nsetup: 0.0015 81.5 1\n").unwrap();
        assert_eq!((probe.secs, probe.ref_us, probe.ok), (0.0015, 81.5, true));
        assert!(!parse("setup: 0.0015 81.5 0").unwrap().ok);
        assert!(parse("setup: 0.0015").is_none());
        assert!(parse("no probe here").is_none());
    }
}
