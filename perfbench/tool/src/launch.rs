//! `exec`: runs one command as a child and reports its wall time and
//! resource usage, the way `/usr/bin/time` would.
//!
//! The benchmark cannot take peak RSS from its own `wait4` on the
//! child: a child forked from the Python script inherits the script's
//! memory high-water mark, which the kernel folds into `ru_maxrss` at
//! `exec`. A child forked from this small process starts near 0, so its
//! `ru_maxrss` is the command's own peak.

use std::ffi::{c_int, c_long};
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut c_long) -> c_int;
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then 14 longs.
const RUSAGE_LONGS: usize = 18;
const RU_MAXRSS: usize = 4;
const RU_NVCSW: usize = 16;

/// Runs `cmd` with stdout and stderr appended to `log`; prints one JSON
/// object with the child's wall time, CPU time, peak RSS, voluntary
/// context switches and exit code (negative: killed by that signal).
pub fn run(log: &str, cmd: &[String]) -> Result<String, String> {
    let (program, args) = cmd.split_first().ok_or("exec needs a command")?;
    let out = File::create(log).map_err(|e| format!("cannot create `{log}`: {e}"))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("cannot run `{program}`: {e}"))?;
    let pid = c_int::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status: c_int = 0;
    let mut usage = [0 as c_long; RUSAGE_LONGS];
    // SAFETY: `pid` is our unreaped child (std never waits on it after
    // this), `status` is a valid c_int, and `usage` is a writable buffer
    // the size and alignment of Linux's `struct rusage`.
    let reaped = unsafe { wait4(pid, &mut status, 0, usage.as_mut_ptr()) };
    let wall = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!("wait4 on `{program}` failed"));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let seconds = |sec: usize| usage[sec] as f64 + usage[sec + 1] as f64 * 1e-6;
    Ok(format!(
        "{{\"wall_s\": {wall}, \"cpu_s\": {}, \"maxrss_kb\": {}, \"nvcsw\": {}, \"code\": {code}}}",
        seconds(0) + seconds(2),
        usage[RU_MAXRSS],
        usage[RU_NVCSW]
    ))
}
