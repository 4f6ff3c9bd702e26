//! Child processes: the `thinslice serve --socket` daemon and its
//! clients, one-shot `thinslice slice` runs, and peak-RSS readings.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use thinslice_util::telemetry::Json;

/// JSON string literal for `s`.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"sources":[...]` array of a load or reload request.
pub fn sources_json(sources: &[(String, String)]) -> String {
    let files: Vec<String> = sources
        .iter()
        .map(|(n, t)| format!("{{\"name\":{},\"text\":{}}}", esc(n), esc(t)))
        .collect();
    format!("[{}]", files.join(","))
}

/// A running `thinslice serve --socket` child.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on a socket under `workdir` and waits until it
    /// accepts connections.
    pub fn spawn(bin: &Path, workdir: &Path, name: &str, extra: &[&str]) -> Result<Daemon, String> {
        let socket = workdir.join(format!("{name}.sock"));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child: Some(child),
            socket,
        };
        let start = Instant::now();
        while UnixStream::connect(&d.socket).is_err() {
            if start.elapsed() > Duration::from_secs(20) {
                d.kill();
                return Err("daemon did not open its socket within 20s".into());
            }
            if let Some(c) = d.child.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    return Err(format!("daemon exited early: {status}"));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(d)
    }

    pub fn connect(&self, client: &str) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            client: client.to_string(),
            buf: String::new(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        status_kb(&format!("/proc/{}/status", self.pid()), "VmHWM:") as f64 / 1024.0
    }

    /// Current resident set of the daemon, in bytes.
    pub fn rss_bytes(&self) -> u64 {
        status_kb(&format!("/proc/{}/status", self.pid()), "VmRSS:") * 1024
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = self
            .connect("admin")
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}").map(|_| ()));
        let mut child = self.child.take().expect("daemon child present");
        if acked.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&self.socket);
        match acked {
            Ok(()) if status.success() => Ok(()),
            Ok(()) => Err(format!("daemon exited with {status}")),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }

    fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One client connection: a closed loop of request → response lines.
pub struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    pub client: String,
    buf: String,
}

impl Conn {
    /// Sends one request line and returns its response line (without the
    /// newline).
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(self.buf.trim_end_matches('\n'))
    }

    /// Loads a program; returns its pool hash.
    pub fn load(&mut self, sources: &[(String, String)]) -> Result<String, String> {
        let req = format!(
            "{{\"op\":\"load\",\"client\":{},\"sources\":{}}}",
            esc(&self.client),
            sources_json(sources)
        );
        let resp = self.call(&req)?;
        let v = Json::parse(resp).map_err(|e| format!("load response: {e}"))?;
        match v.get("program").and_then(Json::as_str) {
            Some(h) if v.get("ok") == Some(&Json::Bool(true)) => Ok(h.to_string()),
            _ => Err(format!("load failed: {resp}")),
        }
    }

    /// Sends a `stats` request; returns the embedded stats document.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.call("{\"op\":\"stats\"}")?;
        let v = Json::parse(resp).map_err(|e| format!("stats response: {e}"))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats failed: {resp}"))
    }
}

/// A `VmHWM:`/`VmRSS:`-style field of a `/proc/*/status` file, in kB.
pub fn status_kb(path: &str, field: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    status_kb("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// `struct rusage` on 64-bit Linux: two timevals (two longs each), then
/// 14 longs, the first of which is `ru_maxrss` in kB.
type Rusage = [i64; 18];
const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Waits for child `pid`; returns its exit code (`None` when killed by a
/// signal) and its peak resident set in kB.
fn wait_with_rusage(pid: u32) -> Result<(Option<i32>, u64), String> {
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut ru: Rusage = [0; 18];
    // SAFETY: `status` and `ru` are live, writable locals of the C layout
    // `wait4` expects on 64-bit Linux, and it writes only within them.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    if rc != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(ru[RU_MAXRSS]).unwrap_or(0)))
}

/// One finished `thinslice` process.
pub struct CliRun {
    pub stdout: String,
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set, in kB.
    pub peak_kb: u64,
}

/// Runs one `thinslice` process to completion.
pub fn run_cli(bin: &Path, args: &[String]) -> Result<CliRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let errs = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    // The child is reaped here, so its own peak RSS is read, not that of
    // every descendant this process ever waited for.
    let (code, peak_kb) = wait_with_rusage(child.id())?;
    let wall = start.elapsed();
    let err = errs.join().unwrap_or_default();
    read.map_err(|e| format!("reading thinslice stdout: {e}"))?;
    if code != Some(0) {
        return Err(format!(
            "thinslice {} exited with {code:?}: {}",
            args.join(" "),
            err.trim()
        ));
    }
    Ok(CliRun {
        stdout,
        wall,
        peak_kb,
    })
}
