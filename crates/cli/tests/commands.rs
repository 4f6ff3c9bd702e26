//! Pins the stdout of the `info`, `explain` and `run` commands on two
//! bundled benchmarks against golden transcripts, and checks that each
//! command builds only the pipeline stages it reads.
//!
//! The goldens live in `tests/golden/<benchmark>.<command>.txt`. A
//! deliberate output change must update them in the same commit.

use std::path::PathBuf;
use std::process::Command;

/// The interpreter inputs every `run` invocation gets.
const RUN_INPUTS: [&str; 4] = ["--line", "alpha beta=1 /", "--int", "3"];

/// Writes `benchmark`'s sources into a scratch directory private to
/// `test` and returns the path of its (single) source file.
fn source_file(test: &str, benchmark: &str) -> PathBuf {
    let b = thinslice_suite::benchmark_named(benchmark).expect("bundled benchmark");
    let dir = std::env::temp_dir().join(format!(
        "thinslice-cli-{test}-{}-{benchmark}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let [(name, text)] = b.sources[..] else {
        panic!("{benchmark}: expected one source file");
    };
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// The `file:line` seed of the line holding `snippet` in `benchmark`.
fn seed_at(benchmark: &str, snippet: &str) -> String {
    let b = thinslice_suite::benchmark_named(benchmark).unwrap();
    let (file, src) = b.sources[0];
    format!("{file}:{}", thinslice_suite::line_with(src, snippet))
}

/// Runs the CLI, requiring success; returns (stdout, stderr).
fn thinslice(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_thinslice"))
        .args(args)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "thinslice {args:?} failed:\n{stderr}");
    (stdout, stderr)
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_golden(benchmark: &str, command: &str, stdout: &str) {
    let name = format!("{benchmark}.{command}.txt");
    assert!(
        stdout == golden(&name),
        "stdout of `{command}` on {benchmark} differs from tests/golden/{name}:\n{stdout}"
    );
}

#[test]
fn command_output_matches_the_goldens() {
    // Each explain seed's thin slice carries heap flow, so the aliasing
    // explanations are pinned too.
    for (benchmark, seed_line) in [
        (
            "javac",
            "Node rhs = this.parseExpression(line.substring(eq + 1",
        ),
        ("nanoxml", "print(\"id: \" + id);"),
    ] {
        let path = source_file("goldens", benchmark);
        let file = path.to_str().unwrap();
        let (info, _) = thinslice(&["info", file]);
        assert_golden(benchmark, "info", &info);
        let seed = seed_at(benchmark, seed_line);
        let (explain, _) = thinslice(&["explain", file, "--seed", &seed]);
        assert_golden(benchmark, "explain", &explain);
        let mut run_args = vec!["run", file, "--dynamic-slice"];
        run_args.extend(RUN_INPUTS);
        let (run, _) = thinslice(&run_args);
        assert_golden(benchmark, "run", &run);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

#[test]
fn commands_build_only_the_stages_they_read() {
    let path = source_file("stages", "javac");
    let file = path.to_str().unwrap();
    let spans = |args: &[&str]| -> String {
        let mut args = args.to_vec();
        args.push("--trace");
        let (_, stderr) = thinslice(&args);
        stderr
    };
    let run = spans(&["run", file]);
    assert!(run.contains("interp.run"), "{run}");
    for unread in ["pta.solve", "sdg.build", "sdg.freeze"] {
        assert!(
            !run.contains(unread),
            "`run` must not build {unread}:\n{run}"
        );
    }
    let info = spans(&["info", file]);
    assert!(
        info.contains("pta.solve") && info.contains("sdg.build"),
        "{info}"
    );
    assert!(
        !info.contains("sdg.freeze"),
        "`info` reads no frozen graph:\n{info}"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// A socket daemon whose descriptors run out keeps serving: with `ulimit -n
/// 48`, 40 idle connections make `accept` fail with EMFILE, which must be
/// retried rather than taken as a shutdown.
#[cfg(unix)]
#[test]
fn socket_daemon_survives_descriptor_exhaustion() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let dir = std::env::temp_dir().join(format!("thinslice-cli-emfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let mut daemon = Command::new("sh")
        .args(["-c", "ulimit -n 48; exec \"$0\" serve --socket \"$1\""])
        .arg(env!("CARGO_BIN_EXE_thinslice"))
        .arg(&sock)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("sh runs");
    // The daemon announces the socket once it is bound.
    let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
    stderr.read_line(&mut String::new()).unwrap();
    let idle: Vec<UnixStream> = (0..40)
        .map(|_| UnixStream::connect(&sock).unwrap())
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(500));
    drop(idle);
    let answer = UnixStream::connect(&sock).and_then(|mut c| {
        c.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        c.write_all(b"{\"op\":\"status\",\"id\":1}\n{\"op\":\"shutdown\",\"id\":2}\n")?;
        let mut line = String::new();
        BufReader::new(c).read_line(&mut line)?;
        Ok(line)
    });
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let answer = answer.expect("the daemon still accepts connections");
    assert!(answer.contains("\"op\":\"status\""), "{answer}");
}
