//! The served `certainty serve --listen` process and line-protocol
//! connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a response may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl ServerProcess {
    /// The flags the server runs with (for the per-run record).
    pub fn flags(threads: usize) -> Vec<String> {
        vec![
            "--listen=127.0.0.1:0".to_string(),
            format!("--threads={threads}"),
        ]
    }

    /// Starts `certainty serve <doc> --db=<cqdb> --listen=127.0.0.1:0` and
    /// waits until it reports its address.
    pub fn start(bin: &Path, doc: &Path, cqdb: &Path, threads: usize) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(doc)
            .arg(format!("--db={}", cqdb.display()))
            .args(Self::flags(threads))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || drain_stderr(stderr, tx));
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => {
                let log = server.stop();
                Err(io::Error::other(format!(
                    "the server did not report its address; its stderr:\n{log}"
                )))
            }
        }
    }

    /// The process id, for reading its memory high-water mark.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory (`VmHWM`) in kB, from `/proc`.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time the process has used so far, user plus system, in seconds:
    /// `utime` and `stime` of `/proc/<pid>/stat`, summed over its threads.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / clock_ticks_per_s())
    }

    /// Kills the server, waits for it, and returns what it wrote to stderr.
    pub fn stop(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `CLK_TCK`, the unit of the CPU times in `/proc/<pid>/stat`, from
/// `getconf`; 100 where that fails.
fn clock_ticks_per_s() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.trim().parse::<f64>().ok())
            .filter(|ticks| *ticks > 0.0)
            .unwrap_or(100.0)
    })
}

/// Reads the server's stderr to the end, sending the listen address as
/// soon as the `serving on <addr> (...)` line appears.
fn drain_stderr(stderr: ChildStderr, tx: mpsc::Sender<SocketAddr>) -> String {
    let mut log = String::new();
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        if let Some(rest) = line.strip_prefix("serving on ") {
            if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok()) {
                let _ = tx.send(addr);
            }
        }
        log.push_str(&line);
        log.push('\n');
    }
    log
}

/// One line-protocol connection: one request in flight at a time.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the one response line.
    pub fn request(&mut self, text: &str) -> io::Result<String> {
        self.send(text)?;
        self.receive()
    }

    pub fn send(&mut self, text: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(text.len() + 1);
        bytes.extend_from_slice(text.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    pub fn receive(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']).to_string())
    }
}
