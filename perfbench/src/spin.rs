//! Keeps the CPUs of a virtual machine from going idle while a daemon
//! workload runs.
//!
//! A daemon workload hands every request between threads (generator, event
//! loop, workers), so its CPUs keep halting and being woken. On a virtual
//! machine each wake of a halted virtual CPU waits for the hypervisor to
//! schedule it again; on a busy host that wait (reported as `steal` in
//! `/proc/stat`) reached milliseconds per wake and dominated request
//! latency, varying from run to run with the neighbours' load. One
//! `SCHED_IDLE` thread per CPU, in a child process, keeps every CPU busy
//! with work the kernel drops the instant a real thread wakes — the same
//! effect as booting with `idle=poll`. Its CPU time is not this process's,
//! so the per-CPU-second rates stay clean.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// The `--spin` child: one `SCHED_IDLE` spinner per CPU until stdin closes
/// (the parent ended or dropped its `Spinners`).
pub fn child_main() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
    let threads: Vec<_> = (0..cpus)
        .map(|_| {
            std::thread::spawn(|| {
                let param = SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a valid `struct sched_param` that
                // outlives the call; pid 0 names the calling thread, and
                // lowering one's own policy to SCHED_IDLE needs no
                // privilege. A failure only leaves the thread at normal
                // priority, which the parent's measurements would show.
                unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                while !STOP.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    STOP.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
}

/// The running child; dropping it stops the child and waits for it.
pub struct Spinners(Option<Child>);

impl Spinners {
    /// Starts the child, or runs without it if it cannot be started.
    pub fn start() -> Spinners {
        let child = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .arg("--spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
        });
        match child {
            Ok(c) => Spinners(Some(c)),
            Err(e) => {
                eprintln!("perfbench: running without idle spinners: {e}");
                Spinners(None)
            }
        }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            // Closing stdin tells the child to stop.
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }
}
