//! An out-of-process sampling profiler for the untraced simulator: where
//! does host time go when no timer runs inside the process?
//!
//! ```sh
//! cargo build --release -p experiments --bin sample
//! target/release/sample -- benchmark/target/release/bows-benchmark \
//!     --out /tmp/out --workload sparse_latency --seed 1 --seconds 10 --trace 0
//! target/release/sample -- target/release/paper --scale tiny
//! ```
//!
//! `sample` spawns the command and, about 500 times a second, stops each
//! of its threads with `ptrace` (seize, interrupt, wait, read the
//! registers, detach), keeping the instruction pointer and, to tell a
//! thread blocked in a system call from one on CPU, `orig_rax` and `rax`
//! ([`blocked_in`]). Only on-CPU samples are charged to the tables below;
//! off-CPU ones are counted by system call.
//! When the command exits, every address inside its executable is
//! symbolised with `addr2line -f -i -C` against that file (a release build
//! carries debug info), keeping the whole inline chain, so code inlined
//! into `Sm::cycle` is still charged to the function it came from. Each
//! chain is charged to a bucket by [`bucket`] over the const table
//! [`BUCKETS`]; addresses in shared libraries land under libc or other by
//! the library's name. The command's stdout is passed through; the table
//! goes to stdout after it, as markdown, with the on-CPU sample count on
//! its own `samples: N` line and the off-CPU one on an `off-cpu samples:
//! M` line. A second table follows: the [`TOP`] functions by
//! share, each sample charged to [`function`] of its chain (a shared
//! library's samples to the library), which names what a bucket lumps
//! together — generic code such as `RawVec` growth inlined into a
//! simulator function, say. A third table charges each sample to its
//! thread's name (`/proc/<pid>/task/<tid>/comm`), so a service's `accept`,
//! `conn` and `worker-N` threads read apart. The name is read at a
//! thread's first two samples and kept from the second: a new thread may
//! not have named itself yet at its first, and still reads its creator's
//! name. A last table, `| syscall | samples |`, counts the off-CPU samples
//! by the system call their thread was blocked in.
//!
//! Exit status: 0, or 1 when the command or the sampling fails; 2 without
//! a command, or on a target other than x86_64 Linux, where there is no
//! sampler.

use std::collections::HashMap;
use std::process::ExitCode;

/// Buckets in precedence order, with the function-name substrings that
/// select them. A frame is charged to the first bucket one of whose
/// patterns it contains; a chain, innermost frame first, to the first
/// frame that is charged at all. The labels are the rows of
/// EXPERIMENTS.md's "Where an SM cycle goes" tables.
const BUCKETS: &[(&str, &[&str])] = &[
    (
        "`Sm::reclassify`: `classify`, scoreboard hazard check",
        &["Sm::reclassify", "Sm::classify", "simt_core::scoreboard::"],
    ),
    (
        "scheduler policies through `dyn`: `pick`, the veto, `end_cycle`, backed-off",
        &[
            "simt_core::sched::SchedulerPolicy",
            "simt_core::sched::Lrr",
            "simt_core::sched::Gto",
            "simt_core::sched::Cawa",
            "bows::",
        ],
    ),
    (
        "execute: evaluators, coalescer, DDOS",
        &[
            "Sm::execute",
            "simt_core::sm::operand_column",
            "simt_core::sm::special_column",
            "simt_core::sm::addr_column",
            "simt_core::stack::",
            "simt_isa::",
            "simt_mem::coalescer::",
            "simt_core::detect::",
        ],
    ),
    ("memory: response wheel", &["simt_mem::wheel::"]),
    (
        "memory: queue steps, caches, `enqueue`, `next_event`, `quiescent`",
        &["simt_mem::"],
    ),
    (
        "run loop: pool walk, sleep/settle, completions",
        &[
            "simt_core::pool::",
            "simt_core::gpu::",
            "Sm::settle",
            "Sm::wake",
            "Sm::sleep",
            "Sm::fast_forward",
            "Sm::on_mem_complete",
            "Sm::scan_progress",
        ],
    ),
    (
        "`Sm::cycle` itself: wheel drain, CTA sweep, issue loop, sampling",
        &["simt_core::sm::Sm::cycle"],
    ),
];

/// Samples inside a shared library whose file name contains `libc`.
const LIBC: &str = "libc (allocator, `memcpy`)";

/// Everything no bucket names.
const OTHER: &str = "other (harness, workload host code)";

/// The bucket of an inline chain of demangled function names, innermost
/// first, as `addr2line -i` prints them.
fn bucket<'a>(chain: impl IntoIterator<Item = &'a str>) -> &'static str {
    chain
        .into_iter()
        .find_map(|frame| {
            BUCKETS
                .iter()
                .find(|(_, patterns)| patterns.iter().any(|p| frame.contains(p)))
                .map(|(label, _)| *label)
        })
        .unwrap_or(OTHER)
}

/// Substrings that mark a frame as this workspace's code.
const WORKSPACE: &[&str] = &["simt_", "bows", "experiments", "workloads"];

/// Rows of the function table.
const TOP: usize = 15;

/// The function a sample of an inline chain (innermost first) is charged
/// to: the innermost frame of this workspace, else the innermost frame.
fn function(chain: &[String]) -> &str {
    chain
        .iter()
        .find(|frame| WORKSPACE.iter().any(|w| frame.contains(w)))
        .or(chain.first())
        .map_or("??", String::as_str)
}

/// The `n` largest of `counts`, largest first, ties by name.
fn top(counts: &HashMap<String, u64>, n: usize) -> Vec<(&str, u64)> {
    let mut ranked: Vec<(&str, u64)> = counts.iter().map(|(f, &c)| (f.as_str(), c)).collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    ranked.truncate(n);
    ranked
}

/// Parse `addr2line -a -f -i` output: per address, an `0x…` line, then a
/// function line and a location line per inline frame. Returns the chains
/// in input order.
fn parse_chains(out: &str) -> Vec<Vec<String>> {
    let mut chains: Vec<Vec<String>> = Vec::new();
    let mut lines = out.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("0x") {
            chains.push(Vec::new());
        } else if let Some(chain) = chains.last_mut() {
            chain.push(line.to_string());
            lines.next(); // the frame's file:line
        }
    }
    chains
}

/// `-ERESTARTSYS`, `-ERESTARTNOINTR`, `-ERESTARTNOHAND` and
/// `-ERESTART_RESTARTBLOCK`: what `rax` holds when a stop interrupted a
/// blocking system call that the kernel restarts afterwards.
const RESTART: [i64; 4] = [-512, -513, -514, -516];

/// The system call a thread stopped with these registers was blocked in,
/// or `None` when it was on CPU. A stop inside a blocking call leaves the
/// call's number in `orig_rax` (−1 outside a system call) and a restart
/// code in `rax`.
fn blocked_in(orig_rax: u64, rax: u64) -> Option<u64> {
    (orig_rax as i64 >= 0 && RESTART.contains(&(rax as i64))).then_some(orig_rax)
}

/// x86_64 numbers of the blocking system calls this workspace's programs
/// wait in; any other is printed as its number.
const SYSCALLS: &[(u64, &str)] = &[
    (0, "read"),
    (7, "poll"),
    (35, "nanosleep"),
    (43, "accept"),
    (45, "recvfrom"),
    (61, "wait4"),
    (74, "fsync"),
    (75, "fdatasync"),
    (202, "futex"),
    (230, "clock_nanosleep"),
    (288, "accept4"),
];

/// The name of system call `nr`.
fn syscall_name(nr: u64) -> String {
    SYSCALLS
        .iter()
        .find(|&&(n, _)| n == nr)
        .map_or_else(|| nr.to_string(), |&(_, name)| name.to_string())
}

/// The bucket table for `counts` (one per label, in [`BUCKETS`] order,
/// then libc and other), then the function table for `functions` and the
/// thread table for `threads`, shares in percent of `total` (the on-CPU
/// samples), then the off-CPU samples by system call.
fn table(
    counts: &[(&str, u64)],
    functions: &[(&str, u64)],
    threads: &[(&str, u64)],
    total: u64,
    off_cpu: &[(&str, u64)],
) -> String {
    let off: u64 = off_cpu.iter().map(|&(_, n)| n).sum();
    let mut out = format!("samples: {total}\noff-cpu samples: {off}\n\n");
    for (column, rows) in [
        ("bucket", counts),
        ("function", functions),
        ("thread", threads),
    ] {
        out.push_str(&format!("| {column} | share % |\n|---|---|\n"));
        for (label, n) in rows {
            let share = if total == 0 {
                0.0
            } else {
                100.0 * *n as f64 / total as f64
            };
            out.push_str(&format!("| {label} | {share:.1} |\n"));
        }
        out.push('\n');
    }
    out.push_str("| syscall | samples |\n|---|---|\n");
    for (name, n) in off_cpu {
        out.push_str(&format!("| {name} | {n} |\n"));
    }
    out
}

/// Samples per second and thread.
const HZ: u64 = 500;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.strip_prefix(&["--".to_string()]).unwrap_or(&args);
    if command.is_empty() {
        eprintln!("usage: sample [--] <command> [args...]");
        return ExitCode::from(2);
    }
    run(command)
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn run(_command: &[String]) -> ExitCode {
    eprintln!("sample: needs x86_64 Linux (ptrace)");
    ExitCode::from(2)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn run(command: &[String]) -> ExitCode {
    match sampler::profile(command) {
        Ok((status, table)) => {
            print!("{table}");
            if status.success() {
                ExitCode::SUCCESS
            } else {
                eprintln!("sample: the command exited with {status}");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sample: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sampler {
    use super::{
        blocked_in, bucket, function, parse_chains, syscall_name, table, top, BUCKETS, HZ, LIBC,
        OTHER, TOP,
    };
    use std::collections::HashMap;
    use std::ffi::{c_int, c_long, c_void};
    use std::io::{Read, Write};
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, ExitStatus, Stdio};
    use std::time::Duration;

    // std links the C library on this target; these are its symbols.
    // `ptrace` is variadic there: `(request, pid, addr, data)`.
    extern "C" {
        fn ptrace(request: c_int, ...) -> c_long;
        fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    }

    const PTRACE_GETREGS: c_int = 12;
    const PTRACE_DETACH: c_int = 17;
    const PTRACE_SEIZE: c_int = 0x4206;
    const PTRACE_INTERRUPT: c_int = 0x4207;
    const WALL: c_int = 0x4000_0000;
    /// `user_regs_struct`: 27 words, `rax` at 10, `orig_rax` at 15, the
    /// instruction pointer at 16.
    const REGS: usize = 27;
    const RAX: usize = 10;
    const ORIG_RAX: usize = 15;
    const RIP: usize = 16;

    /// What stopping one thread found.
    enum Sample {
        /// The thread's instruction pointer, and the system call it was
        /// blocked in, if any.
        Stopped { ip: u64, blocked: Option<u64> },
        /// The wait reaped the thread's exit, with this wait status.
        Exited(c_int),
        /// The thread is gone or cannot be traced.
        Missed,
    }

    /// Stop thread `tid`, read its registers, let it go.
    fn sample(tid: c_int) -> Sample {
        let null = std::ptr::null_mut::<c_void>();
        // SAFETY: plain ptrace/waitpid calls on a thread of our own child;
        // `regs` is a buffer of `user_regs_struct`'s size for GETREGS.
        unsafe {
            if ptrace(PTRACE_SEIZE, tid, null, null) != 0 {
                return Sample::Missed;
            }
            let mut status = 0;
            if ptrace(PTRACE_INTERRUPT, tid, null, null) != 0
                || waitpid(tid, &mut status, WALL) != tid
            {
                ptrace(PTRACE_DETACH, tid, null, null);
                return Sample::Missed;
            }
            // A ptrace stop reads 0x7f in the low byte; anything else is
            // the thread's exit, which this wait has consumed.
            if status & 0xff != 0x7f {
                return Sample::Exited(status);
            }
            let mut regs = [0u64; REGS];
            let read = ptrace(
                PTRACE_GETREGS,
                tid,
                null,
                regs.as_mut_ptr().cast::<c_void>(),
            );
            ptrace(PTRACE_DETACH, tid, null, null);
            if read == 0 {
                Sample::Stopped {
                    ip: regs[RIP],
                    blocked: blocked_in(regs[ORIG_RAX], regs[RAX]),
                }
            } else {
                Sample::Missed
            }
        }
    }

    /// One file mapping of the traced process.
    struct Mapping {
        start: u64,
        end: u64,
        offset: u64,
        exec: bool,
        path: String,
    }

    fn read_maps(pid: u32) -> Vec<Mapping> {
        let Ok(maps) = std::fs::read_to_string(format!("/proc/{pid}/maps")) else {
            return Vec::new();
        };
        maps.lines()
            .filter_map(|line| {
                let mut f = line.split_whitespace();
                let (range, perms, offset) = (f.next()?, f.next()?, f.next()?);
                let path = f.nth(2)?;
                if !path.starts_with('/') {
                    return None;
                }
                let (start, end) = range.split_once('-')?;
                Some(Mapping {
                    start: u64::from_str_radix(start, 16).ok()?,
                    end: u64::from_str_radix(end, 16).ok()?,
                    offset: u64::from_str_radix(offset, 16).ok()?,
                    exec: perms.contains('x'),
                    path: path.to_string(),
                })
            })
            .collect()
    }

    /// Run `command`, sampling it; its exit status and the table.
    pub fn profile(command: &[String]) -> Result<(ExitStatus, String), String> {
        let mut child = Command::new(&command[0])
            .args(&command[1..])
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", command[0]))?;
        let pid = child.id();
        let period = Duration::from_micros(1_000_000 / HZ);
        let mut ips: Vec<u64> = Vec::new();
        // The name of each live thread, whether it is read for good, and
        // the samples per name.
        let mut names: HashMap<c_int, (String, bool)> = HashMap::new();
        let mut threads: HashMap<String, u64> = HashMap::new();
        let mut off_cpu: HashMap<String, u64> = HashMap::new();
        let mut maps: Vec<Mapping> = Vec::new();
        let exe = format!("/proc/{pid}/exe");
        let mut exe_path = None;
        let mut round = 0u64;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            // The mappings settle after the exec and the loader; reread
            // them now and then so a late one is still known.
            round += 1;
            if round % 50 == 1 {
                let fresh = read_maps(pid);
                if !fresh.is_empty() {
                    maps = fresh;
                    exe_path = std::fs::read_link(&exe).ok().or(exe_path);
                }
            }
            // Sampling the main thread as the process exits reaps it, so
            // its status is taken here rather than from `try_wait`.
            let mut exited = None;
            if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
                // Names of threads gone since the last round are dropped,
                // so a reused tid is read afresh.
                let mut live = HashMap::with_capacity(names.len());
                for task in tasks.flatten() {
                    let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
                        continue;
                    };
                    match sample(tid) {
                        Sample::Stopped { ip, blocked } => {
                            let comm = || {
                                std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/comm"))
                                    .map_or_else(|_| "??".into(), |c| c.trim_end().to_string())
                            };
                            let name = match names.remove(&tid) {
                                Some((name, true)) => (name, true),
                                Some((_, false)) => (comm(), true),
                                None => (comm(), false),
                            };
                            match blocked {
                                Some(nr) => *off_cpu.entry(syscall_name(nr)).or_default() += 1,
                                None => {
                                    ips.push(ip);
                                    *threads.entry(name.0.clone()).or_default() += 1;
                                }
                            }
                            live.insert(tid, name);
                        }
                        Sample::Exited(status) if tid as u32 == pid => {
                            exited = Some(ExitStatus::from_raw(status))
                        }
                        Sample::Exited(_) | Sample::Missed => {}
                    }
                }
                names = live;
            }
            if let Some(status) = exited {
                break status;
            }
            std::thread::sleep(period);
        };
        let exe_path = exe_path
            .map(|p| p.to_string_lossy().into_owned())
            .ok_or("the command's executable was never seen")?;
        // `addr2line` takes the executable's own addresses. A
        // position-independent one (ELF type 3) is loaded at a bias: where
        // its file offset 0 is mapped (its first segment's address is 0).
        // Segments need not keep their file offsets page for page, so one
        // mapping's start minus its offset is not the bias.
        let mut header = [0u8; 18];
        std::fs::File::open(&exe_path)
            .and_then(|mut f| f.read_exact(&mut header))
            .map_err(|e| format!("{exe_path}: {e}"))?;
        let bias = if header[16..] == [3, 0] {
            maps.iter()
                .find(|m| m.path == exe_path && m.offset == 0)
                .map(|m| m.start)
                .ok_or("no mapping of the executable's first page")?
        } else {
            0
        };

        // Addresses in the executable go to addr2line, once each.
        // Shared-library samples are charged to the library's file name in
        // the function table.
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        let mut functions: HashMap<String, u64> = HashMap::new();
        let mut in_exe: HashMap<u64, u64> = HashMap::new();
        for &ip in &ips {
            let mapped = maps
                .iter()
                .find(|m| m.exec && (m.start..m.end).contains(&ip));
            let file = mapped
                .and_then(|m| m.path.rsplit('/').next())
                .unwrap_or("??");
            match mapped {
                Some(m) if m.path == exe_path => {
                    *in_exe.entry(ip - bias).or_default() += 1;
                    continue;
                }
                Some(_) if file.starts_with("libc") => *counts.entry(LIBC).or_default() += 1,
                _ => *counts.entry(OTHER).or_default() += 1,
            }
            *functions.entry(format!("[{file}]")).or_default() += 1;
        }
        let addrs: Vec<u64> = in_exe.keys().copied().collect();
        let mut a2l = Command::new("addr2line")
            .args(["-a", "-f", "-i", "-C", "-e", &exe_path])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run addr2line: {e}"))?;
        let mut stdin = a2l.stdin.take().ok_or("addr2line stdin")?;
        let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = a2l.wait_with_output().map_err(|e| e.to_string())?;
        writer
            .join()
            .map_err(|_| "addr2line writer")?
            .map_err(|e| e.to_string())?;
        let chains = parse_chains(&String::from_utf8_lossy(&out.stdout));
        if chains.len() != addrs.len() {
            return Err(format!(
                "addr2line named {} of {} addresses",
                chains.len(),
                addrs.len()
            ));
        }
        for (addr, chain) in addrs.iter().zip(&chains) {
            *counts
                .entry(bucket(chain.iter().map(String::as_str)))
                .or_default() += in_exe[addr];
            *functions.entry(function(chain).to_string()).or_default() += in_exe[addr];
        }
        let rows: Vec<(&'static str, u64)> = BUCKETS
            .iter()
            .map(|(label, _)| *label)
            .chain([LIBC, OTHER])
            .map(|label| (label, counts.get(label).copied().unwrap_or(0)))
            .collect();
        Ok((
            status,
            table(
                &rows,
                &top(&functions, TOP),
                &top(&threads, threads.len()),
                ips.len() as u64,
                &top(&off_cpu, off_cpu.len()),
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(prefix: &str) -> &'static str {
        BUCKETS
            .iter()
            .map(|(label, _)| *label)
            .chain([LIBC, OTHER])
            .find(|l| l.starts_with(prefix))
            .unwrap()
    }

    /// The innermost frame any bucket names decides: generic code inlined
    /// into a simulator function is charged to that function, and a
    /// simulator function inlined into `Sm::cycle` to itself.
    #[test]
    fn the_innermost_named_frame_decides() {
        let chain = [
            "alloc::vec::Vec<T,A>::push",
            "simt_mem::system::MemorySystem::schedule",
            "simt_mem::system::MemorySystem::step_partitions",
            "simt_mem::system::MemorySystem::cycle_into",
            "simt_core::gpu::Run::drive",
        ];
        assert_eq!(bucket(chain), label("memory: queue steps"));
        let chain = ["simt_core::sm::Sm::reclassify", "simt_core::sm::Sm::cycle"];
        assert_eq!(bucket(chain), label("`Sm::reclassify`"));
        let chain = [
            "simt_core::sched::WarpSet::iter",
            "simt_core::sm::Sm::cycle",
        ];
        assert_eq!(bucket(chain), label("`Sm::cycle` itself"));
        let chain = [
            "simt_mem::wheel::EventWheel::pop_due",
            "simt_mem::system::MemorySystem::drain_events",
        ];
        assert_eq!(bucket(chain), label("memory: response wheel"));
    }

    /// Within one frame the table's order decides: the coalescer and the
    /// wheel live in `simt_mem` but have buckets of their own, and a
    /// policy's trait method is a policy call wherever it was inlined.
    #[test]
    fn table_order_breaks_ties_within_a_frame() {
        let chain = [
            "simt_mem::coalescer::Coalescer::coalesce",
            "simt_core::sm::Sm::execute",
        ];
        assert_eq!(bucket(chain), label("execute"));
        let chain = [
            "<bows::policy::Bows as simt_core::sched::SchedulerPolicy>::pick",
            "simt_core::sm::Sm::cycle",
        ];
        assert_eq!(bucket(chain), label("scheduler policies"));
        let chain = ["<simt_core::sched::Gto as simt_core::sched::SchedulerPolicy>::end_cycle"];
        assert_eq!(bucket(chain), label("scheduler policies"));
        assert_eq!(
            bucket(["simt_core::pool::SmPool::cycle"]),
            label("run loop")
        );
        assert_eq!(bucket(["simt_core::sm::Sm::settle"]), label("run loop"));
        // A policy's default trait methods are policy calls too, and the
        // SIMT stack is driven from `execute`.
        let chain = ["simt_core::sched::SchedulerPolicy::backed_off"];
        assert_eq!(bucket(chain), label("scheduler policies"));
        let chain = ["simt_core::stack::SimtStack::branch"];
        assert_eq!(bucket(chain), label("execute"));
    }

    #[test]
    fn unnamed_chains_are_other() {
        assert_eq!(bucket(["main", "std::rt::lang_start"]), OTHER);
        assert_eq!(bucket(["??"]), OTHER);
        assert_eq!(bucket(std::iter::empty()), OTHER);
    }

    #[test]
    fn addr2line_output_parses_into_chains() {
        let out = "0x0000000000001000\nsimt_core::sched::WarpSet::iter\n/src/sched.rs:60\n\
                   simt_core::sm::Sm::cycle\n/src/sm.rs:700\n0x0000000000002000\n??\n??:0\n";
        let chains = parse_chains(out);
        assert_eq!(
            chains,
            [
                vec![
                    "simt_core::sched::WarpSet::iter".to_string(),
                    "simt_core::sm::Sm::cycle".to_string()
                ],
                vec!["??".to_string()],
            ]
        );
    }

    #[test]
    fn the_table_prints_every_row_and_the_count() {
        let rows = [(BUCKETS[0].0, 1), (LIBC, 3), (OTHER, 0)];
        let t = table(&rows, &[("[libc.so.6]", 3)], &[("main", 4)], 4, &[]);
        assert!(t.starts_with("samples: 4\noff-cpu samples: 0\n"), "{t}");
        assert!(t.contains(&format!("| {} | 25.0 |", BUCKETS[0].0)), "{t}");
        assert!(t.contains(&format!("| {LIBC} | 75.0 |")), "{t}");
        assert!(
            t.contains("| function | share % |\n|---|---|\n| [libc.so.6] | 75.0 |"),
            "{t}"
        );
    }

    /// The thread table comes last, one row per thread name, largest share
    /// first.
    #[test]
    fn the_thread_table_follows_the_function_table() {
        let threads: HashMap<String, u64> = [("conn", 1), ("accept", 1), ("worker-0", 6)]
            .into_iter()
            .map(|(f, n)| (f.to_string(), n))
            .collect();
        let t = table(&[], &[("main", 8)], &top(&threads, threads.len()), 8, &[]);
        let (functions, threads) = t.split_once("| thread | share % |\n|---|---|\n").unwrap();
        assert!(functions.contains("| function | share % |"), "{t}");
        assert_eq!(
            threads,
            "| worker-0 | 75.0 |\n| accept | 12.5 |\n| conn | 12.5 |\n\n\
             | syscall | samples |\n|---|---|\n"
        );
    }

    /// A thread is off CPU when it stopped inside a system call the kernel
    /// will restart: `orig_rax` names the call and `rax` holds an
    /// `-ERESTART…` code. A stop in user code reads `orig_rax` −1; a call
    /// that has returned leaves its result in `rax`.
    #[test]
    fn blocked_threads_are_told_from_running_ones() {
        let neg = |n: i64| n as u64;
        for code in [-512, -513, -514, -516] {
            assert_eq!(blocked_in(202, neg(code)), Some(202), "{code}");
        }
        assert_eq!(blocked_in(0, neg(-512)), Some(0), "read is call 0");
        assert_eq!(blocked_in(neg(-1), neg(-512)), None, "user code");
        assert_eq!(blocked_in(neg(-1), 0x5555_0000), None, "user code");
        for rax in [0, 7, neg(-4), neg(-11), neg(-515), neg(-517)] {
            assert_eq!(blocked_in(202, rax), None, "{}", rax as i64);
        }
        assert_eq!(syscall_name(202), "futex");
        assert_eq!(syscall_name(999), "999");
    }

    /// The off-CPU count and its table come with every report; the shares
    /// above it are over the on-CPU samples alone.
    #[test]
    fn off_cpu_samples_are_counted_apart() {
        let rows = [(BUCKETS[0].0, 2), (OTHER, 2)];
        let t = table(&rows, &[], &[], 4, &[("futex", 5), ("accept4", 1)]);
        assert!(t.starts_with("samples: 4\noff-cpu samples: 6\n\n"), "{t}");
        assert!(t.contains(&format!("| {} | 50.0 |", BUCKETS[0].0)), "{t}");
        assert!(
            t.ends_with("| syscall | samples |\n|---|---|\n| futex | 5 |\n| accept4 | 1 |\n"),
            "{t}"
        );
    }

    /// A sample goes to the innermost workspace frame of its chain, so
    /// generic code inlined into a simulator function is charged to that
    /// function; a chain with none goes to its innermost frame.
    #[test]
    fn functions_are_the_innermost_workspace_frame() {
        let chain = |frames: &[&str]| frames.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let grow = chain(&[
            "alloc::raw_vec::RawVec<T,A>::grow_one",
            "simt_core::sm::Sm::execute",
            "simt_core::sm::Sm::cycle",
        ]);
        assert_eq!(function(&grow), "simt_core::sm::Sm::execute");
        let policy = chain(&["<bows::policy::Bows as simt_core::sched::SchedulerPolicy>::pick"]);
        assert_eq!(function(&policy), policy[0]);
        assert_eq!(function(&chain(&["main", "std::rt::lang_start"])), "main");
        assert_eq!(function(&[]), "??");
    }

    /// The ranking is by count, largest first, ties by name, cut at `n`.
    #[test]
    fn functions_rank_by_share_then_name() {
        let counts: HashMap<String, u64> = [("b", 5), ("a", 5), ("c", 9), ("d", 1)]
            .into_iter()
            .map(|(f, n)| (f.to_string(), n))
            .collect();
        assert_eq!(top(&counts, 3), [("c", 9), ("a", 5), ("b", 5)]);
        assert_eq!(top(&counts, TOP).len(), 4);
        assert!(top(&HashMap::new(), TOP).is_empty());
    }
}
