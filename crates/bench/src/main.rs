//! `nexus-bench <command> [--smoke]`; see the library's crate documentation.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    nexus_bench::run(&args)
}
