fn main() {
    let started = std::time::Instant::now();
    std::process::exit(mgk_benchmark::cli::main(started));
}
