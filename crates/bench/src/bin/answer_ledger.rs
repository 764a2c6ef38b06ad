//! The answer ledger: kernel value bits, iterations and nodal digests on a
//! fixed corpus, at `f32` and `f64` (see `mgk_bench::answer_ledger`). It
//! prints no timings; CI diffs its output against
//! `crates/bench/expected/answer_ledger.txt`.

fn main() {
    print!("{}", mgk_bench::answer_ledger::answer_ledger());
}
