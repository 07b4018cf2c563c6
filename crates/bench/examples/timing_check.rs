//! Quick sizing probe: specification state counts and construction times
//! beyond the reduction bound (used to calibrate the scaling bench).
use std::time::Instant;
use tm_bench::validation::NondetSpec;
use tm_lang::SafetyProperty;
use tm_spec::DetSpec;

fn main() {
    for (n, k) in [(2usize, 3usize), (3, 1), (3, 2)] {
        let t = Instant::now();
        let (dfa, _) = DetSpec::new(SafetyProperty::Opacity, n, k).to_dfa(20_000_000);
        println!("det op ({n},{k}): {} states in {:.2?}", dfa.num_states(), t.elapsed());
        let t = Instant::now();
        let nd = NondetSpec::new(SafetyProperty::Opacity, n, k).to_nfa(20_000_000);
        println!("nondet op ({n},{k}): {} states in {:.2?}", nd.num_states(), t.elapsed());
    }
}
