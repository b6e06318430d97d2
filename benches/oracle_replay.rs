// Root-package forwarding target so `cargo bench --bench oracle_replay`
// works from the workspace root; the benchmark itself lives in
// `crates/bench/benches/oracle_replay.rs`.
include!("../crates/bench/benches/oracle_replay.rs");
