//! Figure 13: throughput comparison with the GPU and QNN baselines,
//! driven through the `Backend` trait. The "Ours (async)" series adds the
//! Section 7.2.2 overlap-aware dispatch on top of the paper's legend.

use hexsim::device::DeviceProfile;
use npuscale::backend::{baselines, Backend, NpuSimBackend};

fn main() {
    benchutil::banner(
        "Figure 13 - inference throughput vs llama.cpp-OpenCL and QNN FP16",
        "paper Fig 13: GPU wins batch-1 decode; ours wins batched decode + prefill",
    );
    // The paper's legend (ours, GPU, QNN), then "Ours (async)".
    let [serial, overlapped, _] = NpuSimBackend::variants(&DeviceProfile::v75());
    let [gpu, qnn, _] = baselines();
    let backends: Vec<Box<dyn Backend>> = vec![Box::new(serial), gpu, qnn, Box::new(overlapped)];
    println!("--- decode (tok/s) ---");
    let rows = npuscale::experiments::fig13_decode_rows(&backends);
    println!(
        "{:<18} {:<6} {:>6} {:>10}",
        "system", "model", "batch", "tok/s"
    );
    for r in &rows {
        println!(
            "{:<18} {:<6} {:>6} {:>10.1}",
            r.system, r.model, r.batch, r.tokens_per_sec
        );
    }
    println!("\n--- prefill (tok/s) ---");
    let rows = npuscale::experiments::fig13_prefill_rows(&backends);
    println!(
        "{:<18} {:<6} {:>8} {:>10}",
        "system", "model", "prompt", "tok/s"
    );
    for r in &rows {
        println!(
            "{:<18} {:<6} {:>8} {:>10.1}",
            r.system, r.model, r.prompt_len, r.tokens_per_sec
        );
    }
}
