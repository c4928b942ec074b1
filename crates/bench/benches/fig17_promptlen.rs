//! Figure 17: impact of prompt length on decoding throughput, driven
//! through the `Backend` trait — serial and overlap-aware async dispatch
//! side by side.

use hexsim::device::DeviceProfile;
use npuscale::backend::{Backend, NpuSimBackend};

fn main() {
    benchutil::banner(
        "Figure 17 - decode throughput vs prompt length",
        "paper Fig 17: mild decline from 512 to 4096 tokens",
    );
    let [serial, overlapped, _] = NpuSimBackend::variants(&DeviceProfile::v75());
    let backends: Vec<Box<dyn Backend>> = vec![Box::new(serial), Box::new(overlapped)];
    println!(
        "{:<8} {:<6} {:>8} {:>6} {:>10}",
        "system", "model", "prompt", "batch", "tok/s"
    );
    for r in npuscale::experiments::fig17_rows(&backends) {
        println!(
            "{:<8} {:<6} {:>8} {:>6} {:>10.1}",
            r.system, r.model, r.prompt_len, r.batch, r.tokens_per_sec
        );
    }
}
