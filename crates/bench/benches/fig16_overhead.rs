//! Figure 16: CPU/memory overhead during decode (our runtime's operator
//! placement, measured through the `Backend` trait) — serial and
//! overlap-aware async dispatch side by side (the async rows show higher
//! CPU utilization because the same CPU busy time packs into a shorter
//! step).

use hexsim::device::DeviceProfile;
use npuscale::backend::{Backend, NpuSimBackend};

fn main() {
    benchutil::banner(
        "Figure 16 - CPU memory and utilization during decode",
        "paper Fig 16 + Sec 7.5: RSS ~250-300 MiB; dmabuf 1056/2090 MiB; CPU 320-340%",
    );
    let [serial, overlapped, _] = NpuSimBackend::variants(&DeviceProfile::v75());
    let backends: Vec<Box<dyn Backend>> = vec![Box::new(serial), Box::new(overlapped)];
    println!(
        "{:<8} {:<6} {:>6} {:>12} {:>12} {:>10}",
        "system", "model", "batch", "CPU RSS", "dmabuf", "CPU util"
    );
    for r in npuscale::experiments::fig16_rows(&backends) {
        println!(
            "{:<8} {:<6} {:>6} {:>8.0} MiB {:>8.0} MiB {:>9.0}%",
            r.system, r.model, r.batch, r.cpu_rss_mib, r.dmabuf_mib, r.cpu_util_pct
        );
    }
}
