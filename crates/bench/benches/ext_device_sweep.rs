//! Extension bench: decode throughput across every execution backend,
//! plus power and dmabuf footprint for the NPU runtime, on the three
//! Snapdragon generations — Figures 11, 12 and 16 in one table. Models
//! that exceed one 32-bit session (Qwen-3B on the 8 Gen 2, Qwen-7B
//! everywhere) run the paper's Section 8 multi-session sharding and
//! print their session count.

use edgellm::config::ModelId;
use hexsim::device::DeviceProfile;
use npuscale::backend::{baselines, decode_sweep, Backend, NpuSimBackend, SweepOutcome};
use npuscale::memory::measure_overhead;
use npuscale::power::PowerModel;

fn main() {
    benchutil::banner(
        "Extension - device sweep (decode / power / memory, all backends)",
        "paper Figs 11+12+16 across Hexagon V73/V75/V79 + GPU/QNN/CPU baselines",
    );
    for device in DeviceProfile::all() {
        println!(
            "\n{} / {} (Hexagon {:?})",
            device.name, device.soc, device.arch
        );
        println!(
            "{:<18} {:<8} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
            "system",
            "model",
            "b1 tok/s",
            "b8 tok/s",
            "b16 tok/s",
            "W @ b8",
            "dmabuf MiB",
            "sessions"
        );
        let pm = PowerModel::new(device.clone());
        // All three runtime variants (serial, async, streamed) plus the
        // analytic baselines.
        let mut backends: Vec<Box<dyn Backend>> = NpuSimBackend::variants(&device)
            .into_iter()
            .map(|b| Box::new(b) as Box<dyn Backend>)
            .collect();
        backends.extend(baselines());
        for model in [
            ModelId::Llama1B,
            ModelId::Qwen1_5B,
            ModelId::Qwen3B,
            ModelId::Qwen7B,
        ] {
            for b in &backends {
                let sweep = decode_sweep(b.as_ref(), model, 1024, &[1, 8, 16]);
                let shard_tag = sweep.shard_tag();
                let points = match sweep {
                    SweepOutcome::CannotRun(reason) => {
                        println!("{:<18} {:<8} cannot run: {reason}", b.name(), model.label());
                        continue;
                    }
                    SweepOutcome::Ran(points) => points,
                };
                let tps = |p: &Option<npuscale::DecodePoint>| match p {
                    Some(p) => format!("{:>9.1}", p.tokens_per_sec),
                    None => format!("{:>9}", "-"),
                };
                // Power/dmabuf accounting only describes the NPU runtime;
                // analytic points carry no engine activity.
                let (power, dmabuf) = match &points[1] {
                    Some(p8) if p8.has_engine_activity() => {
                        let mem = measure_overhead(model, p8, 4096, b.name());
                        (
                            format!("{:>9.2}", pm.measure(p8).power_w),
                            format!("{:>12.0}", mem.dmabuf_mib),
                        )
                    }
                    _ => (format!("{:>9}", "-"), format!("{:>12}", "-")),
                };
                // Sharded rows (Section 8 multi-session) carry "xN"; a
                // row whose larger batches need more sessions (KV
                // growth) spans counts, e.g. "x3-4".
                let shard = format!("{:>9}", shard_tag.unwrap_or_else(|| "1".to_string()));
                println!(
                    "{:<18} {:<8} {} {} {} {} {} {}",
                    b.name(),
                    model.label(),
                    tps(&points[0]),
                    tps(&points[1]),
                    tps(&points[2]),
                    power,
                    dmabuf,
                    shard
                );
            }
        }
    }
}
