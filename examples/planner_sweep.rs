//! Explore the hull of optimality: which partition wins at each block
//! size, with an ASCII rendition of the paper's Figures 4-6.
//!
//! ```text
//! cargo run --release --example planner_sweep [dimension] [max_block]
//! ```

use multiphase_exchange::model::{multiphase_time, optimality_hull_affine_by, MachineParams};
use multiphase_exchange::partitions::partitions;

fn main() {
    let mut args = std::env::args().skip(1);
    let d: u32 = args.next().map(|s| s.parse().expect("dimension")).unwrap_or(7);
    let m_max: usize = args.next().map(|s| s.parse().expect("max block")).unwrap_or(400);
    let params = MachineParams::ipsc860();

    println!("Hull of optimality, d = {d} ({} nodes), iPSC-860 parameters:\n", 1u64 << d);
    let hull = optimality_hull_affine_by(d, |m, part| multiphase_time(&params, m, d, part.parts()));
    for face in &hull {
        let to = if face.to.is_finite() { format!("{:.1}", face.to) } else { "inf".into() };
        println!(
            "  {:<14} optimal for block sizes [{:.1}, {}) bytes",
            face.partition.to_string(),
            face.from,
            to
        );
    }

    // ASCII plot: predicted time vs block size for the hull partitions
    // plus Standard Exchange.
    let mut curves: Vec<(String, Vec<u32>)> =
        hull.iter().map(|f| (f.partition.to_string(), f.partition.parts().to_vec())).collect();
    let se: Vec<u32> = vec![1; d as usize];
    let se_name = partitions(d).last().unwrap().to_string();
    if !curves.iter().any(|(n, _)| *n == se_name) {
        curves.push((se_name, se));
    }

    let width = 64usize;
    let height = 20usize;
    let t_max = curves
        .iter()
        .map(|(_, dims)| multiphase_time(&params, m_max as f64, d, dims))
        .fold(0.0f64, f64::max);
    let mut canvas = vec![vec![' '; width + 1]; height + 1];
    let glyphs = ['o', '+', 'x', '*', '#', '@'];
    for (ci, (_, dims)) in curves.iter().enumerate() {
        #[allow(clippy::needless_range_loop)] // px is a pixel column
        for px in 0..=width {
            let m = m_max as f64 * px as f64 / width as f64;
            let t = multiphase_time(&params, m, d, dims);
            let py = ((1.0 - t / t_max) * height as f64).round() as usize;
            let py = py.min(height);
            canvas[py][px] = glyphs[ci % glyphs.len()];
        }
    }
    println!("\npredicted time (0 .. {:.0} ms) vs block size (0 .. {m_max} B):", t_max / 1000.0);
    for row in &canvas {
        println!("  |{}", row.iter().collect::<String>());
    }
    println!("  +{}", "-".repeat(width + 1));
    for (ci, (name, _)) in curves.iter().enumerate() {
        println!("   {} = {}", glyphs[ci % glyphs.len()], name);
    }
}
