//! Ablation: concentration look-ahead / look-aside windows (paper §4.2.3,
//! Figure 6).
//!
//! Sweeps the look-ahead depth and look-aside width of the concentration
//! buffer on synthetic diluted streams at several match densities, and
//! reports the adder-tree occupancy (fraction of useful input slots) and
//! the cycle overhead versus perfect packing.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_sparse::ConcentrationBuffer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let width = 16;
    let stream_len = 16 * 1024;
    tline!(
        t,
        "Concentration ablation: adder-tree width {width}, {stream_len}-slot streams"
    );
    tline!(t);
    tline!(
        t,
        "{:>9} {:>6} {:>6} {:>12} {:>12} {:>11}",
        "density",
        "ahead",
        "aside",
        "rows drained",
        "vs perfect",
        "occupancy"
    );
    for density in [0.05f64, 0.1, 0.3, 0.5] {
        let mut rng = StdRng::seed_from_u64(9);
        let slots: Vec<Option<f32>> = (0..stream_len)
            .map(|i| {
                if rng.gen_bool(density) {
                    Some(i as f32)
                } else {
                    None
                }
            })
            .collect();
        let survivors = slots.iter().flatten().count();
        let perfect = survivors.div_ceil(width);
        for (ahead, aside) in [(0usize, 0usize), (1, 0), (4, 0), (4, 1), (8, 2)] {
            let mut buf = ConcentrationBuffer::new(width, ahead, aside);
            buf.push_slots(&slots);
            let (_, stats) = buf.drain_sum();
            tline!(
                t,
                "{:>8.0}% {:>6} {:>6} {:>12} {:>11.2}x {:>10.1}%",
                density * 100.0,
                ahead,
                aside,
                stats.rows_drained,
                stats.rows_drained as f64 / perfect as f64,
                100.0 * stats.occupancy(width),
            );
            t.push_record(Record::new([
                ("density_pct", (density * 100.0).into()),
                ("look_ahead", Cell::from(ahead)),
                ("look_aside", Cell::from(aside)),
                ("rows_drained", Cell::from(stats.rows_drained)),
                (
                    "vs_perfect_x",
                    (stats.rows_drained as f64 / perfect as f64).into(),
                ),
                ("occupancy_pct", (100.0 * stats.occupancy(width)).into()),
            ]));
        }
        tline!(t);
    }
    tline!(
        t,
        "Without look-ahead the tree drains mostly-empty rows (occupancy = match"
    );
    tline!(
        t,
        "density); a deep look-ahead window approaches perfect packing, and"
    );
    tline!(t, "look-aside mops up the residual column imbalance.");
    Ok(())
}
