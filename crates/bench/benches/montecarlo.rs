//! §V statistics workloads and device-model evaluation costs: the
//! Monte-Carlo campaign scaling (sequential vs the parallel executor),
//! sorting arithmetic, and the live ballistic solve versus the
//! table-model lookup that makes transient simulation affordable.

use carbon_runtime::bench::{black_box, Harness};
use carbon_runtime::{Executor, Xoshiro256pp};

use carbon_devices::{BallisticFet, TableFet};
use carbon_fab::{SortingProcess, VariabilityModel};
use carbon_spice::FetCurve;

fn main() {
    let mut h = Harness::group("montecarlo");

    let model = VariabilityModel::park_experiment();
    for n in [1_000usize, 10_000] {
        h.bench(&format!("device_montecarlo/{n}"), || {
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            black_box(model.sample_population(&mut rng, n));
        });
        // The same campaign through the deterministic parallel
        // executor — the speedup (if any) is the multi-core win.
        h.bench(&format!("device_montecarlo_par/{n}"), || {
            black_box(model.sample_population_with(&Executor::new(), 5, n));
        });
    }

    let p = SortingProcess::gel_chromatography();
    h.bench("sorting_five_nines", || {
        black_box(p.passes_to_reach(0.67, 0.99999).expect("reachable"));
    });

    let live = BallisticFet::cnt_fig1().expect("model builds");
    h.bench("ballistic_ids_live", || {
        black_box(live.ids(black_box(0.45), black_box(0.37)));
    });
    let table = TableFet::sample(&live, (-0.2, 0.9), (-0.2, 0.9), 61, 61).expect("table");
    h.bench("ballistic_ids_table", || {
        black_box(table.ids(black_box(0.45), black_box(0.37)));
    });

    h.bench("table_build/33x33", || {
        black_box(TableFet::sample(&live, (-0.2, 0.9), (-0.2, 0.9), 33, 33).expect("ok"));
    });

    h.finish();
}
