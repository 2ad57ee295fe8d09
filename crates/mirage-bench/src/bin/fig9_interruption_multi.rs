//! Figure 9: average interruption of a pair of 48-hour **eight-node** jobs
//! on the three clusters, under heavy and medium load.
//!
//! Paper shapes: XGBoost/RF reduce interruption by 37.5 % / 40.0 % /
//! 82.5 % across clusters; MoE+DQN 32.2 % / 28.2 % / 77.5 % (slightly
//! behind the ensembles); transformer+PG best on average (43.9 % / 34.9 %
//! / 90.1 %); medium load: ensembles nearly eliminate interruption.

use mirage_bench::{cluster_reports, prepare_clusters, print_fig9, EIGHT_NODES};

fn main() {
    let reports = cluster_reports(&prepare_clusters(), EIGHT_NODES);
    print_fig9(&reports);
}
