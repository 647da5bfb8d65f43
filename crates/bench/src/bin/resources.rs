//! §5 prose: the switch SRAM budget. "We configure P4 registers to store
//! 16K key-value pairs, so that, with words of maximum 16 characters and
//! a 4 B integer value, the total SRAM required would be around 10 MB,
//! which is a reasonable amount of memory for a hardware P4 switch."

use daiet::agg::AggFn;
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::DaietConfig;
use daiet_bench::arg;
use daiet_dataplane::Resources;
use daiet_netsim::{topology::TopologyPlan, LinkSpec};

fn main() {
    let cells = arg::<usize>("cells", 16 * 1024);
    let trees = arg::<usize>("trees", 12);

    let config = DaietConfig { register_cells: cells, ..DaietConfig::default() };
    println!("# Switch SRAM budget (paper §5: \"around 10 MB\" for 16K pairs x 12 trees)");
    println!("per-tree state: {} bytes", config.sram_per_tree());
    println!(
        "{} trees:       {:.2} MB  (keys+values alone: {:.2} MB)",
        trees,
        trees as f64 * config.sram_per_tree() as f64 / 1e6,
        trees as f64 * (cells * 20) as f64 / 1e6,
    );

    // Deploy for real on the paper's star topology and print the
    // dataplane tracker's allocation report.
    let plan = TopologyPlan::star(24 + trees, LinkSpec::fast());
    let hosts = plan.hosts();
    let placement = JobPlacement {
        mappers: hosts[..24].to_vec(),
        reducers: hosts[24..24 + trees].to_vec(),
    };
    let controller = Controller::new(config, AggFn::Sum);
    match controller.deploy(&plan, &placement, Resources::tofino_like(), AggregationMode::InNetwork)
    {
        Ok((_dep, switches)) => {
            for (slot, sw) in &switches {
                println!("\nswitch at plan slot {slot}:");
                print!("{}", sw.pipeline().tracker().report());
            }
        }
        Err(e) => println!("\ndeployment rejected by resource model: {e}"),
    }
}
