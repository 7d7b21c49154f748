//! Regenerates the paper's Table 2: maximum posted buffers per connection
//! under the user-level dynamic scheme.
use ibflow_bench::figures::{nas_battery, resident_memory_sweep, resident_memory_table, table2};

fn main() {
    let class = ibflow_bench::nas_class_from_env();
    println!("Table 2 — max posted buffers, user-level dynamic, initial pre-post = 1 (class {class:?})\n");
    let runs = nas_battery(class);
    print!("{}", table2(&runs));
    println!("\nRegistered vs resident receive memory per connection, SP (class {class:?})\n");
    print!("{}", resident_memory_table(&resident_memory_sweep(class)));
}
