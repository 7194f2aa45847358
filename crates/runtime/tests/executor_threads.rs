//! `Executor::new` sizing from `CARBON_THREADS`. The variable is
//! process-wide, so this check has a test binary of its own: no other
//! test sees it change.

use carbon_runtime::Executor;

/// The machine's parallelism is asked once per process, but
/// `CARBON_THREADS` is read on every call, so a change at runtime takes
/// effect at the next executor.
#[test]
fn new_reads_carbon_threads_on_every_call() {
    std::env::remove_var("CARBON_THREADS");
    let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(Executor::new().threads(), machine);
    std::env::set_var("CARBON_THREADS", "3");
    assert_eq!(Executor::new().threads(), 3);
    std::env::set_var("CARBON_THREADS", "5");
    assert_eq!(Executor::new().threads(), 5);
    std::env::set_var("CARBON_THREADS", "garbage");
    assert_eq!(Executor::new().threads(), machine);
}
