//! The fixture's executor file: the one zone file allowed to start
//! threads, so it seeds no `determinism.thread_spawn` violation.

pub fn run_nodes() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}
