//! Seeds exactly three `determinism.thread_spawn` violations.

use std::thread::{self, Builder};

pub fn fan_out() {
    std::thread::spawn(|| ());
    thread::scope(|_| ());
    let _ = Builder::new();
}
