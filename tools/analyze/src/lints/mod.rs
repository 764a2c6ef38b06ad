//! The lint passes. Each module owns one diagnostic family:
//!
//! * [`locks`] — MGK101 lock-order cycles, MGK201/202 condvar discipline
//! * [`panic_surface`] — MGK402/403 panics in `Drop`, unguarded kernel
//!   indexing

pub mod locks;
pub mod panic_surface;
