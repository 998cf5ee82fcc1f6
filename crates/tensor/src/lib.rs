//! Minimal dense-matrix autodiff and neural-network stack for LAN.
//!
//! The paper trains its models (`M_rk`, `M_nh`, `M_c`) with PyTorch on a
//! GPU; offline GNN tooling for Rust is thin, so this crate implements the
//! required substrate from scratch:
//!
//! * [`matrix`] — dense `f32` matrices with the handful of ops the models
//!   need;
//! * [`param`] — a registry of trainable parameters with gradients and Adam
//!   moments;
//! * [`tape`] — tape-based reverse-mode autodiff, validated against finite
//!   differences for every op;
//! * [`nn`] — linear layers and MLPs;
//! * [`optim`] — Adam plus the paper's step-decay learning-rate schedule
//!   (0.005, ×0.96 every 5 epochs).
//!
//! # Example: one gradient step
//!
//! ```
//! use lan_tensor::{Matrix, ParamStore, Tape, Adam};
//!
//! let mut store = ParamStore::new();
//! let p = store.add(Matrix::from_vec(1, 1, vec![4.0]));
//! let mut adam = Adam::new(0.1);
//!
//! let mut tape = Tape::new();
//! let v = tape.param(&store, p);
//! let loss = tape.mse(v, Matrix::zeros(1, 1));
//! store.zero_grads();
//! tape.backward(loss, &mut store);
//! adam.step(&mut store);
//! assert!(store.value(p).scalar() < 4.0);
//! ```

pub mod matrix;
pub mod nn;
pub mod optim;
pub mod param;
pub mod store;
pub mod tape;

pub use matrix::{dot, Matrix};
pub use nn::{FusedHeads, Linear, Mlp, MlpScratch};
pub use optim::{Adam, StepDecay};
pub use param::ParamStore;
pub use tape::{sigmoid, Tape, Var};
