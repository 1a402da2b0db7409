//! # dlcm-baseline
//!
//! The Halide-2019-style comparator of the DLCM reproduction of *"A Deep
//! Learning Based Cost Model for Automatic Code Optimization"* (MLSys
//! 2021), §6: an MLP over 54 hand-engineered features (Adams et al.'s
//! style), trained with MSE and evaluated with R². [`HalideModel`]
//! implements [`dlcm_eval::Evaluator`] directly, so it can drive the same
//! beam search as the paper's "Halide autoscheduler" column in Figure 6
//! through the unified evaluation API — this crate depends on the `eval`
//! contract, not on any particular search strategy.
//!
//! Per the paper's observation that Halide mispredicts "in particular in
//! benchmarks that are from the area of scientific computing which Halide
//! was not trained to handle", the experiments train this model on an
//! image-processing/DL-flavoured subset of generated programs (pattern
//! weights without reductions/deep stencils) — see
//! [`dlcm_datagen::ProgramGenConfig::pattern_weights`].

#![warn(missing_docs)]

mod features;
mod model;

pub use features::{featurize_pair, halide_features, NUM_FEATURES};
pub use model::{HalideModel, HalideTrainConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_eval::Evaluator;
    use dlcm_ir::Schedule;

    #[test]
    fn halide_model_is_a_unified_evaluator() {
        let mut b = dlcm_ir::ProgramBuilder::new("p");
        let i = b.iter("i", 0, 256);
        let j = b.iter("j", 0, 256);
        let inp = b.input("in", &[256, 256]);
        let out = b.buffer("out", &[256, 256]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign(
            "c",
            &[i, j],
            out,
            &[i.into(), j.into()],
            dlcm_ir::Expr::Load(acc),
        );
        let p = b.build().unwrap();

        let mut model: Box<dyn Evaluator> = Box::new(HalideModel::new(0));
        let candidates = vec![
            Schedule::empty(),
            Schedule::new(vec![dlcm_ir::Transform::Parallelize {
                comp: dlcm_ir::CompId(0),
                level: 0,
            }]),
        ];
        let batch = model.speedup_batch(&p, &candidates);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|&s| s > 0.0));
        let single = model.speedup(&p, &candidates[0]);
        assert_eq!(single, batch[0], "batch must match sequential scoring");
        assert_eq!(model.stats().num_evals, 3);
        assert!(model.stats().infer_time > 0.0);
    }
}
