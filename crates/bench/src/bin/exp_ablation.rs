//! EXP-ABL (§4.4, "Other Neural Network Models Explored"): compare the
//! recursive model against the flat-LSTM and concat-FFN alternatives on
//! the same split. The paper reports relative test-MAPE increases of
//! 1.15x (flat LSTM) and 1.39x (concat FFN).
//!
//! `cargo run --release -p dlcm-bench --bin exp_ablation [--quick]
//! [--threads N] [--shards K] [--epochs N]`

use dlcm_bench::{load_or_generate_dataset, write_json, Flags};
use dlcm_datagen::prepare;
use dlcm_model::ablation::{ConcatFfnModel, FlatLstmModel};
use dlcm_model::{
    evaluate, train, CostModel, CostModelConfig, Featurizer, FeaturizerConfig, SpeedupPredictor,
    TrainConfig,
};
use serde::Serialize;

#[derive(Serialize)]
struct AblationReport {
    recursive_mape: f64,
    flat_lstm_mape: f64,
    concat_ffn_mape: f64,
    flat_lstm_relative: f64,
    concat_ffn_relative: f64,
    paper_flat_relative: f64,
    paper_ffn_relative: f64,
}

const USAGE: &str = "exp_ablation [--quick] [--threads N] [--shards K] [--epochs N]";

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), USAGE);
    let quick = flags.has("quick");
    let epochs = flags.positive("epochs", if quick { 6 } else { 30 });

    eprintln!("=== EXP-ABL: architecture ablation (quick={quick}, {epochs} epochs) ===");
    let dataset = load_or_generate_dataset(&flags);
    let split = dataset.split(0);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let train_set = prepare(&featurizer, &dataset, &split.train);
    let test_set = prepare(&featurizer, &dataset, &split.test);
    let cfg = CostModelConfig::fast(featurizer.config().vector_width());
    let tcfg = TrainConfig {
        epochs,
        eval_every: usize::MAX,
        ..TrainConfig::default()
    };

    let run = |name: &str, model: &mut dyn SpeedupPredictorDyn| -> f64 {
        eprintln!("training {name} ...");
        model.train_on(&train_set, &tcfg);
        let m = model.eval_on(&test_set);
        println!("{name:<22} test MAPE {:.1}%", 100.0 * m);
        m
    };

    // Dyn-dispatch shim so the three architectures share one driver.
    trait SpeedupPredictorDyn {
        fn train_on(&mut self, set: &[dlcm_model::LabeledFeatures], cfg: &TrainConfig);
        fn eval_on(&self, set: &[dlcm_model::LabeledFeatures]) -> f64;
    }
    impl<M: SpeedupPredictor> SpeedupPredictorDyn for M {
        fn train_on(&mut self, set: &[dlcm_model::LabeledFeatures], cfg: &TrainConfig) {
            train(self, set, &[], cfg);
        }
        fn eval_on(&self, set: &[dlcm_model::LabeledFeatures]) -> f64 {
            evaluate(self, set).0
        }
    }

    let mut recursive = CostModel::new(cfg.clone(), 0);
    let recursive_mape = run("recursive (paper)", &mut recursive);
    let mut flat = FlatLstmModel::new(cfg.clone(), 0);
    let flat_mape = run("flat LSTM", &mut flat);
    let mut ffn = ConcatFfnModel::new(cfg, 4, 0);
    let ffn_mape = run("concat FFN (max 4)", &mut ffn);

    let report = AblationReport {
        recursive_mape,
        flat_lstm_mape: flat_mape,
        concat_ffn_mape: ffn_mape,
        flat_lstm_relative: flat_mape / recursive_mape,
        concat_ffn_relative: ffn_mape / recursive_mape,
        paper_flat_relative: 1.15,
        paper_ffn_relative: 1.39,
    };
    println!(
        "relative MAPE: flat LSTM {:.2}x (paper 1.15x), concat FFN {:.2}x (paper 1.39x)",
        report.flat_lstm_relative, report.concat_ffn_relative
    );
    write_json("ablation.json", &report);
}
